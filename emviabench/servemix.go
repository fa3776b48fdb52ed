package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"emvia/internal/pdn"
	"emvia/internal/spice"
	"emvia/internal/telemetry"
)

// serve_mix: a closed loop of clients against one emserve on the loopback
// interface. Every client submits its next job only after the previous
// one's manifest arrived. A pass is one seeded sequence of submissions per
// client: one new spec of every kind (grid × engine × criterion) in a
// seeded order, with a third of the submissions repeating a spec the
// client completed earlier in the pass. Every pass and every seed thus
// carries the same mix, and the new specs of a pass are unique to it, so
// passes are comparable and wall_s is the median pass time. The order is
// drawn afresh for every pass: how the clients' jobs queue behind each
// other depends on it, and a run that averages over many orders gives a
// latency median that does not hinge on one.
const (
	smRepeatShare = 3 // one submission in three repeats a completed spec
	smSetupReps   = 15
	// The closed loop keeps at most one job per client outstanding; capping
	// the clients at the server's default queue capacity (8) keeps every
	// submission admissible on hosts with more CPUs.
	smMaxClients = 8
)

// smOp is one planned submission of a client.
type smOp struct {
	repeat    int // index of the earlier op whose spec is resubmitted; -1 = new spec
	grid      string
	nx        int // 0 = the preset size
	engine    string
	criterion string
}

// smPlan draws each client's sequence of one pass from the seed. The small
// PG1 grids (8 or 10 stripes) stay below the dense cutoff of 256 free
// nodes; the PG1 and PG2 presets take the sparse path.
func smPlan(seed int64, pass, clients int) [][]smOp {
	plans := make([][]smOp, clients)
	for c := range plans {
		rng := rand.New(rand.NewSource((seed*7919+int64(pass))*7907 + int64(c)))
		var news []smOp
		for _, g := range []string{"small", "PG1", "PG2"} {
			for _, engine := range []string{"mc", "both", "steady"} {
				for _, crit := range []string{"ir", "wl"} {
					op := smOp{repeat: -1, grid: g, engine: engine, criterion: crit}
					if g == "small" {
						op.grid, op.nx = "PG1", 8+2*rng.Intn(2)
					}
					news = append(news, op)
				}
			}
		}
		rng.Shuffle(len(news), func(i, j int) { news[i], news[j] = news[j], news[i] })
		total := len(news) * smRepeatShare / (smRepeatShare - 1)
		isRepeat := make([]bool, total)
		for _, k := range rng.Perm(total - 1)[:total-len(news)] {
			isRepeat[k+1] = true // the first submission is always new
		}
		var done []int
		for k := 0; k < total; k++ {
			if isRepeat[k] {
				plans[c] = append(plans[c], smOp{repeat: done[rng.Intn(len(done))]})
				continue
			}
			plans[c] = append(plans[c], news[0])
			news = news[1:]
			done = append(done, k)
		}
	}
	return plans
}

// smSpec renders the job spec of a new op. The grid seed makes every new
// spec of a run distinct, so only planned repeats can hit the result cache.
// The trial count is left to the server's default.
func smSpec(op smOp, seed int64, pass, client, k int) []byte {
	grid := map[string]any{"name": op.grid, "seed": 1 + pass*100000 + client*1000 + k}
	if op.nx > 0 {
		grid["nx"], grid["ny"] = op.nx, op.nx
	}
	spec := map[string]any{"engine": op.engine, "criterion": op.criterion, "grid": grid}
	if op.engine != "steady" {
		spec["seed"] = seed
	}
	buf, _ := json.Marshal(spec) // maps of strings and numbers always marshal
	return buf
}

// httpClient keeps idle connections for every client and stream, so the
// closed loop does not pay a TCP handshake per request. The timeout turns a
// job that never finishes into a failed run instead of a hung one.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 4 * smMaxClients},
	Timeout:   60 * time.Second,
}

// emserve is one running server process.
type emserve struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan error
}

// startServer launches emserve on an ephemeral loopback port with default
// settings apart from the per-job worker budget, and returns once it
// answers HTTP; the second value is that start-up time in seconds.
func startServer(bin, dir string, workers int) (*emserve, float64, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-job-workers", strconv.Itoa(workers), "-resultdir", dir)
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &emserve{cmd: cmd, dir: dir, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("emserve exited before listening")
		}
		s.base = a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("emserve did not start listening")
	}
	for {
		resp, err := httpClient.Get(s.base + "/status")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a probe
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("emserve not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if the drain hangs, waits
// for the process to end and removes its result directory.
func (s *emserve) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a process already gone is fine
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // see above
		<-s.done
	}
	os.RemoveAll(s.dir) //nolint:errcheck // scratch data under the output directory
}

// peakRSS is the server's peak resident set in MB.
func (s *emserve) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// telemetry reads the server's registry from /debug/vars.
func (s *emserve) telemetry() (*telemetry.Snapshot, error) {
	resp, err := httpClient.Get(s.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Emvia *telemetry.Snapshot `json:"emvia"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	if vars.Emvia == nil {
		return nil, fmt.Errorf("emserve publishes no telemetry")
	}
	return vars.Emvia, nil
}

// smResult is the outcome of one submission.
type smResult struct {
	id, hash, engine string
	trials           int // Monte-Carlo trials of the manifest; 0 for steady
	hit              bool
	latencyS         float64
	manifest         []byte
	err              error
}

// submit posts a spec and waits for its manifest: on the job's event
// stream when the job is not done at admission, so the latency is the
// server's and not a polling interval.
func submit(t *tracer, parent int32, base string, spec []byte) smResult {
	var res smResult
	t0 := time.Now()
	s := t.start("http.submit", parent)
	resp, err := httpClient.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		s.end()
		res.err = err
		return res
	}
	var sub struct {
		ID    string `json:"id"`
		Hash  string `json:"content_hash"`
		State string `json:"state"`
		Dedup string `json:"dedup"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	s.end()
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		res.err = fmt.Errorf("submit: HTTP %d %s %v", resp.StatusCode, sub.Error, err)
		return res
	}
	res.id, res.hash, res.hit = sub.ID, sub.Hash, sub.Dedup == "result-cache"
	if sub.State != "done" {
		s = t.start("http.events", parent)
		state, err := waitEnd(base + "/v1/jobs/" + sub.ID + "/events")
		s.end()
		if err == nil && state != "done" {
			err = fmt.Errorf("job %s ended %s", sub.ID, state)
		}
		if err != nil {
			res.err = err
			return res
		}
	}
	s = t.start("http.result", parent)
	resp, err = httpClient.Get(base + "/v1/jobs/" + sub.ID + "/result")
	if err == nil {
		res.manifest, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
		}
	}
	s.end()
	res.latencyS = time.Since(t0).Seconds()
	res.err = err
	if err == nil {
		var m struct {
			Hash   string `json:"content_hash"`
			Engine string `json:"engine"`
			Trials int    `json:"trials"`
		}
		if err := json.Unmarshal(res.manifest, &m); err != nil || m.Hash != res.hash {
			res.err = fmt.Errorf("manifest of job %s does not carry its content hash (%v)", sub.ID, err)
		}
		res.engine, res.trials = m.Engine, m.Trials
	}
	return res
}

// waitEnd reads a job's Server-Sent-Events stream until its "end" frame and
// returns the terminal state.
func waitEnd(url string) (string, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("events stream ended early: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "end":
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return "", err
			}
			io.Copy(io.Discard, rd) //nolint:errcheck // let the connection be reused
			return st.State, nil
		}
	}
}

// smPass is the outcome of one pass.
type smPass struct {
	wallS   float64
	plans   [][]smOp     // per client
	results [][]smResult // per client, per op
}

// runPass runs one pass: every client works through its plan in a closed
// loop.
func runPass(t *tracer, base string, seed int64, pass, clients int) smPass {
	root := t.start("serve_mix.pass", -1)
	defer root.end()
	plans := smPlan(seed, pass, clients)
	out := smPass{plans: plans, results: make([][]smResult, clients)}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, plan := range plans {
		wg.Add(1)
		go func(c int, plan []smOp) {
			defer wg.Done()
			specs := make([][]byte, len(plan))
			for k, op := range plan {
				if op.repeat >= 0 {
					specs[k] = specs[op.repeat]
				} else {
					specs[k] = smSpec(op, seed, pass, c, k)
				}
				s := t.start("serve.op", root.id)
				out.results[c] = append(out.results[c], submit(t, s.id, base, specs[k]))
				s.end()
			}
		}(c, plan)
	}
	wg.Wait()
	out.wallS = time.Since(t0).Seconds()
	return out
}

// timelineStages maps the job timeline's stage names to per-layer metrics.
var timelineStages = map[string]string{
	"admit":      "serve.admit_s",
	"queue-wait": "serve.queue_wait_s",
	"resolve":    "serve.resolve_s",
	"compile":    "serve.compile_s",
	"factorize":  "serve.factorize_s",
	"mc":         "serve.mc_s",
	"manifest":   "serve.manifest_s",
}

// addTimelines sums the stage times of the pass's jobs into stages.
func addTimelines(t *tracer, base string, p smPass, stages map[string]float64) error {
	s := t.start("http.timeline", -1)
	defer s.end()
	for _, rs := range p.results {
		for _, res := range rs {
			if res.id == "" {
				continue
			}
			resp, err := httpClient.Get(base + "/v1/jobs/" + res.id + "/timeline")
			if err != nil {
				return err
			}
			var tl struct {
				Stages []struct {
					Stage           string  `json:"stage"`
					DurationSeconds float64 `json:"duration_seconds"`
				} `json:"stages"`
			}
			err = json.NewDecoder(resp.Body).Decode(&tl)
			resp.Body.Close()
			if err != nil {
				return err
			}
			for _, st := range tl.Stages {
				if name, ok := timelineStages[st.Stage]; ok {
					stages[name] += st.DurationSeconds
				}
			}
		}
	}
	return nil
}

// smGridProps reports the size and solver backend of each grid size the
// mix submits, built as the server builds them.
func smGridProps() ([]map[string]any, error) {
	var props []map[string]any
	for _, g := range []struct {
		name string
		nx   int
	}{{"PG1", 8}, {"PG1", 10}, {"PG1", 0}, {"PG2", 0}} {
		spec := pdn.PG1Spec()
		if g.name == "PG2" {
			spec = pdn.PG2Spec()
		}
		if g.nx > 0 {
			spec.NX, spec.NY = g.nx, g.nx
		}
		grid, err := pdn.Generate(spec)
		if err != nil {
			return nil, err
		}
		c, err := spice.Compile(grid.Netlist)
		if err != nil {
			return nil, err
		}
		if _, err := c.SolveDC(nil); err != nil {
			return nil, err
		}
		props = append(props, map[string]any{"grid": spec.Name, "nx": spec.NX, "vias": len(grid.Vias), "free_nodes": c.NumFree(), "backend": c.SolverBackend()})
	}
	return props, nil
}

func runServeMix(r *benchRun) error {
	workers := runtime.NumCPU()
	clients := min(workers, smMaxClients)
	plans := smPlan(r.seed, 0, clients) // every pass has the same mix
	planned := map[string]int{}
	for _, plan := range plans {
		for _, op := range plan {
			if op.repeat < 0 {
				planned[op.engine+"/"+op.criterion]++
			}
		}
	}
	r.inputs["clients"] = clients
	r.inputs["job_workers"] = workers
	r.inputs["ops_per_pass"] = clients * len(plans[0])
	r.inputs["new_specs_by_engine_criterion"] = planned
	grids, err := smGridProps()
	if err != nil {
		return err
	}
	r.inputs["grids"] = grids

	// Set-up: server start-up until it answers, repeated; the last server
	// stays up for the workload.
	var setupS []float64
	var srv *emserve
	for i := 0; i < smSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		var s float64
		srv, s, err = startServer(r.emserve, filepath.Join(r.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), i)), workers)
		if err != nil {
			return fmt.Errorf("starting emserve: %w", err)
		}
		setupS = append(setupS, s)
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	// Every pass is checked: repeats must be result-cache hits with the
	// manifest of their first run, byte for byte.
	var latencies []float64
	hits, ops, mcTrials := 0, 0, 0
	engines := map[string]int{}
	var firstPass, firstTraced *smPass
	checkPass := func(p smPass, what string) {
		for c, rs := range p.results {
			for k, res := range rs {
				r.attempted++
				ops++
				if res.err != nil {
					r.failed++
					r.check(false, "%s client %d op %d: %v", what, c, k, res.err)
					continue
				}
				latencies = append(latencies, res.latencyS)
				if res.hit {
					hits++
				}
				op := p.plans[c][k]
				if op.repeat < 0 {
					engines[res.engine]++
					mcTrials = max(mcTrials, res.trials)
					r.check(res.engine == op.engine, "%s client %d op %d: manifest engine %q, submitted %q", what, c, k, res.engine, op.engine)
					continue
				}
				first := rs[op.repeat]
				r.check(res.hit, "%s client %d op %d: repeat of op %d was not a result-cache hit", what, c, k, op.repeat)
				r.check(first.err == nil && bytes.Equal(res.manifest, first.manifest), "%s client %d op %d: manifest differs from op %d's", what, c, k, op.repeat)
			}
		}
	}
	finalChecks := func() {
		r.check(hits > 0, "serve_mix recorded no result-cache hit")
		for _, e := range []string{"mc", "both", "steady"} {
			r.check(engines[e] > 0, "serve_mix ran no %s job", e)
		}
		r.check(r.failed == 0, "%d of %d submissions failed", r.failed, r.attempted)
	}

	if !r.trace {
		var walls []float64
		err := repeatFor(r.seconds, 2, func(pass int) error {
			p := runPass(nil, srv.base, r.seed, pass, clients)
			checkPass(p, fmt.Sprintf("pass %d", pass))
			walls = append(walls, p.wallS)
			return nil
		})
		if err != nil {
			return err
		}
		rss, err := srv.peakRSS()
		if err != nil {
			return err
		}
		finalChecks()
		r.e2e["wall_s"] = median(walls)
		r.e2e["setup_s"] = median(setupS)
		r.e2e["jobs_per_s"] = float64(len(latencies)) / sum(walls)
		r.e2e["job_p50_s"] = quantile(latencies, 0.5)
		r.e2e["job_p75_s"] = quantile(latencies, 0.75)
		r.e2e["peak_rss_mb"] = rss
		r.e2e["success_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
		r.inputs["passes"] = len(walls)
		r.inputs["latency_samples"] = len(latencies)
		r.inputs["trials_per_job"] = mcTrials
		return nil
	}

	// Traced run: untraced and traced passes alternate; after each traced
	// pass the benchmark reads its jobs' stage timelines.
	t := newTracer(fmt.Sprintf("serve_mix-%d-%d", r.seed, time.Now().UnixNano()))
	var plainS, tracedS []float64
	stages := map[string]float64{}
	passes := 0
	err = repeatFor(r.seconds, 1, func(i int) error {
		p := runPass(nil, srv.base, r.seed, passes, clients)
		checkPass(p, fmt.Sprintf("pass %d", passes))
		if firstPass == nil {
			firstPass = &p
		}
		plainS = append(plainS, p.wallS)
		passes++
		tp := runPass(t, srv.base, r.seed, passes, clients)
		checkPass(tp, fmt.Sprintf("traced pass %d", passes))
		if firstTraced == nil {
			firstTraced = &tp
		}
		tracedS = append(tracedS, tp.wallS)
		passes++
		return addTimelines(t, srv.base, tp, stages)
	})
	if err != nil {
		return err
	}
	snap, err := srv.telemetry()
	if err != nil {
		return err
	}
	srv.stop()
	srv = nil
	finalChecks()

	// One-worker reference: the first untraced and the first traced pass
	// again, untraced, on a fresh server with one worker per job; the
	// manifests must match the first server's byte for byte.
	ref, _, err := startServer(r.emserve, filepath.Join(r.outDir, fmt.Sprintf("serve-%d-ref", os.Getpid())), 1)
	if err != nil {
		return fmt.Errorf("starting the one-worker emserve: %w", err)
	}
	p := runPass(nil, ref.base, r.seed, 0, clients)
	pt := runPass(nil, ref.base, r.seed, 1, clients)
	ref.stop()
	for _, cmp := range []struct {
		got, want *smPass
		what      string
	}{{&p, firstPass, "untraced"}, {&pt, firstTraced, "traced"}} {
		for c, rs := range cmp.got.results {
			for k, res := range rs {
				want := cmp.want.results[c][k]
				r.check(res.err == nil && bytes.Equal(res.manifest, want.manifest), "one-worker replay of the first %s pass: client %d op %d manifest differs (%v)", cmp.what, c, k, res.err)
			}
		}
	}

	reps := float64(len(tracedS))
	for _, name := range timelineStages {
		r.layer[name] = stages[name] / reps
	}
	counters, hists := snapshotValues(snap)
	r.telemetryLayers(counters, hists, float64(passes), mcWorkers(workers, mcTrials))
	if trials := counters["mc.trials"]; trials > 0 {
		r.layer["mc.failures_per_trial"] = hists["mc.failures_per_trial"] / trials
	}
	r.layer["serve.jobs.failed"] = counters["serve.jobs.failed"] / float64(passes)
	r.layer["serve.jobs.retries"] = counters["serve.jobs.retries"] / float64(passes)
	r.layer["serve.result_cache_hit_frac"] = float64(hits) / float64(ops)
	r.layer["mc.serial_speedup"] = p.wallS / plainS[0]
	r.layer["trace.overhead_frac"] = median(tracedS)/median(plainS) - 1
	r.layer["error_frac"] = float64(r.failed) / float64(r.attempted)
	r.inputs["passes"] = passes
	r.inputs["trials_per_job"] = mcTrials
	r.inputs["mc_workers"] = mcWorkers(workers, mcTrials)
	return t.write(fmt.Sprintf("%s/spans-serve_mix.json", r.outDir), "serve_mix", r.seed)
}
