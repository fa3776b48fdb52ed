// Package serve is the EM-analysis-as-a-service layer: an HTTP/JSON job
// API in front of the pdn/mc analysis engines.
//
// The design is a bounded admission queue feeding a single sequential
// executor. Jobs are content-addressed — sha256 over the canonicalized
// spec plus core.MaterialHash() — which buys two dedup layers for free: a
// result cache (an identical question is answered from the stored
// manifest, zero solves) and a singleflight map (a submission identical to
// a queued or running job attaches to that job instead of enqueueing a
// second execution). Because worker budgets and timeouts are excluded from
// the hash and mc splits seeds per trial, a cached manifest is
// byte-identical to the manifest a fresh solve at any worker count would
// have produced.
//
// Everything is observable through the shared telemetry registry
// (serve.jobs.*, serve.queue.*) and the structured trace ring: each job's
// Monte-Carlo run is labeled "job:<id>", which keys both the live progress
// counter and the per-job SSE cascade stream.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Runner executes one resolved spec under a context bound. It exists as a
// seam for tests (fault injection, latency shaping); the zero value of
// Config selects the real engine path (runSpec). A Runner must honor
// RunOptions' trial range — a sharded dispatch hands every Runner a slice
// of the job's [0, N) trial sequence and merges on the bit-identity of the
// per-trial seeding.
type Runner func(ctx context.Context, spec *JobSpec, opts RunOptions) (*runOutput, error)

// Config parameterizes a Server. The zero value is usable: every field
// has a working default.
type Config struct {
	// QueueCap bounds the admission queue; submissions beyond it get 429.
	// 0 selects 8.
	QueueCap int
	// JobWorkers is the per-job Monte-Carlo worker budget. It shapes
	// wall-clock only, never results (mc splits seeds per trial), which is
	// why it is absent from the content hash. 0 selects 1.
	JobWorkers int
	// DefaultTimeout bounds jobs that do not carry their own
	// timeout_seconds. 0 selects 5 minutes.
	DefaultTimeout time.Duration
	// MaxAttempts bounds execution attempts per job; only errors wrapped
	// in Transient are retried. 0 selects 3.
	MaxAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. 0 selects 50ms.
	RetryBackoff time.Duration
	// ResultDir, when set, persists result manifests as
	// <dir>/<contenthash>.json so dedup survives restarts.
	ResultDir string
	// LedgerPath, when set, appends one JSONL record per terminal job to
	// that file. Empty selects <ResultDir>/ledger.jsonl when ResultDir is
	// set, otherwise no ledger. "-" disables the ledger explicitly.
	LedgerPath string
	// Shards splits every Monte-Carlo job's trial range into this many
	// contiguous shards, dispatched to ShardWorkers (or a local executor
	// pool when none are configured) and merged into the byte-identical
	// single-process manifest. 0 or 1 disables sharding.
	Shards int
	// ShardWorkers lists worker emserve base URLs ("host:port" or full
	// URLs) serving POST /v1/shards. Empty with Shards > 1 self-dispatches
	// to a local executor pool of Shards concurrent shard runs.
	ShardWorkers []string
	// ShardSlots bounds concurrently executing /v1/shards requests on this
	// process (the worker side of dispatch). 0 selects 2.
	ShardSlots int
	// ShardTimeout bounds one remote shard dispatch attempt; on expiry the
	// shard is re-issued to the next worker (the straggler path). 0 selects
	// 60s.
	ShardTimeout time.Duration
	// ShardAttempts bounds dispatch attempts per shard including the final
	// always-local one, so attempts-1 workers are tried before the
	// coordinator runs the shard itself. 0 selects 3.
	ShardAttempts int
	// AdvertiseURL is this coordinator's externally reachable base URL.
	// When set it rides along on every shard dispatch so workers consult
	// and populate the coordinator's partial cache over HTTP — the fleet's
	// shared dedup domain. Empty disables worker-side cache replication.
	AdvertiseURL string
	// Runner overrides the engine execution path (tests only).
	Runner Runner
}

// Server is the job service: HTTP handlers, admission queue, store and the
// sequential executor. Create with NewServer, mount Handler, and Drain on
// shutdown.
type Server struct {
	cfg    Config
	store  *store
	queue  chan *Job
	reg    *telemetry.Registry
	ring   *trace.Ring
	mux    *http.ServeMux
	runner Runner
	ledger *Ledger
	// shardSlots bounds concurrently served /v1/shards executions;
	// shardClient carries every fleet-internal HTTP call (dispatch and
	// partial-cache replication), per-request deadlines via context.
	shardSlots  chan struct{}
	shardClient *http.Client

	mu       sync.Mutex
	draining bool
	// drained closes when the executor has finished every admitted job.
	drained chan struct{}
}

// NewServer builds a server and starts its executor. It enables the
// process-wide telemetry registry and, if no tracer is installed yet,
// installs one with a live ring — the ring is what turns Monte-Carlo
// trials into job progress and SSE events.
func NewServer(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.ShardSlots <= 0 {
		cfg.ShardSlots = 2
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 60 * time.Second
	}
	if cfg.ShardAttempts <= 0 {
		cfg.ShardAttempts = 3
	}
	s := &Server{
		cfg:         cfg,
		store:       newStore(cfg.ResultDir),
		queue:       make(chan *Job, cfg.QueueCap),
		reg:         telemetry.Enable(),
		runner:      cfg.Runner,
		drained:     make(chan struct{}),
		shardSlots:  make(chan struct{}, cfg.ShardSlots),
		shardClient: &http.Client{},
	}
	if s.runner == nil {
		s.runner = runSpec
	}
	switch {
	case cfg.LedgerPath == "-":
		// explicitly disabled
	case cfg.LedgerPath != "":
		s.ledger = NewLedger(cfg.LedgerPath)
	case cfg.ResultDir != "":
		s.ledger = NewLedger(filepath.Join(cfg.ResultDir, "ledger.jsonl"))
	}
	if t := trace.Default(); t != nil && t.Ring() != nil {
		s.ring = t.Ring()
	} else {
		s.ring = trace.NewRing(1024)
		trace.SetDefault(trace.New(trace.Options{Ring: s.ring, DisableSamples: true}))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("POST /v1/shards", s.handleShard)
	s.mux.HandleFunc("GET /v1/partials/{hash}/{start}/{count}", s.handlePartialGet)
	s.mux.HandleFunc("PUT /v1/partials/{hash}/{start}/{count}", s.handlePartialPut)
	go s.executor()
	return s
}

// Handler returns the API mux (mountable under a parent mux alongside the
// monitor endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Ring returns the trace ring the server observes progress through.
func (s *Server) Ring() *trace.Ring { return s.ring }

// Drain stops admission (new submissions get 503), lets every admitted job
// finish, and returns when the executor is idle or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// submitResponse is the POST /v1/jobs body.
type submitResponse struct {
	ID    string `json:"id"`
	Hash  string `json:"content_hash"`
	State State  `json:"state"`
	// Dedup reports how a duplicate was coalesced: "result-cache" or
	// "in-flight". Empty for a fresh enqueue.
	Dedup string `json:"dedup,omitempty"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone = nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg})
}

// newTimeline builds a job timeline anchored at the submission instant,
// with an observer that mirrors every stage span into the per-stage latency
// histograms (serve.stage_seconds{stage=…}).
func (s *Server) newTimeline(epoch time.Time) *trace.Timeline {
	return trace.NewTimeline(epoch, func(stage string, seconds float64) {
		s.reg.Histogram(telemetry.ServeStageSeconds(stage)).Observe(seconds)
	})
}

// handleSubmit is POST /v1/jobs: decode → validate → content-address →
// dedup (result cache, then singleflight) → bounded enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	admitStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, MaxSpecBytes)
	spec, err := DecodeJobSpec(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	resolved := spec.Resolved()
	hash, err := spec.ContentHash()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.reg.Counter(telemetry.ServeSubmitted).Inc()

	// Dedup layer 1: the content-addressed result cache. The job completes
	// instantly from the stored manifest — zero engine work.
	if manifest, ok := s.store.lookupResult(hash); ok {
		tl := s.newTimeline(admitStart)
		tl.Add("admit", admitStart, time.Since(admitStart))
		job := s.store.create(hash, resolved, timeout, tl)
		job.completeFromCache(manifest)
		s.reg.Counter(telemetry.ServeDedupCacheHits).Inc()
		s.ledgerAppend(job, "result-cache", "")
		s.writeJSON(w, http.StatusOK, submitResponse{ID: job.ID, Hash: hash, State: StateDone, Dedup: "result-cache"})
		return
	}

	// The admit span closes here — before the enqueue — so it is always
	// the timeline's first entry: once the job is in the queue, the
	// executor can record queue-wait at any moment.
	tl := s.newTimeline(admitStart)
	tl.Add("admit", admitStart, time.Since(admitStart))

	// Dedup layer 2 + admission, atomically with respect to Drain: the
	// singleflight claim and the queue send sit under one lock so a
	// duplicate never enqueues and a submission never races queue close.
	s.mu.Lock()
	if s.draining {
		// A draining server never accepts again: the useful hint is how long
		// its remaining backlog will take to finish, after which the client's
		// load balancer should have stopped routing here.
		backlog := len(s.queue) + 1
		s.mu.Unlock()
		s.reg.Counter(telemetry.ServeRejectedDraining).Inc()
		w.Header().Set("Retry-After", s.retryAfterHint(backlog))
		s.writeError(w, http.StatusServiceUnavailable, "serve: draining, not accepting jobs")
		return
	}
	job := s.store.create(hash, resolved, timeout, tl)
	incumbent, fresh := s.store.claimInflight(job)
	if !fresh {
		s.store.remove(job.ID)
		s.mu.Unlock()
		s.reg.Counter(telemetry.ServeDedupInflightHits).Inc()
		st := incumbent.Status()
		s.writeJSON(w, http.StatusOK, submitResponse{ID: incumbent.ID, Hash: hash, State: st.State, Dedup: "in-flight"})
		return
	}
	select {
	case s.queue <- job:
		s.reg.Gauge(telemetry.ServeQueueDepth).Add(1)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, Hash: hash, State: StateQueued})
	default:
		s.store.releaseInflight(job)
		s.store.remove(job.ID)
		s.mu.Unlock()
		s.reg.Counter(telemetry.ServeRejectedFull).Inc()
		// A queue slot frees when the sequential executor finishes the job
		// it is running — about one recent per-job wall time from now.
		w.Header().Set("Retry-After", s.retryAfterHint(1))
		s.writeError(w, http.StatusTooManyRequests, "serve: job queue full")
	}
}

// retryAfterBounds clamp the Retry-After hint: at least 1s (the header is
// integer seconds and 0 would invite a busy-loop), at most 10 minutes (past
// that the estimate says more about one pathological job than the queue).
const (
	retryAfterMin = 1
	retryAfterMax = 600
)

// retryAfterHint derives a Retry-After value from the observed service
// rate: the recent per-job wall time (median of the serve.job_seconds stage
// histogram; 1s before any job has completed) times the number of jobs that
// must finish before the client's next attempt can be admitted.
func (s *Server) retryAfterHint(backlog int) string {
	perJob := s.reg.Histogram(telemetry.ServeJobSeconds).Snapshot().P50
	if perJob <= 0 {
		perJob = 1
	}
	if backlog < 1 {
		backlog = 1
	}
	secs := int(math.Ceil(perJob * float64(backlog)))
	if secs < retryAfterMin {
		secs = retryAfterMin
	}
	if secs > retryAfterMax {
		secs = retryAfterMax
	}
	return strconv.Itoa(secs)
}

// statusResponse is the GET /v1/jobs/{id} body.
type statusResponse struct {
	ID          string `json:"id"`
	Hash        string `json:"content_hash"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	Attempts    int    `json:"attempts"`
	TrialsDone  int64  `json:"trials_done"`
	TrialsTotal int64  `json:"trials_total"`
	CreatedAt   string `json:"created_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

func statusJSON(st Status) statusResponse {
	out := statusResponse{
		ID:          st.ID,
		Hash:        st.Hash,
		State:       st.State,
		Error:       st.Err,
		Attempts:    st.Attempts,
		TrialsDone:  st.TrialsDone,
		TrialsTotal: st.TrialsTotal,
	}
	if !st.Created.IsZero() {
		out.CreatedAt = st.Created.UTC().Format(time.RFC3339Nano)
	}
	if !st.Started.IsZero() {
		out.StartedAt = st.Started.UTC().Format(time.RFC3339Nano)
	}
	if !st.Finished.IsZero() {
		out.FinishedAt = st.Finished.UTC().Format(time.RFC3339Nano)
	}
	return out
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.store.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "serve: unknown job id")
		return nil, false
	}
	return job, true
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, statusJSON(job.Status()))
}

// handleResult is GET /v1/jobs/{id}/result: the canonical manifest on
// success, 504 with partial progress after a deadline, 500 on failure, 409
// while the job is still pending.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := job.Status()
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Content-Hash", st.Hash)
		w.WriteHeader(http.StatusOK)
		w.Write(job.Manifest()) //nolint:errcheck
	case StateDeadline:
		s.writeJSON(w, http.StatusGatewayTimeout, statusJSON(st))
	case StateFailed:
		s.writeJSON(w, http.StatusInternalServerError, statusJSON(st))
	default:
		s.writeJSON(w, http.StatusConflict, statusJSON(st))
	}
}

// executor runs admitted jobs one at a time, in admission order. The
// sequential discipline is what makes ring-delta progress exact: every
// trial completing while a job runs belongs to that job.
func (s *Server) executor() {
	defer close(s.drained)
	for job := range s.queue {
		s.reg.Gauge(telemetry.ServeQueueDepth).Add(-1)
		s.runJob(job)
	}
}

// runJob executes one job: deadline context, live progress from the trace
// ring, bounded retry on Transient errors, terminal bookkeeping.
func (s *Server) runJob(job *Job) {
	st := job.Status()
	queueWait := time.Since(st.Created)
	s.reg.Histogram(telemetry.ServeQueueWaitSeconds).Observe(queueWait.Seconds())
	job.Timeline.Add("queue-wait", st.Created, queueWait)
	s.reg.Gauge(telemetry.ServeJobsActive).Add(1)
	t0 := s.reg.Histogram(telemetry.ServeJobSeconds).Start()
	// Ledger last (defers run LIFO): the job is terminal and every stage
	// span — including "manifest" — is recorded by the time it fires.
	var backend string
	defer func() { s.ledgerAppend(job, "", backend) }()
	defer s.reg.Gauge(telemetry.ServeJobsActive).Add(-1)
	defer s.reg.Histogram(telemetry.ServeJobSeconds).ObserveSince(t0)
	defer s.store.releaseInflight(job)

	ctx, cancel := context.WithTimeout(trace.WithTimeline(context.Background(), job.Timeline), job.Timeout)
	defer cancel()

	ringStart := s.ring.Total()
	progressDone := make(chan struct{})
	go s.trackProgress(job, ringStart, progressDone)
	defer close(progressDone)

	var out *runOutput
	var err error
	for attempt := 1; ; attempt++ {
		job.setRunning()
		s.reg.Counter(telemetry.ServeSolves).Inc()
		out, err = s.execute(ctx, job)
		if err == nil {
			backend = out.backend
			break
		}
		if errors.Is(err, context.DeadlineExceeded) {
			job.setProgress(s.ring.Total() - ringStart)
			job.finish(StateDeadline, nil, err.Error())
			s.reg.Counter(telemetry.ServeDeadlineExceeded).Inc()
			return
		}
		var tr *Transient
		if errors.As(err, &tr) && attempt < s.cfg.MaxAttempts {
			s.reg.Counter(telemetry.ServeRetries).Inc()
			backoff := s.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(backoff):
				continue
			case <-ctx.Done():
				job.finish(StateDeadline, nil, ctx.Err().Error())
				s.reg.Counter(telemetry.ServeDeadlineExceeded).Inc()
				return
			}
		}
		job.finish(StateFailed, nil, err.Error())
		s.reg.Counter(telemetry.ServeFailed).Inc()
		return
	}

	endManifest := job.Timeline.Stage("manifest")
	manifest, err := buildManifest(job.Hash, job.Spec, out)
	if err == nil {
		var buf []byte
		if buf, err = manifest.Encode(); err == nil {
			if serr := s.store.saveResult(job.Hash, buf); serr != nil {
				// Persisting is best-effort: the job still completes from
				// memory, only cross-restart dedup is lost.
				s.reg.Counter(telemetry.ServeFailed).Inc()
			}
			endManifest()
			job.finish(StateDone, buf, "")
			s.reg.Counter(telemetry.ServeCompleted).Inc()
			return
		}
	}
	endManifest()
	job.finish(StateFailed, nil, err.Error())
	s.reg.Counter(telemetry.ServeFailed).Inc()
}

// timelineResponse is the GET /v1/jobs/{id}/timeline body.
type timelineResponse struct {
	ID     string            `json:"id"`
	Hash   string            `json:"content_hash"`
	State  State             `json:"state"`
	Stages []trace.StageSpan `json:"stages"`
}

// handleTimeline is GET /v1/jobs/{id}/timeline: the job's stage spans in
// recording order. Available at any lifecycle point — a running job shows
// the stages completed so far.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := job.Status()
	stages := job.Timeline.Spans()
	if stages == nil {
		stages = []trace.StageSpan{}
	}
	s.writeJSON(w, http.StatusOK, timelineResponse{ID: st.ID, Hash: st.Hash, State: st.State, Stages: stages})
}

// ledgerAppend records a terminal job in the run ledger (no-op without a
// ledger). dedup marks jobs answered without execution ("result-cache");
// backend is the circuit backend the execution ran on, if known.
func (s *Server) ledgerAppend(job *Job, dedup, backend string) {
	if s.ledger == nil {
		return
	}
	st := job.Status()
	rec := &LedgerRecord{
		Schema:      LedgerSchemaVersion,
		Time:        st.Finished.UTC().Format(time.RFC3339Nano),
		ID:          st.ID,
		ContentHash: st.Hash,
		Engine:      job.Spec.Engine,
		Backend:     backend,
		Outcome:     string(st.State),
		Error:       st.Err,
		Dedup:       dedup,
		Attempts:    st.Attempts,
		TrialsDone:  st.TrialsDone,
		TrialsTotal: st.TrialsTotal,
	}
	if st.Attempts > 1 {
		rec.Retries = st.Attempts - 1
	}
	rec.Shards = st.Shards
	rec.ShardsReissued = st.ShardReissues
	if !st.Finished.IsZero() {
		rec.WallSeconds = st.Finished.Sub(st.Created).Seconds()
	}
	if spans := job.Timeline.Spans(); len(spans) > 0 {
		rec.StageSeconds = make(map[string]float64, len(spans))
		for _, sp := range spans {
			rec.StageSeconds[sp.Stage] += sp.DurationSeconds
			switch sp.Stage {
			case "queue-wait":
				rec.QueueWaitSeconds += sp.DurationSeconds
			case "merge":
				rec.MergeSeconds += sp.DurationSeconds
			}
		}
	}
	if err := s.ledger.Append(rec); err != nil {
		s.reg.Counter(telemetry.ServeLedgerErrors).Inc()
		return
	}
	s.reg.Counter(telemetry.ServeLedgerRecords).Inc()
}

// trackProgress mirrors the trace ring's trial counter into the job while
// it runs. Progress is the ring delta since the job started — exact under
// the sequential executor.
func (s *Server) trackProgress(job *Job, ringStart int64, done <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			// Remote shards complete trials off this process's ring; take
			// whichever counter has seen more (never both — max, not sum).
			p := s.ring.Total() - ringStart
			if sp := job.shardTrialsDone(); sp > p {
				p = sp
			}
			job.setProgress(p)
		}
	}
}
