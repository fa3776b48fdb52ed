// Command emviabench is the repository benchmark. It drives the emvia
// pipeline through its public entry points on one of three workloads and
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	emviabench --workload table2|grid_ir_mc|serve_mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with the program's telemetry off. With --trace 1 they are the
// per-layer metrics: the benchmark records spans around its own calls into
// each layer, reads the counters the program already keeps, and writes the
// spans to <out>/spans-<workload>.json. Run it through run.sh, which builds
// the binaries from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchRun carries one invocation's settings and accumulates its outcome.
type benchRun struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	emserve  string
	outDir   string

	attempted, failed int
	problems          []string
	e2e               map[string]float64 // untraced end-to-end values
	layer             map[string]float64 // traced per-layer values
	inputs            map[string]any     // input properties, reported on stderr
}

// check records a failed output check; any failed check makes the run
// incorrect and the process exit non-zero.
func (r *benchRun) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// catalog is the metric list of BENCHMARK.json; the units come from there so
// the file and the binary cannot drift apart.
type catalog struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var r benchRun
	var seconds float64
	var traceFlag int
	flag.StringVar(&r.workload, "workload", "", "workload: table2, grid_ir_mc or serve_mix")
	flag.Int64Var(&r.seed, "seed", 2017, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&r.emserve, "emserve", ".bench_build/emviabench/emserve", "emserve binary (serve_mix)")
	flag.StringVar(&r.outDir, "out", ".bench_build/emviabench", "directory for span files and service scratch data")
	flag.Parse()
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "emviabench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r.seconds = time.Duration(seconds * float64(time.Second))
	r.trace = traceFlag == 1
	r.e2e = map[string]float64{}
	r.layer = map[string]float64{}
	r.inputs = map[string]any{}
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "emviabench:", err)
		return 2
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "emviabench:", err)
		return 2
	}

	workloads := map[string]func(*benchRun) error{
		"table2":     runTable2,
		"grid_ir_mc": runGridIRMC,
		"serve_mix":  runServeMix,
	}
	fn, ok := workloads[r.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "emviabench: unknown workload %q (want table2, grid_ir_mc or serve_mix)\n", r.workload)
		return 2
	}
	if err := fn(&r); err != nil {
		fmt.Fprintf(os.Stderr, "emviabench: %s: %v\n", r.workload, err)
		return 1
	}

	rep := report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.trace {
		for _, m := range cat.PerLayer {
			// A layer the workload does not reach reports 0.
			rep.Metrics[m.Name] = metric{Value: r.layer[m.Name], Unit: m.Unit}
			delete(r.layer, m.Name)
		}
		for name := range r.layer {
			r.check(false, "per-layer metric %s is not in the catalog", name)
		}
	} else {
		for _, m := range cat.EndToEnd {
			v, ok := r.e2e[m.Name]
			r.check(ok, "end-to-end metric %s was not measured", m.Name)
			r.check(v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "end-to-end metric %s = %g, want a positive finite value", m.Name, v)
			rep.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		}
	}
	r.check(r.attempted >= 1, "no operation attempted")
	rep.Correct = len(r.problems) == 0

	if in, err := json.Marshal(r.inputs); err == nil {
		fmt.Fprintf(os.Stderr, "inputs %s\n", in)
	}
	printTable(os.Stderr, rep.Metrics)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emviabench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printTable writes the metrics as an aligned name/value/unit table.
func printTable(w *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprint(w, b.String())
}
