package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/telemetry"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is -1 for a root span.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64
}

// tracer keeps the spans of one workload run in memory; every span of the
// run shares its id. A nil *tracer records nothing, so untraced code paths
// call the same helpers.
type tracer struct {
	runID string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, epoch: time.Now()}
}

// openSpan is a started span; end closes it.
type openSpan struct {
	t  *tracer
	id int32
}

// start opens a span named name under parent (-1 for none).
func (t *tracer) start(name string, parent int32) openSpan {
	if t == nil {
		return openSpan{id: -1}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return openSpan{t: t, id: id}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// addLeaves files spans recorded elsewhere (one Monte-Carlo worker's calls)
// under parent, assigning their ids.
func (t *tracer) addLeaves(parent int32, leaves []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range leaves {
		l.ID = int32(len(t.spans))
		l.Parent = parent
		t.spans = append(t.spans, l)
	}
}

// layerStat aggregates the spans of one name: call count, inclusive time
// and self time (inclusive minus the part of the span its children cover).
type layerStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summary aggregates the spans by name.
func (t *tracer) summary() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(dur-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of s the union of kids covers.
// Children of a Monte-Carlo run overlap (one per worker), hence the union.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > curE {
			total += curE - curS
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	return total + curE - curS
}

// write stores the run's spans and their per-name summary as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	sum := t.summary()
	t.mu.Lock()
	rows := make([][5]any, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]any{s.ID, s.Parent, s.Name, s.Start, s.End}
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{
		"run_id":   t.runID,
		"workload": workload,
		"seed":     seed,
		"columns":  []string{"id", "parent", "name", "start_ns", "end_ns"},
		"spans":    rows,
		"summary":  sum,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedSystem wraps one Monte-Carlo worker's grid system and records a
// span around each call that does electrical work. It forwards every
// optional interface the grid system implements (mc.TrialPreparer,
// mc.CandidateMasker, mc.ComponentLabeler), so the engine takes the same
// paths as on the bare system. The per-component accessors (BaseTTF,
// AgingRate) are forwarded untimed: the engine calls them in its scan
// loop, where a clock read per call would dominate. Spans are kept
// locally, since each worker owns its system, and filed with the tracer
// after the run.
type tracedSystem struct {
	inner *pdn.GridSystem
	epoch time.Time
	spans []span
}

var (
	_ mc.TrialPreparer    = (*tracedSystem)(nil)
	_ mc.CandidateMasker  = (*tracedSystem)(nil)
	_ mc.ComponentLabeler = (*tracedSystem)(nil)
)

func (s *tracedSystem) record(name string, t0 time.Time) {
	s.spans = append(s.spans, span{
		Name:  name,
		Start: t0.Sub(s.epoch).Nanoseconds(),
		End:   time.Since(s.epoch).Nanoseconds(),
	})
}

func (s *tracedSystem) NumComponents() int           { return s.inner.NumComponents() }
func (s *tracedSystem) BaseTTF(i int) float64        { return s.inner.BaseTTF(i) }
func (s *tracedSystem) AgingRate(i int) float64      { return s.inner.AgingRate(i) }
func (s *tracedSystem) SetCandidates(m []bool) error { return s.inner.SetCandidates(m) }
func (s *tracedSystem) ComponentLabel(i int) string  { return s.inner.ComponentLabel(i) }

func (s *tracedSystem) BeginTrial(rng *rand.Rand) error {
	t0 := time.Now()
	err := s.inner.BeginTrial(rng)
	s.record("pdn.begin_trial", t0)
	return err
}

func (s *tracedSystem) PrepareTrials(seeds []int64) error {
	t0 := time.Now()
	err := s.inner.PrepareTrials(seeds)
	s.record("pdn.prepare_trials", t0)
	return err
}

func (s *tracedSystem) Fail(i int) error {
	t0 := time.Now()
	err := s.inner.Fail(i)
	s.record("pdn.fail", t0)
	return err
}

func (s *tracedSystem) Failed() (bool, error) {
	t0 := time.Now()
	f, err := s.inner.Failed()
	s.record("pdn.failed", t0)
	return f, err
}

// tracedFactory is a Monte-Carlo system factory of traced clones of
// master. collect files every worker's spans under parent once the run has
// returned.
func tracedFactory(t *tracer, master *pdn.GridSystem) (factory func() (mc.System, error), collect func(parent int32)) {
	var mu sync.Mutex
	var made []*tracedSystem
	factory = func() (mc.System, error) {
		ts := &tracedSystem{inner: master.Clone(), epoch: t.epoch}
		mu.Lock()
		made = append(made, ts)
		mu.Unlock()
		return ts, nil
	}
	collect = func(parent int32) {
		mu.Lock()
		defer mu.Unlock()
		for _, ts := range made {
			t.addLeaves(parent, ts.spans)
		}
	}
	return factory, collect
}

// snapshotValues flattens a telemetry snapshot into counter values and
// histogram sums.
func snapshotValues(s *telemetry.Snapshot) (counters, histSums map[string]float64) {
	counters = map[string]float64{}
	histSums = map[string]float64{}
	for k, v := range s.Counters {
		counters[k] = float64(v)
	}
	for k, h := range s.Histograms {
		histSums[k] = h.Sum
	}
	return counters, histSums
}
