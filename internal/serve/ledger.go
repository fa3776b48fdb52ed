package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// LedgerSchemaVersion stamps every ledger record so future readers can
// evolve the format without guessing.
const LedgerSchemaVersion = 1

// LedgerRecord is one line of the run ledger: the terminal disposition of
// one job. Records are observational only — nothing reads them back into
// the execution path — so the ledger can be deleted or rotated at any time
// without affecting results.
type LedgerRecord struct {
	Schema int `json:"schema"`
	// Time is the terminal-transition instant, RFC3339Nano UTC.
	Time        string `json:"time"`
	ID          string `json:"id"`
	ContentHash string `json:"content_hash"`
	Engine      string `json:"engine"`
	// Backend is the sparse factor the Monte Carlo's circuit solves ran on:
	// "sparse" (scalar, below 2048 free nodes) or "supernodal". Empty when
	// unknown: dedup answers, steady-only jobs, sharded merges and failed
	// runs.
	Backend string `json:"backend,omitempty"`
	// Outcome is the terminal state: done, failed or deadline_exceeded.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Dedup reports how a duplicate submission was answered
	// ("result-cache"); empty for an executed job. In-flight attaches never
	// produce a record — they have no job of their own.
	Dedup       string `json:"dedup,omitempty"`
	Attempts    int    `json:"attempts"`
	Retries     int    `json:"retries"`
	TrialsDone  int64  `json:"trials_done"`
	TrialsTotal int64  `json:"trials_total"`
	// QueueWaitSeconds and WallSeconds are admission-to-start and
	// admission-to-terminal wall clock. StageSeconds sums each recorded
	// timeline stage (a retried job accumulates multiple spans per stage).
	QueueWaitSeconds float64            `json:"queue_wait_seconds"`
	WallSeconds      float64            `json:"wall_seconds"`
	StageSeconds     map[string]float64 `json:"stage_seconds,omitempty"`
	// Shards, ShardsReissued and MergeSeconds describe sharded dispatch:
	// how many trial-range shards the job split into, how many dispatches
	// were re-issued after worker failures or timeouts, and the wall time
	// of the partial-manifest merge. All zero (and omitted) for unsharded
	// jobs.
	Shards         int     `json:"shards,omitempty"`
	ShardsReissued int     `json:"shards_reissued,omitempty"`
	MergeSeconds   float64 `json:"merge_seconds,omitempty"`
}

// Ledger appends job records to a JSONL file. A nil *Ledger is a valid
// no-op, so the server records unconditionally.
//
// Appends are rotation-safe: each record opens the file O_APPEND, writes one
// complete line and closes it, so an external rotation (rename + recreate,
// or plain deletion) between records loses nothing and never corrupts a
// line. The mutex serializes writers within the process; O_APPEND keeps
// single-line writes atomic with respect to other processes.
type Ledger struct {
	mu   sync.Mutex
	path string
}

// NewLedger returns a ledger appending to path ("" returns nil — no-op).
func NewLedger(path string) *Ledger {
	if path == "" {
		return nil
	}
	return &Ledger{path: path}
}

// Path returns the ledger file path ("" on nil).
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append writes one record as a single JSONL line.
func (l *Ledger) Append(rec *LedgerRecord) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: ledger encode: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if dir := filepath.Dir(l.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("serve: ledger dir: %w", err)
		}
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("serve: ledger open: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("serve: ledger write: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: ledger close: %w", err)
	}
	return nil
}

// ReadLedger parses a ledger file, skipping blank lines. A truncated or
// corrupt trailing line (a crash mid-write under pathological conditions)
// is returned as a count of skipped lines rather than an error, mirroring
// the result cache's corruption-is-a-miss policy.
func ReadLedger(path string) (records []LedgerRecord, skipped int, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	for _, line := range splitLines(buf) {
		if len(line) == 0 {
			continue
		}
		var rec LedgerRecord
		if json.Unmarshal(line, &rec) != nil {
			skipped++
			continue
		}
		records = append(records, rec)
	}
	return records, skipped, nil
}

func splitLines(buf []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range buf {
		if b == '\n' {
			out = append(out, buf[start:i])
			start = i + 1
		}
	}
	if start < len(buf) {
		out = append(out, buf[start:])
	}
	return out
}
