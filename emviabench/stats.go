package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"emvia/internal/mc"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// digest fingerprints a Monte-Carlo result: every trial TTF and every
// failure event, bit for bit, in trial order.
func digest(res *mc.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for t, ttf := range res.TTF {
		put(math.Float64bits(ttf))
		put(uint64(len(res.Events[t])))
		for i, ev := range res.Events[t] {
			put(math.Float64bits(ev))
			put(uint64(res.EventComps[t][i]))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// failureStats returns the failure events of a result, and how many of them
// hit a component that had already failed in an earlier trial of the same
// run — the hit rate a cross-trial cache of per-via corrections could reach.
func failureStats(res *mc.Result) (events, repeats int) {
	seen := map[int]bool{}
	for _, comps := range res.EventComps {
		for _, c := range comps {
			if seen[c] {
				repeats++
			}
		}
		for _, c := range comps {
			seen[c] = true
		}
		events += len(comps)
	}
	return events, repeats
}

// peakRSSMB reads the peak resident set (VmHWM) of a process from /proc;
// pid "self" names this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// repeatFor calls rep until the phase has lasted d, and at least atLeast
// times.
func repeatFor(d time.Duration, atLeast int, rep func(i int) error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < d; i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}
