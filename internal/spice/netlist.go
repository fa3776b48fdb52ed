// Package spice implements the subset of SPICE needed for power-grid
// analysis: netlists of resistors, independent current sources (loads) and
// ground-referenced voltage sources (pads), in the dialect of the IBM power
// grid benchmarks [Nassif, ASP-DAC'08], plus a DC operating-point solver
// based on nodal analysis and sparse Cholesky factorization.
package spice

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Resistor is a two-terminal resistance in ohms.
type Resistor struct {
	Name string
	A, B string
	Ohms float64
}

// CurrentSource drives a constant current (amps) from node A to node B
// through the source; a load is written `iX node 0 value`, pulling current
// out of the grid node into ground.
type CurrentSource struct {
	Name string
	A, B string
	Amps float64
}

// VoltageSource fixes node Node at Volts relative to ground. The benchmark
// dialect only uses ground-referenced sources (pad connections), which keeps
// nodal analysis symmetric positive-definite.
type VoltageSource struct {
	Name  string
	Node  string
	Volts float64
}

// Netlist is a parsed SPICE deck.
type Netlist struct {
	Title     string
	Resistors []Resistor
	Currents  []CurrentSource
	Voltages  []VoltageSource
}

// IsGround reports whether a node name denotes the ground node ("0", "gnd"
// or "GND"). A string switch instead of a map lookup: this predicate runs
// once per terminal of every element on each compile, where hashing the node
// name was a measurable slice of the compile cost.
func IsGround(name string) bool {
	switch name {
	case "0", "gnd", "GND":
		return true
	}
	return false
}

// Parse reads a SPICE deck. Supported cards: R/I/V elements, `*` comments,
// `.op` and `.end` directives (ignored), blank lines. Names and directives
// are case-insensitive; node names are case-sensitive except for ground.
func Parse(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if strings.HasPrefix(line, ".") {
			d := strings.ToLower(strings.Fields(line)[0])
			switch d {
			case ".op", ".end", ".title":
				continue
			default:
				return nil, fmt.Errorf("spice: line %d: unsupported directive %q", lineNo, d)
			}
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("spice: line %d: element card needs 4 fields, got %d", lineNo, len(f))
		}
		val, err := ParseValue(f[3])
		if err != nil {
			return nil, fmt.Errorf("spice: line %d: %w", lineNo, err)
		}
		switch strings.ToLower(line[:1]) {
		case "r":
			if val <= 0 {
				return nil, fmt.Errorf("spice: line %d: resistor %s has non-positive value %g", lineNo, f[0], val)
			}
			nl.Resistors = append(nl.Resistors, Resistor{Name: f[0], A: f[1], B: f[2], Ohms: val})
		case "i":
			nl.Currents = append(nl.Currents, CurrentSource{Name: f[0], A: f[1], B: f[2], Amps: val})
		case "v":
			a, b := f[1], f[2]
			switch {
			case IsGround(b):
				nl.Voltages = append(nl.Voltages, VoltageSource{Name: f[0], Node: a, Volts: val})
			case IsGround(a):
				nl.Voltages = append(nl.Voltages, VoltageSource{Name: f[0], Node: b, Volts: -val})
			default:
				return nil, fmt.Errorf("spice: line %d: voltage source %s must have a ground terminal", lineNo, f[0])
			}
		default:
			return nil, fmt.Errorf("spice: line %d: unsupported element %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spice: reading deck: %w", err)
	}
	return nl, nil
}

// Write emits the netlist in the benchmark dialect, terminated by `.op` and
// `.end`.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if nl.Title != "" {
		fmt.Fprintf(bw, "* %s\n", nl.Title)
	}
	for _, r := range nl.Resistors {
		fmt.Fprintf(bw, "%s %s %s %.9g\n", r.Name, r.A, r.B, r.Ohms)
	}
	for _, v := range nl.Voltages {
		fmt.Fprintf(bw, "%s %s 0 %.9g\n", v.Name, v.Node, v.Volts)
	}
	for _, c := range nl.Currents {
		fmt.Fprintf(bw, "%s %s %s %.9g\n", c.Name, c.A, c.B, c.Amps)
	}
	fmt.Fprintln(bw, ".op")
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// Nodes returns all non-ground node names in sorted order.
func (nl *Netlist) Nodes() []string {
	set := make(map[string]bool, 2*len(nl.Resistors))
	add := func(n string) {
		if !IsGround(n) {
			set[n] = true
		}
	}
	for _, r := range nl.Resistors {
		add(r.A)
		add(r.B)
	}
	for _, c := range nl.Currents {
		add(c.A)
		add(c.B)
	}
	for _, v := range nl.Voltages {
		add(v.Node)
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseValue parses a SPICE number with an optional scale suffix
// (f p n u m k meg g t, case-insensitive; "m" is milli, "meg" is mega).
// Values that are not finite after scaling (nan, inf, overflow) are
// rejected.
func ParseValue(s string) (float64, error) {
	low := strings.ToLower(s)
	mult := 1.0
	num := low
	switch {
	case strings.HasSuffix(low, "meg"):
		mult, num = 1e6, low[:len(low)-3]
	case strings.HasSuffix(low, "f"):
		mult, num = 1e-15, low[:len(low)-1]
	case strings.HasSuffix(low, "p"):
		mult, num = 1e-12, low[:len(low)-1]
	case strings.HasSuffix(low, "n"):
		mult, num = 1e-9, low[:len(low)-1]
	case strings.HasSuffix(low, "u"):
		mult, num = 1e-6, low[:len(low)-1]
	case strings.HasSuffix(low, "m"):
		mult, num = 1e-3, low[:len(low)-1]
	case strings.HasSuffix(low, "k"):
		mult, num = 1e3, low[:len(low)-1]
	case strings.HasSuffix(low, "g"):
		mult, num = 1e9, low[:len(low)-1]
	case strings.HasSuffix(low, "t"):
		mult, num = 1e12, low[:len(low)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("spice: bad numeric value %q", s)
	}
	v *= mult
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("spice: numeric value %q is not finite", s)
	}
	return v, nil
}
