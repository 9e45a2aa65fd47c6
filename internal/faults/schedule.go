package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Schedule is a parsed fault schedule: the union of every clause in a
// schedule string. The zero value injects nothing.
type Schedule struct {
	Crashes []Crash
	Drops   []Drop
	Delays  []Delay
	Dups    []Dup
	Slows   []Slow
	Parts   []Part
}

// Crash kills one rank when its executed-cycle counter reaches Cycle.
type Crash struct {
	Rank  int
	Cycle int
}

// Drop discards each packet with probability Prob inside [FromMs, ToMs).
type Drop struct {
	Prob         float64
	FromMs, ToMs float64
}

// Delay holds each selected packet for Ms inside [FromMs, ToMs).
type Delay struct {
	Prob         float64
	Ms           float64
	FromMs, ToMs float64
}

// Dup delivers each selected packet twice.
type Dup struct {
	Prob float64
}

// Slow multiplies rank's compute time by Factor for cycles in
// [FromCycle, ToCycle).
type Slow struct {
	Rank               int
	Factor             float64
	FromCycle, ToCycle int
}

// Part cuts the rank space in two — ranks < Cut versus ranks >= Cut — and
// drops every packet crossing the cut during [FromMs, ToMs); the link heals
// at ToMs.
type Part struct {
	Cut          int
	FromMs, ToMs float64
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool {
	return len(s.Crashes) == 0 && len(s.Drops) == 0 && len(s.Delays) == 0 &&
		len(s.Dups) == 0 && len(s.Slows) == 0 && len(s.Parts) == 0
}

// Parse reads a fault schedule string: semicolon-separated clauses of
//
//	crash:RANK@CYCLE          kill RANK at executed cycle CYCLE
//	drop:PROB[@FROM-TO]       drop packets with probability PROB (ms window)
//	delay:PROB,MS[@FROM-TO]   delay selected packets by MS milliseconds
//	dup:PROB                  duplicate selected packets
//	slow:RANK,FACTOR[@FROM-TO]  multiply RANK's compute time (cycle window)
//	part:CUT@FROM-TO          partition ranks <CUT from >=CUT (ms window)
//
// Omitted windows mean "always". Whitespace around clauses is ignored; an
// empty string parses to the empty schedule.
func Parse(s string) (Schedule, error) {
	var out Schedule
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Schedule{}, fmt.Errorf("faults: clause %q lacks ':'", clause)
		}
		body, window, hasWindow := strings.Cut(rest, "@")
		var err error
		switch kind {
		case "crash":
			if !hasWindow {
				return Schedule{}, fmt.Errorf("faults: crash clause %q needs @CYCLE", clause)
			}
			var c Crash
			if c.Rank, err = parseInt(body); err == nil {
				c.Cycle, err = parseInt(window)
			}
			if err != nil || c.Rank < 0 || c.Cycle < 0 {
				return Schedule{}, fmt.Errorf("faults: bad crash clause %q", clause)
			}
			out.Crashes = append(out.Crashes, c)
		case "drop":
			d := Drop{ToMs: math.MaxFloat64}
			if d.Prob, err = parseProb(body); err != nil {
				return Schedule{}, fmt.Errorf("faults: bad drop clause %q: %v", clause, err)
			}
			if hasWindow {
				if d.FromMs, d.ToMs, err = parseWindowF(window); err != nil {
					return Schedule{}, fmt.Errorf("faults: bad drop window %q", clause)
				}
			}
			out.Drops = append(out.Drops, d)
		case "delay":
			d := Delay{ToMs: math.MaxFloat64}
			prob, ms, ok := strings.Cut(body, ",")
			if !ok {
				return Schedule{}, fmt.Errorf("faults: delay clause %q needs PROB,MS", clause)
			}
			if d.Prob, err = parseProb(prob); err == nil {
				d.Ms, err = parseFloat(ms)
			}
			if err != nil || d.Ms < 0 {
				return Schedule{}, fmt.Errorf("faults: bad delay clause %q", clause)
			}
			if hasWindow {
				if d.FromMs, d.ToMs, err = parseWindowF(window); err != nil {
					return Schedule{}, fmt.Errorf("faults: bad delay window %q", clause)
				}
			}
			out.Delays = append(out.Delays, d)
		case "dup":
			var d Dup
			if d.Prob, err = parseProb(body); err != nil {
				return Schedule{}, fmt.Errorf("faults: bad dup clause %q: %v", clause, err)
			}
			out.Dups = append(out.Dups, d)
		case "slow":
			sl := Slow{ToCycle: math.MaxInt32}
			rank, factor, ok := strings.Cut(body, ",")
			if !ok {
				return Schedule{}, fmt.Errorf("faults: slow clause %q needs RANK,FACTOR", clause)
			}
			if sl.Rank, err = parseInt(rank); err == nil {
				sl.Factor, err = parseFloat(factor)
			}
			if err != nil || sl.Rank < 0 || sl.Factor < 1 {
				return Schedule{}, fmt.Errorf("faults: bad slow clause %q", clause)
			}
			if hasWindow {
				var from, to int
				if from, to, err = parseWindowI(window); err != nil {
					return Schedule{}, fmt.Errorf("faults: bad slow window %q", clause)
				}
				sl.FromCycle, sl.ToCycle = from, to
			}
			out.Slows = append(out.Slows, sl)
		case "part":
			if !hasWindow {
				return Schedule{}, fmt.Errorf("faults: part clause %q needs @FROM-TO", clause)
			}
			var p Part
			if p.Cut, err = parseInt(body); err == nil {
				p.FromMs, p.ToMs, err = parseWindowF(window)
			}
			if err != nil || p.Cut <= 0 {
				return Schedule{}, fmt.Errorf("faults: bad part clause %q", clause)
			}
			out.Parts = append(out.Parts, p)
		default:
			return Schedule{}, fmt.Errorf("faults: unknown clause kind %q", kind)
		}
	}
	return out, nil
}

// MustParse is Parse that panics on error, for fixed test schedules.
func MustParse(s string) Schedule {
	sched, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sched
}

// String renders the schedule back into the Parse grammar.
func (s Schedule) String() string {
	var parts []string
	for _, c := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash:%d@%d", c.Rank, c.Cycle))
	}
	for _, d := range s.Drops {
		parts = append(parts, "drop:"+formatF(d.Prob)+formatWindowF(d.FromMs, d.ToMs))
	}
	for _, d := range s.Delays {
		parts = append(parts, "delay:"+formatF(d.Prob)+","+formatF(d.Ms)+formatWindowF(d.FromMs, d.ToMs))
	}
	for _, d := range s.Dups {
		parts = append(parts, "dup:"+formatF(d.Prob))
	}
	for _, sl := range s.Slows {
		w := ""
		if sl.FromCycle != 0 || sl.ToCycle != math.MaxInt32 {
			w = fmt.Sprintf("@%d-%d", sl.FromCycle, sl.ToCycle)
		}
		parts = append(parts, fmt.Sprintf("slow:%d,%s%s", sl.Rank, formatF(sl.Factor), w))
	}
	for _, p := range s.Parts {
		parts = append(parts, fmt.Sprintf("part:%d@%s-%s", p.Cut, formatF(p.FromMs), formatF(p.ToMs)))
	}
	return strings.Join(parts, ";")
}

func parseInt(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }

func parseFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func parseProb(s string) (float64, error) {
	v, err := parseFloat(s)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", v)
	}
	return v, nil
}

func parseWindowF(s string) (from, to float64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q lacks '-'", s)
	}
	if from, err = parseFloat(a); err != nil {
		return 0, 0, err
	}
	if to, err = parseFloat(b); err != nil {
		return 0, 0, err
	}
	if from < 0 || to < from {
		return 0, 0, fmt.Errorf("window %q out of order", s)
	}
	return from, to, nil
}

func parseWindowI(s string) (from, to int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q lacks '-'", s)
	}
	if from, err = parseInt(a); err != nil {
		return 0, 0, err
	}
	if to, err = parseInt(b); err != nil {
		return 0, 0, err
	}
	if from < 0 || to < from {
		return 0, 0, fmt.Errorf("window %q out of order", s)
	}
	return from, to, nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatWindowF(from, to float64) string {
	if from == 0 && to == math.MaxFloat64 {
		return ""
	}
	return "@" + formatF(from) + "-" + formatF(to)
}
