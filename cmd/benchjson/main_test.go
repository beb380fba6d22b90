package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestParseFoldsRepeatedLines feeds the output of `go test -count 3`
// and checks that each benchmark becomes one entry at its first line's
// place, with the median of each value and the runs summed.
func TestParseFoldsRepeatedLines(t *testing.T) {
	const in = `goos: linux
pkg: repro/internal/selector
BenchmarkA/n=10-2   	     100	      30.0 ns/op	 800.0 MB/s	      16 B/op	       1 allocs/op
BenchmarkB-2        	      10	     500 ns/op
BenchmarkA/n=10-2   	     200	      10.0 ns/op	 900.0 MB/s	      48 B/op	       3 allocs/op
BenchmarkB-2        	      20	     700 ns/op	       0.5 hit-rate
BenchmarkA/n=10-2   	     300	      20.0 ns/op	 100.0 MB/s	      32 B/op	       2 allocs/op
BenchmarkB          	       5	     900 ns/op
PASS
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d entries, want 3 (A, B at 2 procs, B at 1): %+v", len(rep.Results), rep.Results)
	}
	a, b2, b1 := rep.Results[0], rep.Results[1], rep.Results[2]
	if a.Name != "BenchmarkA/n=10" || a.Procs != 2 || a.Runs != 600 || a.NsPerOp != 20 ||
		a.BytesPerOp != 32 || a.AllocsPerOp != 2 || a.Extra["MB/s"] != 800 {
		t.Errorf("A folded to %+v, want runs 600, 20 ns/op, 32 B/op, 2 allocs/op, 800 MB/s", a)
	}
	// Two lines: the median is their mean; a metric only one line
	// reports keeps that line's value.
	if b2.Name != "BenchmarkB" || b2.Procs != 2 || b2.Runs != 30 || b2.NsPerOp != 600 || b2.Extra["hit-rate"] != 0.5 {
		t.Errorf("B-2 folded to %+v, want runs 30, 600 ns/op, hit-rate 0.5", b2)
	}
	if b1.Procs != 1 || b1.Runs != 5 || b1.NsPerOp != 900 || b1.Extra != nil {
		t.Errorf("B at 1 proc is %+v, want its own line", b1)
	}
}
