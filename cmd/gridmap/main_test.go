package main

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestCheckFlagsRejectsUnusableValues feeds checkFlags each value that
// used to panic mid-sweep or print a map over 0 trees, and the
// smallest valid ones.
func TestCheckFlagsRejectsUnusableValues(t *testing.T) {
	ks := []float64{1, 1e4}
	drs := []int{0, 16}
	ns := []int{256, 1024}
	cases := []struct {
		name   string
		cells  []grid.CellSpec
		trials int
		want   string // "" means accepted
	}{
		{"kdr", grid.KDRGrid(4096, ks, drs), 50, ""},
		{"kdr n=2 trials=1", grid.KDRGrid(2, ks, drs), 1, ""},
		{"kdr -n 1", grid.KDRGrid(1, ks, drs), 50, "n = 1"},
		{"kdr -n 0", grid.KDRGrid(0, ks, drs), 50, "n = 0"},
		{"ndr -k 0.5", grid.NDRGrid(ns, 0.5, drs), 50, "k = 0.5"},
		{"nk -dr -3", grid.NKGrid(ns, ks, -3), 50, "dr = -3"},
		{"nk -dr 5000", grid.NKGrid(ns, ks, 5000), 50, "exponents 0..5000"},
		{"kdr -trials 0", grid.KDRGrid(4096, ks, drs), 0, "-trials 0"},
		{"kdr -trials -2", grid.KDRGrid(4096, ks, drs), -2, "-trials -2"},
	}
	for _, c := range cases {
		err := checkFlags(c.cells, c.trials)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: checkFlags = %v, want accepted", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: checkFlags = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
