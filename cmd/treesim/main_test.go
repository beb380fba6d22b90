package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestCheckFlagsRejectsUnusableValues feeds checkFlags each value that
// used to panic or print a table of zeros, and the smallest valid ones.
func TestCheckFlagsRejectsUnusableValues(t *testing.T) {
	inf := math.Inf(1)
	ok := gen.Spec{N: 8192, Cond: inf, DynRange: 32}
	cases := []struct {
		spec         gen.Spec
		ranks, trees int
		want         string // "" means accepted
	}{
		{ok, 64, 100, ""},
		{gen.Spec{N: 2, Cond: 1}, 1, 1, ""},
		{gen.Spec{N: 0, Cond: inf, DynRange: 32}, 64, 100, "n = 0"},
		{gen.Spec{N: 1, Cond: inf, DynRange: 32}, 64, 100, "n = 1"},
		{gen.Spec{N: 8192, Cond: 0, DynRange: 32}, 64, 100, "k = 0"},
		{gen.Spec{N: 8192, Cond: math.NaN(), DynRange: 32}, 64, 100, "k = NaN"},
		{gen.Spec{N: 8192, Cond: inf, DynRange: -5}, 64, 100, "dr = -5"},
		{gen.Spec{N: 8192, Cond: inf, DynRange: 5000}, 64, 100, "exponents 0..5000"},
		{ok, 0, 100, "-ranks 0"},
		{ok, -3, 100, "-ranks -3"},
		{ok, 64, 0, "-trees 0"},
		{ok, 64, -1, "-trees -1"},
	}
	for _, c := range cases {
		err := checkFlags(c.spec, c.ranks, c.trees)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("checkFlags(%v, %d, %d) = %v, want accepted", c.spec, c.ranks, c.trees, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("checkFlags(%v, %d, %d) = %v, want an error naming %q", c.spec, c.ranks, c.trees, err, c.want)
		}
	}
}
