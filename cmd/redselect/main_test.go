package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestParseSpecRejectsUnusableValues feeds parseSpec each generator
// value that used to panic in gen.Spec.Generate, malformed specs, and
// valid ones with their defaults.
func TestParseSpecRejectsUnusableValues(t *testing.T) {
	cases := []struct {
		spec string
		want gen.Spec // the parsed spec when accepted
		err  string   // "" means accepted
	}{
		{spec: "n=100000,k=1e6,dr=32", want: gen.Spec{N: 100000, Cond: 1e6, DynRange: 32, Seed: 1}},
		{spec: "n=2", want: gen.Spec{N: 2, Cond: 1, Seed: 1}},
		{spec: "k=inf,dr=1000,seed=7", want: gen.Spec{N: 1000, Cond: math.Inf(1), DynRange: 1000, Seed: 7}},
		{spec: "n=1", err: "n = 1"},
		{spec: "n=0", err: "n = 0"},
		{spec: "n=10,k=0.5", err: "k = 0.5"},
		{spec: "n=10,k=NaN", err: "k = NaN"},
		{spec: "n=10,dr=-3", err: "dr = -3"},
		{spec: "n=10,dr=5000", err: "exponents 0..5000"},
		{spec: "n", err: "bad spec fragment"},
		{spec: "m=3", err: "unknown spec key"},
		{spec: "n=ten", err: "invalid syntax"},
	}
	for _, c := range cases {
		got, err := parseSpec(c.spec)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("parseSpec(%q) = %v, want accepted", c.spec, err)
		case c.err == "" && got != c.want:
			t.Errorf("parseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("parseSpec(%q) = %v, want an error naming %q", c.spec, err, c.err)
		}
	}
}
