// Command redselect profiles a stream of floating-point values and
// recommends the cheapest reduction algorithm meeting a reproducibility
// tolerance — the paper's intelligent runtime as a CLI.
//
// Values are read one per line from stdin (or from a generator spec):
//
//	seq 1 1000 | redselect -t 1e-12
//	redselect -t 1e-13 -gen "n=100000,k=1e6,dr=32"
//
// Output: the measured profile, the chosen algorithm, and the sum
// computed with it (plus the exact sum for comparison).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/gen"
	"repro/internal/selector"
	"repro/internal/superacc"
)

func main() {
	tol := flag.Float64("t", 1e-12, "tolerated relative run-to-run variability (0 = bitwise)")
	genSpec := flag.String("gen", "", `generate input instead of reading stdin: "n=...,k=...,dr=...[,seed=...]"`)
	flag.Parse()

	var xs []float64
	var err error
	if *genSpec != "" {
		spec, err := parseSpec(*genSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "redselect:", err)
			os.Exit(2)
		}
		xs = spec.Generate()
	} else {
		xs, err = readValues(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "redselect:", err)
		os.Exit(1)
	}
	if len(xs) == 0 {
		fmt.Fprintln(os.Stderr, "redselect: no input values")
		os.Exit(1)
	}

	rt := repro.New(*tol, repro.WithPolicy(selector.NewHeuristicPolicy()))
	exact := superacc.Sum(xs)
	total, rep := rt.Sum(xs)
	fmt.Println(rep)
	if rep.PRConfig != nil {
		fmt.Printf("tuned PR config: W=%d F=%d\n", rep.PRConfig.W, rep.PRConfig.F)
	}
	fmt.Printf("sum        = %.17g\n", total)
	fmt.Printf("exact sum  = %.17g\n", exact)
	fmt.Printf("abs error  = %.3g\n", abs(total-exact))
}

func readValues(f *os.File) ([]float64, error) {
	var xs []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", line, err)
		}
		xs = append(xs, v)
	}
	return xs, sc.Err()
}

// parseSpec parses a -gen spec and rejects one the generator cannot
// build (gen.Spec.Validate), so main never reaches Generate's panic.
func parseSpec(spec string) (gen.Spec, error) {
	s := gen.Spec{N: 1000, Cond: 1, Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return s, fmt.Errorf("bad spec fragment %q", part)
		}
		switch kv[0] {
		case "n":
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return s, err
			}
			s.N = n
		case "k":
			if kv[1] == "inf" {
				s.Cond = math.Inf(1)
				break
			}
			k, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return s, err
			}
			s.Cond = k
		case "dr":
			dr, err := strconv.Atoi(kv[1])
			if err != nil {
				return s, err
			}
			s.DynRange = dr
		case "seed":
			seed, err := strconv.ParseUint(kv[1], 10, 64)
			if err != nil {
				return s, err
			}
			s.Seed = seed
		default:
			return s, fmt.Errorf("unknown spec key %q", kv[0])
		}
	}
	return s, s.Validate()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
