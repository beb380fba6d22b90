package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/mpirt"
	"repro/internal/reduce"
	"repro/internal/sum"
	"repro/internal/wire"
)

// collective-sim: mpirt worlds in ArrivalOrder mode with no jitter. The
// op kinds alternate: ReduceSum over collRanks ranks × collLocal local
// elements, and VectorReduce over vecRanks ranks × vecLen elements, each
// cycling through every mpirt topology, with consecutive pairs of ops
// alternating between the BN and ST operators. There is no TCP and no
// profile pass; BN against ST separates merge cost (a BN state is a
// 68-bin array, an ST state one float64) from messaging cost.

const (
	collRanks = 128
	collLocal = 32
	vecRanks  = 16
	vecLen    = 64
)

// collWindowEpochs is how many epochs make one measurement window: 336
// ops, about 0.4 s.
const collWindowEpochs = 2

// collCombos is the number of (kind, operator, topology) triples; an
// epoch runs each on every input cell once.
var collCombos = 2 * 2 * len(mpirt.Topologies)

type collOp struct {
	vector bool
	bn     bool
	topo   mpirt.Topology
	cell   int
}

type collBench struct {
	cfg   config
	sums  [][][]float64 // [cell][rank] local elements of a ReduceSum
	sumOr []oracle      // [cell]
	vecs  [][][]float64 // [cell][rank] local vector of a VectorReduce
	vecOr [][]oracle    // [cell][element], across ranks
	epoch []collOp
	// opIndex numbers every op of the run, for planting.
	opIndex int64
}

func newCollBench(cfg config) *collBench {
	b := &collBench{cfg: cfg}
	for ci, c := range localCells {
		xs := gen.Spec{N: collRanks * collLocal, Cond: c.k, DynRange: c.dr, Seed: mix(cfg.seed, 3000+ci)}.Generate()
		parts := make([][]float64, collRanks)
		for r := range parts {
			parts[r] = xs[r*collLocal : (r+1)*collLocal]
		}
		b.sums = append(b.sums, parts)
		b.sumOr = append(b.sumOr, newOracle(xs))

		vec := make([][]float64, vecRanks)
		for r := range vec {
			vec[r] = make([]float64, vecLen)
		}
		ors := make([]oracle, vecLen)
		for e := 0; e < vecLen; e++ {
			col := gen.Spec{N: vecRanks, Cond: c.k, DynRange: c.dr, Seed: mix(cfg.seed, 4000+ci*vecLen+e)}.Generate()
			for r, x := range col {
				vec[r][e] = x
			}
			ors[e] = newOracle(col)
		}
		b.vecs = append(b.vecs, vec)
		b.vecOr = append(b.vecOr, ors)
	}
	for i := 0; i < collCombos*len(localCells); i++ {
		b.epoch = append(b.epoch, collOp{
			vector: i%2 == 1,
			bn:     (i/2)%2 == 0,
			topo:   mpirt.Topologies[(i/4)%len(mpirt.Topologies)],
			cell:   i / collCombos,
		})
	}
	return b
}

// countingOp is a reduce.Op that counts its merges; it wraps the
// operators of the traced run only.
type countingOp struct {
	reduce.Op
	merges *atomic.Int64
}

func (c countingOp) Merge(a, b reduce.State) reduce.State {
	c.merges.Add(1)
	return c.Op.Merge(a, b)
}

type collRig struct {
	sumWorld, vecWorld *mpirt.World
	bn, st             reduce.Op
}

func (rig *collRig) op(o collOp) reduce.Op {
	if o.bn {
		return rig.bn
	}
	return rig.st
}

// setup builds both worlds and the operators and warms up with one
// epoch: every (kind, operator, topology) triple on every input cell.
func (b *collBench) setup() (*collRig, error) {
	rig := &collRig{
		sumWorld: mpirt.NewWorld(collRanks, mpirt.Config{}),
		vecWorld: mpirt.NewWorld(vecRanks, mpirt.Config{}),
		bn:       sum.BinnedAlg.Op(),
		st:       sum.StandardAlg.Op(),
	}
	for _, o := range b.epoch {
		if _, err := b.run(rig, o, rig.op(o)); err != nil {
			return nil, err
		}
	}
	return rig, nil
}

// run executes one op through the public collectives and returns the
// root's answer: one sum, or one value per vector element.
func (b *collBench) run(rig *collRig, o collOp, op reduce.Op) ([]float64, error) {
	var out []float64
	var err error
	if o.vector {
		vec := b.vecs[o.cell]
		err = rig.vecWorld.Run(func(r *mpirt.Rank) {
			if v, ok := r.VectorReduce(0, vec[r.ID], op, o.topo, mpirt.ArrivalOrder, 0); ok {
				out = v
			}
		})
	} else {
		parts := b.sums[o.cell]
		err = rig.sumWorld.Run(func(r *mpirt.Rank) {
			if v, ok := r.ReduceSum(0, parts[r.ID], op, o.topo, mpirt.ArrivalOrder); ok {
				out = []float64{v}
			}
		})
	}
	if err == nil && out == nil {
		err = fmt.Errorf("%v returned no result at the root", o.topo)
	}
	return out, err
}

// record checks one op's answer and counts it.
func (b *collBench) record(st *phase, o collOp, out []float64, err error, d int64) {
	st.ops++
	st.opNs += d
	b.opIndex++
	if err != nil {
		st.failed++
		return
	}
	out[0] = b.cfg.plant(out[0], b.opIndex)
	ok := true
	if o.vector {
		st.elems += vecRanks * vecLen
		for e, v := range out {
			ok = ok && b.vecOr[o.cell][e].check(v, o.bn)
		}
	} else {
		st.elems += collRanks * collLocal
		ok = b.sumOr[o.cell].check(out[0], o.bn)
	}
	if !ok {
		st.failed++
	}
}

func (b *collBench) untracedEpoch(rig *collRig, st *phase) {
	for _, o := range b.epoch {
		t0 := now()
		out, err := b.run(rig, o, rig.op(o))
		d := now() - t0
		st.lat = append(st.lat, d)
		b.record(st, o, out, err, d)
	}
}

// Span names of the traced collective-sim run.
const (
	csOp = iota
	csLocal
	csGlobal
	csVector
	csSpawn
)

// collTrace holds the traced run's counters beside its spans.
type collTrace struct {
	tr                      *tracer
	merges                  atomic.Int64
	globalBytes             int64 // state bytes absorbed by global-phase merges
	sumOps, sumOpNs         int64 // ReduceSum ops and their traced time
	modelGlobal, modelTotal float64
	bn, st                  reduce.Op
}

// tracedEpoch runs one epoch with spans. A ReduceSum is split into the
// phases ReduceSum composes: mpirt.LocalState for every rank's elements
// (run here, one rank after another), then a world Run in which every
// rank calls Rank.Reduce on its prebuilt state and the root finalizes.
// A VectorReduce is one span. After each op a probe times NewWorld plus
// an empty Run of the same size.
func (b *collBench) tracedEpoch(rig *collRig, st *phase, ct *collTrace) {
	tr := ct.tr
	machine := mpirt.DefaultMachine()
	states := make([]reduce.State, collRanks)
	for _, o := range b.epoch {
		op, stateBytes := ct.st, int64(8)
		if o.bn {
			op, stateBytes = ct.bn, int64(wire.EncodedSize(wire.KindBinned))
		}
		m0 := ct.merges.Load()
		var out []float64
		var err error
		size := collRanks
		tr.begin(csOp)
		if o.vector {
			size = vecRanks
			tr.begin(csVector)
			out, err = b.run(rig, o, op)
			tr.end()
		} else {
			parts := b.sums[o.cell]
			tr.begin(csLocal)
			for r := range states {
				states[r] = mpirt.LocalState(op, parts[r])
			}
			tr.end()
			m0 = ct.merges.Load()
			tr.begin(csGlobal)
			err = rig.sumWorld.Run(func(r *mpirt.Rank) {
				if s := r.Reduce(0, states[r.ID], op, o.topo, mpirt.ArrivalOrder); s != nil {
					out = []float64{op.Finalize(s)}
				}
			})
			tr.end()
			if err == nil && out == nil {
				err = fmt.Errorf("%v returned no state at the root", o.topo)
			}
		}
		d := tr.end()
		ct.globalBytes += (ct.merges.Load() - m0) * stateBytes
		if !o.vector {
			ct.sumOps++
			ct.sumOpNs += d
			g := machine.CollectiveTime(o.topo, collRanks, 1, 0, nil)
			ct.modelGlobal += g
			ct.modelTotal += g + float64(collLocal-1)*machine.MergeCost
		}
		b.record(st, o, out, err, d)
		tr.begin(csSpawn)
		err = mpirt.NewWorld(size, mpirt.Config{}).Run(func(*mpirt.Rank) {})
		tr.end()
		if err != nil {
			st.failed++
		}
	}
}

func runCollective(cfg config) (report, error) {
	b := newCollBench(cfg)
	rig, setupS, err := timedSetups(b.setup, func(*collRig) {})
	if err != nil {
		return report{}, err
	}
	var rep report
	rep.set("setup_s", setupS)
	if !cfg.trace {
		// One window per collWindowEpochs epochs, enough ops for a p99.
		var ws []phase
		a0 := totalAlloc()
		deadline := now() + int64(cfg.seconds*1e9)
		for len(ws) == 0 || now() < deadline {
			w := phase{lat: make([]int64, 0, collWindowEpochs*len(b.epoch))}
			t0 := now()
			for i := 0; i < collWindowEpochs; i++ {
				b.untracedEpoch(rig, &w)
			}
			w.wall = now() - t0
			ws = append(ws, w)
		}
		rep.attempted, rep.failed = sumPhases(ws)
		rep.setAlloc(totalAlloc()-a0, ws)
		rep.setWindows(ws)
		return rep, nil
	}

	// Traced run: untraced and traced epochs alternate, so both run the
	// same op multiset under the same host conditions.
	ct := &collTrace{tr: newTracer("op", "mpirt.local", "mpirt.global", "mpirt.vector", "mpirt.world.spawn")}
	ct.bn = countingOp{Op: rig.bn, merges: &ct.merges}
	ct.st = countingOp{Op: rig.st, merges: &ct.merges}
	var plain, traced phase
	deadline := now() + int64(cfg.seconds*1e9)
	epochs := 0
	for epochs == 0 || now() < deadline {
		b.untracedEpoch(rig, &plain)
		b.tracedEpoch(rig, &traced, ct)
		epochs++
	}
	tr := ct.tr
	tr.write(cfg.traceOut)
	rep.attempted = plain.ops + traced.ops
	rep.failed = plain.failed + traced.failed
	sumElems := float64(ct.sumOps * collRanks * collLocal)
	rep.set("mpirt.world.spawn_us", tr.perCall(csSpawn)/1e3)
	rep.set("mpirt.local.ns_per_elem", ratio(float64(tr.total[csLocal]), sumElems))
	rep.set("mpirt.local.share", ratio(float64(tr.total[csLocal]), float64(ct.sumOpNs)))
	rep.set("mpirt.global_us", tr.perCall(csGlobal)/1e3)
	rep.set("mpirt.global.share", ratio(float64(tr.total[csGlobal]), float64(ct.sumOpNs)))
	rep.set("reduce.merges_per_op", ratio(float64(ct.merges.Load()), float64(traced.ops)))
	rep.set("mpirt.bytes_per_op_computed", ratio(float64(ct.globalBytes), float64(traced.ops)))
	rep.set("mpirt.model.global_share", ratio(ct.modelGlobal, ct.modelTotal))
	rep.set("trace.coverage", tr.coverage(csOp, csLocal, csGlobal, csVector))
	rep.set("trace.overhead_ratio", ratio(ratio(float64(tr.total[csOp]), float64(tr.calls[csOp])),
		ratio(float64(plain.opNs), float64(plain.ops))))
	rep.set("epochs", float64(epochs))
	return rep, nil
}
