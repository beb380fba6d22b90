// Package mpirt is a message-passing runtime simulated in pure Go:
// ranks are goroutines, links are buffered channels, and collectives are
// implemented over point-to-point sends with pluggable reduction
// topologies. It stands in for the MPI layer of the paper's experiments
// (custom MPI_Reduce operators over local partial sums).
//
// Two properties of real extreme-scale reductions are modeled
// explicitly:
//
//   - Topology: the reduction tree a collective uses (binomial, binary,
//     chain, flat) is selectable per call, like an MPI implementation
//     choosing a plan by message size and communicator shape.
//   - Nondeterminism: in ArrivalOrder mode a parent merges child
//     contributions in the order they arrive, and optional per-message
//     jitter makes that order vary run to run — the system-level effect
//     (Balaji & Kimpe) whose numerical consequences the paper studies.
package mpirt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fpu"
	"repro/internal/reduce"
)

// Mode selects how a parent combines child contributions in a reduction.
type Mode uint8

const (
	// FixedOrder merges child states in ascending rank order after all
	// have arrived: deterministic for a deterministic operator.
	FixedOrder Mode = iota
	// ArrivalOrder merges child states as they arrive: the merge order
	// depends on timing, modeling a topology/latency-aware collective.
	ArrivalOrder
)

// String names the mode.
func (m Mode) String() string {
	if m == ArrivalOrder {
		return "arrival-order"
	}
	return "fixed-order"
}

// Topology selects the reduction schedule used by collectives. The
// first four are single rooted trees; the last three are the
// bandwidth-optimal schedules a production MPI/CCL layer selects for
// large payloads (oneCCL: direct / rabenseifner / tree / double_tree).
type Topology uint8

const (
	// Binomial is the classic MPI binomial reduction tree.
	Binomial Topology = iota
	// BinaryTree is a complete binary tree (rank 2i+1, 2i+2 children).
	BinaryTree
	// Chain is a serial pipeline: rank i receives from i+1.
	Chain
	// Flat has every non-root rank send directly to the root.
	Flat
	// Rabenseifner reduces by recursive-halving reduce-scatter followed
	// by a binomial gather of the scattered chunks to the root: each
	// rank moves O(m) elements instead of the tree schedules' O(m log n).
	Rabenseifner
	// RSAllgather is the reduce-scatter + allgather allreduce
	// (recursive halving then recursive doubling); every rank ends with
	// the full result, the root returns it.
	RSAllgather
	// DoubleTree reduces even segments up one inorder binary tree and
	// odd segments up its complement; every rank is interior in at most
	// one tree, halving the per-link load of a single binary tree.
	DoubleTree
)

// Topologies lists every topology.
var Topologies = []Topology{Binomial, BinaryTree, Chain, Flat, Rabenseifner, RSAllgather, DoubleTree}

// treeTopologies are the single-rooted-tree schedules family() covers.
var treeTopologies = []Topology{Binomial, BinaryTree, Chain, Flat}

// String names the topology.
func (t Topology) String() string {
	switch t {
	case Binomial:
		return "binomial"
	case BinaryTree:
		return "binary"
	case Chain:
		return "chain"
	case Flat:
		return "flat"
	case Rabenseifner:
		return "rabenseifner"
	case RSAllgather:
		return "rsag"
	case DoubleTree:
		return "dtree"
	}
	return fmt.Sprintf("Topology(%d)", uint8(t))
}

// ParseTopology maps a name produced by String back to its Topology.
func ParseTopology(s string) (Topology, error) {
	for _, t := range Topologies {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("mpirt: unknown topology %q", s)
}

// isTree reports whether the topology is a single rooted tree handled
// by family().
func (t Topology) isTree() bool {
	switch t {
	case Binomial, BinaryTree, Chain, Flat:
		return true
	}
	return false
}

// Config tunes a World.
type Config struct {
	// Jitter is the maximum random delay injected before each send.
	// Zero disables jitter. Combined with ArrivalOrder it makes merge
	// orders vary run to run.
	Jitter time.Duration
	// Seed drives each rank's jitter generator (rank id is mixed in).
	Seed uint64
}

// World is a communicator of size ranks.
type World struct {
	size    int
	cfg     Config
	inboxes []chan envelope
	sent    int // messages sent by the ranks of every finished Run

	dtreeOnce sync.Once
	dtree     *dtreeInfo
}

type envelope struct {
	src     int
	tag     int
	payload any
}

// inboxCap is the per-rank inbox credit: how many envelopes a rank can
// have in flight toward one receiver before further senders block. A
// bounded inbox is what keeps world memory O(size): the previous
// 8*size+64 capacity allocated O(size^2) envelope slots across the
// world, which is ~26 GB of channel buffers at 10^4 ranks before a
// single message is sent. Senders to a full inbox park on the channel
// (credit-based backpressure) while still draining their own inbox
// into pending, so bounded credit throttles pipelines without deadlock
// even when back-to-back collectives let some ranks run ahead.
const inboxCap = 16

// NewWorld creates a communicator with size ranks. Inboxes are bounded
// (see inboxCap), so the world costs O(size) memory: a send to a
// saturated rank blocks until the receiver drains credit.
func NewWorld(size int, cfg Config) *World {
	if size < 1 {
		panic("mpirt: world size must be >= 1")
	}
	w := &World{size: size, cfg: cfg, inboxes: make([]chan envelope, size)}
	for i := range w.inboxes {
		w.inboxes[i] = make(chan envelope, inboxCap)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run launches one goroutine per rank executing body and waits for all
// of them. A panicking rank aborts the run and is reported as an error.
// The ranks live in one slab, so a run allocates O(1) blocks besides
// its goroutines.
func (w *World) Run(body func(r *Rank)) error {
	var wg sync.WaitGroup
	ranks := make([]Rank, w.size)
	errs := make([]error, w.size)
	wg.Add(w.size)
	for id := range ranks {
		r := &ranks[id]
		r.ID, r.Size, r.w = id, w.size, w
		r.rng.Reseed(w.cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		go r.run(body, &wg, &errs[id])
	}
	wg.Wait()
	for i := range ranks {
		w.sent += ranks[i].sent
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is one rank's goroutine: it executes body and turns a panic into
// *err.
func (r *Rank) run(body func(r *Rank), wg *sync.WaitGroup, err *error) {
	defer wg.Done()
	defer func() {
		if p := recover(); p != nil {
			*err = fmt.Errorf("mpirt: rank %d panicked: %v", r.ID, p)
		}
	}()
	body(r)
}

// Rank is one process in the world; methods on it may only be called
// from within the goroutine Run assigned to it.
type Rank struct {
	ID, Size int
	w        *World
	pending  []envelope
	coll     int // per-rank collective sequence number
	sent     int // messages this rank has sent
	rng      fpu.RNG
}

// collective tags live above user tags; user tags must be >= 0.
const collTagBase = 1 << 30

func (r *Rank) nextCollTag() int {
	r.coll++
	return collTagBase + r.coll
}

// Send delivers payload to rank dst under the given tag (tag >= 0 for
// user messages). Jitter, if configured, delays the send.
func (r *Rank) Send(dst, tag int, payload any) {
	r.send(dst, tag, payload)
}

func (r *Rank) send(dst, tag int, payload any) {
	if dst < 0 || dst >= r.Size {
		panic(fmt.Sprintf("mpirt: send to invalid rank %d", dst))
	}
	if j := r.w.cfg.Jitter; j > 0 {
		jitterDelay(time.Duration(r.rng.Float64() * float64(j)))
	}
	r.sent++
	select {
	case r.w.inboxes[dst] <- envelope{src: r.ID, tag: tag, payload: payload}:
	default:
		r.sendWaiting(dst, envelope{src: r.ID, tag: tag, payload: payload})
	}
}

// sendWaiting delivers e to a full inbox. While it waits for credit it
// keeps draining this rank's own inbox into pending, as a blocked MPI
// send still progresses its receives: otherwise two ranks sending to
// each other's full inbox wait forever, which back-to-back collectives
// reach when ranks with no part left in one run ahead into the next.
// It stays out of line because rank goroutines run close to their
// initial stack size: inlined, its select enlarges send's frame enough
// that every rank of a 10^4-rank binomial reduce grows and copies its
// stack, about 1.5x the run's wall-clock.
//
//go:noinline
func (r *Rank) sendWaiting(dst int, e envelope) {
	own := r.w.inboxes[r.ID]
	for {
		select {
		case r.w.inboxes[dst] <- e:
			return
		case in := <-own:
			r.pending = append(r.pending, in)
		}
	}
}

// jitterDelay delays the caller for d. Short delays yield-spin instead
// of sleeping: timer granularity on a loaded host rounds a microsecond
// time.Sleep up to ~1ms, which would serialize pipelined schedules (a
// 10^4-hop chain becomes 10^4 timer ticks ≈ 10 s of wall clock).
// Yielding the goroutine until the deadline still perturbs scheduling
// order, which is all jitter exists to do.
func jitterDelay(d time.Duration) {
	if d >= 200*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Other messages are buffered.
func (r *Rank) Recv(src, tag int) any {
	for i, e := range r.pending {
		if e.src == src && e.tag == tag {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return e.payload
		}
	}
	for {
		e := <-r.w.inboxes[r.ID]
		if e.src == src && e.tag == tag {
			return e.payload
		}
		r.pending = append(r.pending, e)
	}
}

// RecvAny blocks until a message with the given tag arrives from any
// source, returning the source and payload in arrival order.
func (r *Rank) RecvAny(tag int) (src int, payload any) {
	for i, e := range r.pending {
		if e.tag == tag {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return e.src, e.payload
		}
	}
	for {
		e := <-r.w.inboxes[r.ID]
		if e.tag == tag {
			return e.src, e.payload
		}
		r.pending = append(r.pending, e)
	}
}

// vertex returns this rank's position in a tree rooted at root.
func (r *Rank) vertex(root int) int { return (r.ID - root + r.Size) % r.Size }

// rankOf maps a tree vertex back to a rank id.
func (r *Rank) rankOf(v, root int) int { return (v + root) % r.Size }

// family returns the parent rank (-1 at the root) and child ranks of
// this rank in the given topology rooted at root.
func (r *Rank) family(topo Topology, root int) (parent int, children []int) {
	v := r.vertex(root)
	n := r.Size
	switch topo {
	case Binomial:
		if v == 0 {
			parent = -1
			for b := 1; b < n; b <<= 1 {
				children = append(children, r.rankOf(b, root))
			}
		} else {
			lsb := v & -v
			parent = r.rankOf(v-lsb, root)
			for b := 1; b < lsb; b <<= 1 {
				if v+b < n {
					children = append(children, r.rankOf(v+b, root))
				}
			}
		}
	case BinaryTree:
		if v == 0 {
			parent = -1
		} else {
			parent = r.rankOf((v-1)/2, root)
		}
		for _, c := range []int{2*v + 1, 2*v + 2} {
			if c < n {
				children = append(children, r.rankOf(c, root))
			}
		}
	case Chain:
		if v == 0 {
			parent = -1
		} else {
			parent = r.rankOf(v-1, root)
		}
		if v+1 < n {
			children = append(children, r.rankOf(v+1, root))
		}
	case Flat:
		if v == 0 {
			parent = -1
			for c := 1; c < n; c++ {
				children = append(children, r.rankOf(c, root))
			}
		} else {
			parent = r.rankOf(0, root)
		}
	default:
		panic("mpirt: invalid topology " + topo.String())
	}
	return parent, children
}

// Barrier synchronizes all ranks (binomial gather + broadcast).
func (r *Rank) Barrier() {
	tag := r.nextCollTag()
	parent, children := r.family(Binomial, 0)
	for _, c := range children {
		r.Recv(c, tag)
	}
	if parent >= 0 {
		r.send(parent, tag, nil)
		r.Recv(parent, tag)
	}
	for _, c := range children {
		r.send(c, tag, nil)
	}
}

// Broadcast distributes root's payload to every rank and returns it.
// Every rank gets the same payload value, not a copy: a reference
// payload (slice, pointer, reduce.State) is shared by all ranks and must
// be treated as read-only.
func (r *Rank) Broadcast(root int, payload any) any {
	tag := r.nextCollTag()
	parent, children := r.family(Binomial, root)
	if parent >= 0 {
		payload = r.Recv(parent, tag)
	}
	for _, c := range children {
		r.send(c, tag, payload)
	}
	return payload
}

// Gather collects each rank's payload at root, indexed by rank id.
// Non-root ranks receive nil.
func (r *Rank) Gather(root int, payload any) []any {
	tag := r.nextCollTag()
	if r.ID != root {
		r.send(root, tag, [2]any{r.ID, payload})
		return nil
	}
	out := make([]any, r.Size)
	out[root] = payload
	for i := 0; i < r.Size-1; i++ {
		_, p := r.RecvAny(tag)
		pair := p.([2]any)
		out[pair[0].(int)] = pair[1]
	}
	return out
}

// AllGather collects every rank's payload on every rank, indexed by
// rank id (gather to rank 0 + broadcast).
func (r *Rank) AllGather(payload any) []any {
	got := r.Gather(0, payload)
	res := r.Broadcast(0, got)
	return res.([]any)
}

// Scatter distributes items[i] from root to rank i and returns this
// rank's item. Only the root's items argument is consulted.
func (r *Rank) Scatter(root int, items []any) any {
	tag := r.nextCollTag()
	if r.ID == root {
		if len(items) != r.Size {
			panic(fmt.Sprintf("mpirt: Scatter needs %d items, got %d", r.Size, len(items)))
		}
		for dst := 0; dst < r.Size; dst++ {
			if dst != root {
				r.send(dst, tag, items[dst])
			}
		}
		return items[root]
	}
	return r.Recv(root, tag)
}

// Reduce combines each rank's local partial state up a reduction
// schedule and returns the final state at root (nil elsewhere). For
// tree topologies in FixedOrder mode every parent waits for all
// children and merges them in ascending rank order; in ArrivalOrder
// mode it merges them as they arrive. The schedule topologies
// (Rabenseifner, RSAllgather, DoubleTree) treat the state as a
// one-element vector: their merge order is fixed by the schedule, so
// they are deterministic in either mode (and bitwise identical to the
// trees for exactly-mergeable operators such as BN).
//
// Reduce consumes local: merges may reuse its storage (reduce.Op.Merge),
// here or on the rank it is sent to, so the caller must not read or
// reuse local afterwards.
func (r *Rank) Reduce(root int, local reduce.State, op reduce.Op, topo Topology, mode Mode) reduce.State {
	if !topo.isTree() {
		states, ok := r.reduceStates(root, []reduce.State{local}, op, topo, mode, 1)
		if !ok {
			return nil
		}
		return states[0]
	}
	tag := r.nextCollTag()
	parent, children := r.family(topo, root)
	state := local
	switch mode {
	case FixedOrder:
		got := make([]struct {
			src int
			st  reduce.State
		}, 0, len(children))
		for range children {
			src, p := r.RecvAny(tag)
			got = append(got, struct {
				src int
				st  reduce.State
			}{src, p})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].src < got[j].src })
		for _, g := range got {
			state = op.Merge(state, g.st)
		}
	case ArrivalOrder:
		for range children {
			_, p := r.RecvAny(tag)
			state = op.Merge(state, p)
		}
	default:
		panic("mpirt: invalid mode")
	}
	if parent >= 0 {
		r.send(parent, tag, state)
		return nil
	}
	return state
}

// AllReduce performs Reduce to rank 0 followed by a Broadcast of the
// final state, returning it on every rank. It consumes local, as Reduce
// does. Every rank gets the same state object, so the result is shared
// and read-only: finalize it, encode it, or pass it as Merge's right
// operand, but never as Merge's left operand or as a collective's local.
func (r *Rank) AllReduce(local reduce.State, op reduce.Op, topo Topology, mode Mode) reduce.State {
	st := r.Reduce(0, local, op, topo, mode)
	return r.Broadcast(0, st)
}

// ReduceSum folds the rank's local values with op.FoldSlice and reduces
// the partial states globally, returning the finalized sum at root and
// NaN elsewhere.
func (r *Rank) ReduceSum(root int, local []float64, op reduce.Op, topo Topology, mode Mode) (float64, bool) {
	state := LocalState(op, local)
	st := r.Reduce(root, state, op, topo, mode)
	if st == nil {
		return 0, false
	}
	return op.Finalize(st), true
}

// LocalState folds a slice into a single partial state under op (the
// "local sum" phase executed by each rank before the global reduce).
func LocalState(op reduce.Op, xs []float64) reduce.State { return op.FoldSlice(xs) }
