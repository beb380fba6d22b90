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
	"slices"
	"sync"
	"sync/atomic"
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

	ranks []Rank     // kept from Run to Run with their spare states
	hands []chan job // the parked workers this Run took
	runs  uint64     // Runs started

	wg            sync.WaitGroup // this Run's ranks still running
	aborted, over atomic.Bool    // a rank of this Run panicked; all returned
	poster        sync.WaitGroup // the abort notice's helper goroutine

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

// Run runs body once as each rank, concurrently, and waits for all of
// them. Each rank runs on a worker goroutine from a pool that every
// World shares (see parkedMax): a worker that finished a rank in an
// earlier Run keeps the stack that rank grew, so a warm World starts no
// goroutine and grows no stack. A panicking rank aborts the run and is
// reported as an error: every rank still waiting on a message unwinds,
// and the next Run starts with drained inboxes and no spare states. The
// ranks live in one slab kept from Run to Run, so a warm Run allocates
// nothing of its own. Run is not reentrant.
func (w *World) Run(body func(r *Rank)) error {
	if w.ranks == nil {
		w.ranks = make([]Rank, w.size)
	}
	w.runs++
	// Take the parked workers before any rank starts: a worker this Run
	// frees is not handed another of its ranks, which under a 10^4-rank
	// Run would cost more in contended handoffs than a fresh goroutine.
	pool.Lock()
	k := max(0, len(pool.idle)-w.size)
	w.hands = append(w.hands[:0], pool.idle[k:]...)
	pool.idle = pool.idle[:k]
	pool.Unlock()
	w.wg.Add(w.size)
	for id := range w.ranks {
		r := &w.ranks[id]
		r.ID, r.Size, r.w = id, w.size, w
		r.pending, r.coll, r.sent, r.err = r.pending[:0], 0, 0, nil
		r.rng.Reseed(w.cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		if id < len(w.hands) {
			w.hands[id] <- job{r, body}
		} else {
			spawns.Add(1)
			go work(job{r, body})
		}
	}
	w.wg.Wait()
	var err error
	for i := range w.ranks {
		w.sent += w.ranks[i].sent
		if err == nil {
			err = w.ranks[i].err
		}
	}
	if w.aborted.Load() {
		w.over.Store(true)
		w.poster.Wait()
		for _, in := range w.inboxes {
			for len(in) > 0 {
				<-in
			}
		}
		w.ranks = nil
		w.aborted.Store(false)
		w.over.Store(false)
	}
	return err
}

// parkedMax bounds the idle workers kept for later Runs, above the 128
// + 16 ranks of a collective-sim step. A Run with more ranks starts the
// rest afresh, and a worker that finds the pool full exits.
const parkedMax = 256

var (
	// pool holds the idle workers' job channels. It is a set, not a
	// queue of ranks: Run hands a rank only to a worker it took from
	// here, so no rank ever waits behind another that may be blocked on
	// it.
	pool struct {
		sync.Mutex
		idle []chan job // at most parkedMax
	}
	spawns atomic.Uint64 // worker goroutines started
)

// job is one rank of a Run, handed to a worker.
type job struct {
	r    *Rank
	body func(*Rank)
}

// work is a pool worker: it runs j, then parks for the next rank until
// the pool is full. It parks before its rank counts as done, so a
// back-to-back Run finds every worker of the one before. A parked
// worker holds no Rank, body or World, which stay collectable. A body
// that calls runtime.Goexit ends the worker; its rank still counts as
// done.
func work(j job) {
	var jobs chan job // made on the worker's first park
	for {
		wg := &j.r.w.wg
		j.r.run(j.body)
		j = job{}
		parked := park(&jobs)
		wg.Done()
		if !parked {
			return
		}
		j = <-jobs
	}
}

// park puts the worker's job channel in the pool and reports whether
// it had room. A worker beyond the bound, as most of a 10^4-rank Run's
// are, never makes its channel.
func park(jobs *chan job) bool {
	pool.Lock()
	defer pool.Unlock()
	if len(pool.idle) == parkedMax {
		return false
	}
	if *jobs == nil {
		*jobs = make(chan job, 1)
	}
	pool.idle = append(pool.idle, *jobs)
	return true
}

// run executes body as rank r and turns a panic into r.err and an
// abort, unless the abort itself unwound the rank. It marks the rank
// done itself only when body calls runtime.Goexit, which no recover
// stops.
func (r *Rank) run(body func(r *Rank)) {
	returned := false
	defer func() {
		if p := recover(); p != nil {
			if p != any(aborted{}) {
				r.err = fmt.Errorf("mpirt: rank %d panicked: %v", r.ID, p)
				r.w.abort()
			}
		} else if !returned {
			r.w.wg.Done()
		}
	}()
	body(r)
	returned = true
}

// abortTag tags the notice posted to every inbox when a rank panics. No
// receive matches it, so a waiting rank takes it on its mismatch branch
// (Rank.buffer) and unwinds with the panic value aborted{}.
const abortTag = -1

type aborted struct{}

// abort starts, on the Run's first panic, a helper goroutine posting the
// notice to every inbox. It passes over a full inbox and retries it,
// since a rank that has returned no longer drains its own, until every
// rank has returned.
func (w *World) abort() {
	if w.aborted.Swap(true) {
		return
	}
	w.poster.Add(1)
	go func() {
		defer w.poster.Done()
		left := slices.Clone(w.inboxes)
		for !w.over.Load() {
			if left = slices.DeleteFunc(left, func(in chan envelope) bool {
				select {
				case in <- envelope{src: -1, tag: abortTag}:
					return true
				default:
					return false
				}
			}); len(left) == 0 {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
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
	err      error      // this Run's panic
	spare0   spare      // the first operator's spare, kept across Runs
	spares   []spare    // one per further operator name
	kids     []int      // family's children, refilled by each collective
	got      []envelope // fromChildren's FixedOrder arrivals
}

// spare is the rank's own storage for one operator's states, which a
// later Run overwrites instead of allocating. The schedules repoint
// their working slice at other ranks' states (RSAG copies a partner's
// in, Rabenseifner merges into a received one), so they get work, a
// copy of own. Within one Run another rank may still read a spare, so
// a second call with the same operator allocates afresh. The first
// operator's spare lives in the Rank itself, so a rank's first
// collective allocates no spare list.
type spare struct {
	name                string
	localRun, leavesRun uint64 // the Runs that last handed them out
	local               reduce.State
	own, work           []reduce.State
}

func (r *Rank) spare(op reduce.Op) *spare {
	name := op.Name()
	if r.spare0.name == name || r.spare0.name == "" {
		r.spare0.name = name
		return &r.spare0
	}
	i := slices.IndexFunc(r.spares, func(s spare) bool { return s.name == name })
	if i < 0 {
		i, r.spares = len(r.spares), append(r.spares, spare{name: name})
	}
	return &r.spares[i]
}

// localState is LocalState into the rank's spare state for op.
func (r *Rank) localState(op reduce.Op, xs []float64) reduce.State {
	if sp := r.spare(op); sp.localRun != r.w.runs {
		sp.localRun, sp.local = r.w.runs, op.FoldSlice(sp.local, xs)
		return sp.local
	}
	return op.FoldSlice(nil, xs)
}

// leaves is op.Leaves into the rank's spare leaves for op.
func (r *Rank) leaves(op reduce.Op, xs []float64) []reduce.State {
	if sp := r.spare(op); sp.leavesRun != r.w.runs {
		sp.leavesRun, sp.own = r.w.runs, op.Leaves(sp.own, xs)
		sp.work = append(sp.work[:0], sp.own...)
		return sp.work
	}
	return op.Leaves(nil, xs)
}

// collective tags live above user tags; user tags must be >= 0.
const collTagBase = 1 << 30

func (r *Rank) nextCollTag() int {
	r.coll++
	return collTagBase + r.coll
}

// Send delivers payload to rank dst under the given tag, which must be
// >= 0 (negative tags are the runtime's). Jitter, if configured, delays
// the send.
func (r *Rank) Send(dst, tag int, payload any) {
	if tag < 0 {
		panic(fmt.Sprintf("mpirt: negative user tag %d", tag))
	}
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
// It stays out of line because a rank that Run starts on a fresh
// goroutine, as it does for every rank beyond the parked workers, runs
// close to the initial stack size: inlined, its select enlarges send's
// frame enough that every such rank of a 10^4-rank binomial reduce
// grows and copies its stack, about 1.5x the run's wall-clock.
//
//go:noinline
func (r *Rank) sendWaiting(dst int, e envelope) {
	own := r.w.inboxes[r.ID]
	for {
		select {
		case r.w.inboxes[dst] <- e:
			return
		case in := <-own:
			r.buffer(in)
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
		r.buffer(e)
	}
}

// buffer keeps an envelope that arrived before its receive, or unwinds
// on the abort notice.
func (r *Rank) buffer(e envelope) {
	if e.tag == abortTag {
		panic(aborted{})
	}
	r.pending = append(r.pending, e)
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
		r.buffer(e)
	}
}

// vertex returns this rank's position in a tree rooted at root.
func (r *Rank) vertex(root int) int { return (r.ID - root + r.Size) % r.Size }

// rankOf maps a tree vertex back to a rank id.
func (r *Rank) rankOf(v, root int) int { return (v + root) % r.Size }

// family returns the parent rank (-1 at the root) and child ranks of
// this rank in the given topology rooted at root. The children live in
// a buffer the rank keeps, which the next call overwrites: a rank runs
// one collective at a time, and each calls family once.
func (r *Rank) family(topo Topology, root int) (parent int, children []int) {
	v := r.vertex(root)
	n := r.Size
	children = r.kids[:0]
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
	r.kids = children
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
	r.fromChildren(children, mode, tag, func(p any) { state = op.Merge(state, p) })
	if parent >= 0 {
		r.send(parent, tag, state)
		return nil
	}
	return state
}

// fromChildren receives one payload from each child under tag and
// hands each to absorb: as they arrive (ArrivalOrder), or once all have
// arrived in ascending rank order (FixedOrder), collected in a buffer
// the rank keeps.
func (r *Rank) fromChildren(children []int, mode Mode, tag int, absorb func(payload any)) {
	switch mode {
	case FixedOrder:
		got := slices.Grow(r.got[:0], len(children))[:len(children)]
		for i := range got {
			got[i].src, got[i].payload = r.RecvAny(tag)
		}
		slices.SortFunc(got, func(a, b envelope) int { return a.src - b.src })
		for _, e := range got {
			absorb(e.payload)
		}
		clear(got)
		r.got = got
	case ArrivalOrder:
		for range children {
			_, p := r.RecvAny(tag)
			absorb(p)
		}
	default:
		panic("mpirt: invalid mode")
	}
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
// NaN elsewhere. The fold reuses the state this rank folded for op in an
// earlier Run.
func (r *Rank) ReduceSum(root int, local []float64, op reduce.Op, topo Topology, mode Mode) (float64, bool) {
	st := r.Reduce(root, r.localState(op, local), op, topo, mode)
	if st == nil {
		return 0, false
	}
	return op.Finalize(st), true
}

// LocalState folds a slice into a single partial state under op (the
// "local sum" phase executed by each rank before the global reduce).
func LocalState(op reduce.Op, xs []float64) reduce.State { return op.FoldSlice(nil, xs) }
