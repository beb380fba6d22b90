// Package aggsrv implements reduction-as-a-service: a long-lived TCP
// aggregation server that accepts streaming deposit batches from many
// concurrent clients and folds them into named reproducible binned
// accumulators. Because binned deposits and merges are exact, the
// finalized bits of every key are invariant under arrival order,
// connection count, and batch sizing — the server inherits the
// reproducibility contract from the accumulator, not from any ordering
// discipline on the network.
//
// Wire protocol (all integers little-endian):
//
//	frame    := len:uint32 body
//	body     := op:byte rest
//	op 'D'   := keyLen:uint16 key raw-float64-bits*   (deposit scalars, no reply)
//	op 'S'   := keyLen:uint16 key reprostate-v1-frame (deposit an encoded
//	            binned state, merged exactly; no reply)
//	op 'F'   := (flush barrier; reply 'A' once every prior frame on this
//	            connection has been applied)
//	op 'Q'   := keyLen:uint16 key (snapshot; reply 'R' value-bits:uint64
//	            reprostate-v1-frame of a consistent copy)
//	reply 'E':= utf8 message (protocol error; connection closes after)
//
// Frames on one connection are applied in order; frames from different
// connections interleave arbitrarily. Deposits are fire-and-forget:
// an 'A' ack to a flush guarantees every deposit sent before it is
// folded in, which is the only ordering a caller can rely on.
//
// Accumulators live in a power-of-two slab of shards keyed by FNV-1a of
// the key, each shard guarded by its own mutex, so deposits to
// different keys (and snapshots of one key) do not stall traffic on
// other shards. Large batches are pre-folded into a per-connection
// scratch state outside the lock and applied with a single exact Merge,
// keeping lock hold times O(bins) instead of O(batch).
package aggsrv

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binned"
	"repro/internal/wire"
)

// Protocol op and reply bytes.
const (
	opDeposit = 'D'
	opState   = 'S'
	opFlush   = 'F'
	opSnap    = 'Q'

	repAck  = 'A'
	repSnap = 'R'
	repErr  = 'E'
)

// coalesceMin is the batch size above which a deposit is pre-folded
// into the connection's scratch state outside the shard lock and
// applied with one Merge. Below it, holding the lock for a direct
// AddSlice is cheaper than paying a 68-slot merge.
const coalesceMin = 64

// Config parameterizes a Server. The zero value is usable: every field
// has a sane default applied by New.
type Config struct {
	// Shards is the number of accumulator shards; rounded up to a
	// power of two. Default 16.
	Shards int
	// MaxFrame bounds the accepted frame body length in bytes.
	// Default 1 MiB (≈128k scalars per deposit frame).
	MaxFrame int
	// MaxKeyLen bounds accumulator key length. Default 255.
	MaxKeyLen int
	// ReadTimeout is the per-frame read deadline; zero means no
	// deadline.
	ReadTimeout time.Duration
	// WriteTimeout is the per-reply write deadline; zero means no
	// deadline.
	WriteTimeout time.Duration
}

func (c *Config) sanitize() {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxFrame <= 0 {
		c.MaxFrame = 1 << 20
	}
	if c.MaxKeyLen <= 0 {
		c.MaxKeyLen = 255
	}
}

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	Deposits  int64 // scalar deposits folded in (state deposits count their Count)
	Batches   int64 // deposit frames applied
	Snapshots int64 // snapshot requests served
	Keys      int64 // distinct accumulator keys
}

// shard is one slot of the accumulator slab.
type shard struct {
	mu sync.Mutex
	m  map[string]*binned.State
	_  [40]byte // pad to a cache line so shard locks don't false-share
}

// Server is a reduction-as-a-service aggregation endpoint.
type Server struct {
	cfg    Config
	shards []shard
	mask   uint64

	deposits  atomic.Int64
	batches   atomic.Int64
	snapshots atomic.Int64
	keys      atomic.Int64

	pool sync.Pool // *connState

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup
}

// connState holds the per-connection reusable buffers. After the first
// few frames grow them to steady-state capacity, the deposit path
// performs zero heap allocations per frame.
type connState struct {
	len4    [4]byte
	frame   []byte
	vals    []float64
	out     []byte // reply buffer; out[:4] is the length prefix
	scratch binned.State
}

// New constructs a Server with cfg (defaults applied). Call Serve or
// ListenAndServe to start accepting connections.
func New(cfg Config) *Server {
	cfg.sanitize()
	s := &Server{
		cfg:    cfg,
		shards: make([]shard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
		conns:  make(map[net.Conn]struct{}),
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*binned.State)
	}
	s.pool.New = func() any {
		return &connState{out: make([]byte, 4, 256)}
	}
	return s
}

// Stats returns a snapshot of the server counters. Counter fields are
// atomics; Keys is maintained atomically on first insert, so Stats
// never takes a shard lock.
func (s *Server) Stats() Stats {
	return Stats{
		Deposits:  s.deposits.Load(),
		Batches:   s.batches.Load(),
		Snapshots: s.snapshots.Load(),
		Keys:      s.keys.Load(),
	}
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener is closed (by
// Shutdown, Close, or externally). It returns nil on a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("aggsrv: server is shut down")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown stops accepting connections and waits for in-flight
// connections to finish. If ctx expires first, remaining connections
// are force-closed (their buffered-but-unflushed deposits are
// dropped; anything acked by a flush is retained) and ctx.Err() is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes the listener and every connection immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := s.pool.Get().(*connState)
	defer s.pool.Put(c)
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if _, err := io.ReadFull(br, c.len4[:]); err != nil {
			return // EOF or deadline: client is done
		}
		n := int(binary.LittleEndian.Uint32(c.len4[:]))
		if n == 0 || n > s.cfg.MaxFrame {
			s.writeError(conn, c, fmt.Sprintf("frame length %d outside (0, %d]", n, s.cfg.MaxFrame))
			return
		}
		if cap(c.frame) < n {
			c.frame = make([]byte, n)
		}
		body := c.frame[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		c.out = c.out[:4]
		if err := s.process(c, body); err != nil {
			s.writeError(conn, c, err.Error())
			return
		}
		if len(c.out) > 4 {
			if err := s.writeFrame(conn, c); err != nil {
				return
			}
		}
	}
}

// process applies one frame body, appending any reply to c.out (which
// the caller has reset to its 4-byte length prefix). A returned error
// is a protocol violation: the handler reports it and closes.
//
// This is the hot path: for deposit frames it performs no heap
// allocations once c's buffers have grown to steady state.
func (s *Server) process(c *connState, body []byte) error {
	switch op := body[0]; op {
	case opDeposit:
		key, payload, err := splitKey(body[1:], s.cfg.MaxKeyLen)
		if err != nil {
			return err
		}
		if len(payload)%8 != 0 {
			return fmt.Errorf("deposit payload %d bytes, not a multiple of 8", len(payload))
		}
		n := len(payload) / 8
		if n == 0 {
			s.batches.Add(1)
			return nil
		}
		if cap(c.vals) < n {
			c.vals = make([]float64, n)
		}
		vals := c.vals[:n]
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		s.depositVals(c, key, vals)
		return nil

	case opState:
		key, payload, err := splitKey(body[1:], s.cfg.MaxKeyLen)
		if err != nil {
			return err
		}
		st, used, err := wire.DecodeBinned(payload)
		if err != nil {
			return fmt.Errorf("state deposit: %v", err)
		}
		if used != len(payload) {
			return fmt.Errorf("state deposit: %d trailing bytes", len(payload)-used)
		}
		sh := s.shardOf(key)
		sh.mu.Lock()
		s.entryLocked(sh, key).Merge(&st)
		sh.mu.Unlock()
		s.deposits.Add(st.Count())
		s.batches.Add(1)
		return nil

	case opFlush:
		if len(body) != 1 {
			return fmt.Errorf("flush frame has %d trailing bytes", len(body)-1)
		}
		c.out = append(c.out, repAck)
		return nil

	case opSnap:
		key, rest, err := splitKey(body[1:], s.cfg.MaxKeyLen)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("snapshot frame has %d trailing bytes", len(rest))
		}
		cp := s.copyState(key)
		s.snapshots.Add(1)
		snap := cp.Snapshot()
		c.out = append(c.out, repSnap)
		c.out = binary.LittleEndian.AppendUint64(c.out, math.Float64bits(cp.Finalize()))
		c.out = wire.AppendBinned(c.out, &snap)
		return nil
	}
	return fmt.Errorf("unknown op 0x%02x", body[0])
}

// depositVals folds a scalar batch into key's accumulator. Batches of
// coalesceMin or more are pre-folded into the connection scratch state
// outside the shard lock and applied with one exact Merge; the merged
// result finalizes to the same bits as depositing element-wise, so
// coalescing never perturbs the answer.
func (s *Server) depositVals(c *connState, key []byte, vals []float64) {
	sh := s.shardOf(key)
	if len(vals) >= coalesceMin {
		c.scratch.Reset()
		c.scratch.AddSlice(vals)
		sh.mu.Lock()
		s.entryLocked(sh, key).Merge(&c.scratch)
		sh.mu.Unlock()
	} else {
		sh.mu.Lock()
		s.entryLocked(sh, key).AddSlice(vals)
		sh.mu.Unlock()
	}
	s.deposits.Add(int64(len(vals)))
	s.batches.Add(1)
}

// copyState returns a consistent copy of key's accumulator, taken under
// that shard's lock only — snapshots never stall deposits on other
// shards. A missing key yields an empty state (value +0 by Finalize's
// empty-sum convention, count 0).
func (s *Server) copyState(key []byte) binned.State {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[string(key)]; ok {
		return *e
	}
	return binned.State{}
}

// entryLocked returns key's accumulator, inserting an empty one on
// first sight. Caller holds sh.mu. The lookup compiles to a no-copy
// map access; only the once-per-key insert allocates.
func (s *Server) entryLocked(sh *shard, key []byte) *binned.State {
	if e, ok := sh.m[string(key)]; ok {
		return e
	}
	e := new(binned.State)
	sh.m[string(key)] = e
	s.keys.Add(1)
	return e
}

// shardOf selects the shard for key by FNV-1a.
func (s *Server) shardOf(key []byte) *shard {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &s.shards[h&s.mask]
}

// splitKey parses the keyLen-prefixed key from rest of a frame body.
func splitKey(b []byte, maxKey int) (key, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, errors.New("frame truncated before key length")
	}
	kl := int(binary.LittleEndian.Uint16(b))
	if kl > maxKey {
		return nil, nil, fmt.Errorf("key length %d exceeds limit %d", kl, maxKey)
	}
	if len(b) < 2+kl {
		return nil, nil, fmt.Errorf("frame truncated inside key (%d of %d bytes)", len(b)-2, kl)
	}
	return b[2 : 2+kl], b[2+kl:], nil
}

// writeFrame fills in c.out's length prefix and writes the frame.
func (s *Server) writeFrame(conn net.Conn, c *connState) error {
	binary.LittleEndian.PutUint32(c.out[:4], uint32(len(c.out)-4))
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	_, err := conn.Write(c.out)
	return err
}

func (s *Server) writeError(conn net.Conn, c *connState, msg string) {
	c.out = c.out[:4]
	c.out = append(c.out, repErr)
	c.out = append(c.out, msg...)
	s.writeFrame(conn, c)
}
