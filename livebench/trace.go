package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// Wire-v3 header layout the server-side wrapper peeks at without
// decoding: magic, version, type, then for Move the seq and for Snapshot
// the frame followed by the AckSeq; every datagram ends in a 2-byte
// checksum. Accept carries the client id right after the type byte.
const (
	hdrType     = 2
	moveSeqOff  = 3
	snapAckOff  = 7
	acceptIDOff = 3
	wireTrailer = 2
)

// moveRec holds every timestamp the benchmark takes for one move, keyed
// by (bot, seq): all spans of one move share that id. Times are
// nanoseconds since the run's base instant; 0 means not observed.
type moveRec struct {
	due    int64 // scheduled client-frame tick (generator)
	sent   int64 // just before Bot.Step hands the move to the transport
	recv   int64 // server Recv returned it (traced)
	pre    int64 // engine PreExec for it (traced)
	commit int64 // engine RecordMove for it (traced)
	reply  int64 // first server Send of a snapshot with AckSeq >= seq
}

// botState is one bot's record store. The driver writes due/sent; the
// server side (one engine goroutine at a time per bot) writes the rest.
// The fields each side writes are disjoint, and the driver reads the
// server-side fields only after the engines have stopped.
type botState struct {
	moves []moveRec // preallocated, indexed by seq

	// Server side.
	acked    uint32 // highest AckSeq stamped so far
	maxRecv  uint32 // highest move seq the server received
	lastRecv uint32 // seq of the move most recently received (traced)
	recvd    int64  // moves the server received
	ackErrs  int64  // AckSeq went backwards or past the highest seq received
	stamped  atomic.Int64
}

// clock is the run's time base.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

func (c *clock) at(t time.Time) int64 { return int64(t.Sub(c.base)) }

// Per-engine counters, snapshotted at the window edges.
const (
	cRecvNs    = iota // time spent in the engine's Recv calls
	cPktsIn           // datagrams the engine received
	cMovesIn          // moves among them
	cSendNs           // time spent in the engine's Send calls
	cPktsOut          // datagrams the engine sent
	cSnaps            // snapshots among them
	cSnapBytes        // their bytes
	cCommits          // RecordMove calls
	cFrames           // RecordFrameEnd calls
	cTicks            // RecordTick calls
	cWorldNs          // Config.Clock read to RecordTick, summed
	cReplySpan        // first to last Send of each frame, summed
	numCounters
)

// layerCounts is one engine's counters at an instant.
type layerCounts [numCounters]int64

func (e *engTrace) counts() (l layerCounts) {
	for i := range l {
		l[i] = e.n[i].Load()
	}
	return l
}

// engTrace is the per-engine side of the benchmark: it maps the engine's
// client ids to bots and, in a traced run, implements the engine seams
// (server.Recorder, Hooks.PreExec, Config.Clock). Counters are atomics
// because a parallel engine updates them from several workers while the
// driver snapshots them at the window edges.
type engTrace struct {
	clk    *clock
	bots   []botState
	botOf  []int32 // client id -> bot index, learned from Accept
	traced bool

	n [numCounters]atomic.Int64
	// frameFirstSend and frameLastSend bound the current frame's sends.
	frameFirstSend, frameLastSend atomic.Int64

	clockAt int64 // frame master only: last Config.Clock read
}

func newEngTrace(clk *clock, bots []botState, maxClients int, traced bool) *engTrace {
	e := &engTrace{clk: clk, bots: bots, botOf: make([]int32, maxClients+1), traced: traced}
	for i := range e.botOf {
		e.botOf[i] = -1
	}
	return e
}

// botIndex maps a bot endpoint name ("b<index>") to its index, or -1.
func botIndex(a transport.Addr) int {
	if a == nil {
		return -1
	}
	s := a.String()
	if len(s) < 2 || s[0] != 'b' {
		return -1
	}
	n := 0
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func (e *engTrace) bot(cid uint16) *botState {
	if int(cid) >= len(e.botOf) {
		return nil
	}
	b := e.botOf[cid]
	if b < 0 {
		return nil
	}
	return &e.bots[b]
}

// wireOK reports whether data carries a wire-v3 header of message type t
// with at least need bytes before the checksum trailer.
func wireOK(data []byte, t protocol.MsgType, need int) bool {
	return len(data) >= need+wireTrailer && data[0] == protocol.Magic &&
		data[1] == protocol.Version && protocol.MsgType(data[hdrType]) == t
}

// srvConn wraps one server endpoint. It is the only place response time
// is stamped: the moment the engine hands a snapshot to the transport.
type srvConn struct {
	transport.Conn
	e *engTrace
}

func (c *srvConn) Recv(buf []byte, timeout time.Duration) (int, transport.Addr, error) {
	var t0 int64
	if c.e.traced {
		t0 = c.e.clk.now()
	}
	n, from, err := c.Conn.Recv(buf, timeout)
	if !c.e.traced {
		if err == nil {
			c.e.onRecv(buf[:n], from, 0)
		}
		return n, from, err
	}
	t1 := c.e.clk.now()
	c.e.n[cRecvNs].Add(t1 - t0)
	if err == nil {
		c.e.onRecv(buf[:n], from, t1)
	}
	return n, from, err
}

func (e *engTrace) onRecv(data []byte, from transport.Addr, t int64) {
	e.n[cPktsIn].Add(1)
	if !wireOK(data, protocol.TMove, moveSeqOff+4) {
		return
	}
	e.n[cMovesIn].Add(1)
	b := botIndex(from)
	if b < 0 || b >= len(e.bots) {
		return
	}
	st := &e.bots[b]
	seq := binary.LittleEndian.Uint32(data[moveSeqOff:])
	st.recvd++
	if seq > st.maxRecv {
		st.maxRecv = seq
	}
	st.lastRecv = seq
	if t != 0 && int(seq) < len(st.moves) {
		st.moves[seq].recv = t
	}
}

func (c *srvConn) Send(to transport.Addr, data []byte) error {
	t0 := c.e.clk.now()
	err := c.Conn.Send(to, data)
	if c.e.traced {
		t1 := c.e.clk.now()
		c.e.n[cSendNs].Add(t1 - t0)
		c.e.n[cPktsOut].Add(1)
		c.e.frameFirstSend.CompareAndSwap(0, t0)
		for {
			last := c.e.frameLastSend.Load()
			if t1 <= last || c.e.frameLastSend.CompareAndSwap(last, t1) {
				break
			}
		}
	}
	if err == nil {
		c.e.onSend(to, data, t0)
	}
	return err
}

func (e *engTrace) onSend(to transport.Addr, data []byte, t int64) {
	switch {
	case wireOK(data, protocol.TSnapshot, snapAckOff+4):
		b := botIndex(to)
		if b < 0 || b >= len(e.bots) {
			return
		}
		st := &e.bots[b]
		ack := binary.LittleEndian.Uint32(data[snapAckOff:])
		if ack < st.acked || ack > st.maxRecv {
			st.ackErrs++
		}
		for s := st.acked + 1; s <= ack && int(s) < len(st.moves); s++ {
			st.moves[s].reply = t
		}
		if ack > st.acked {
			st.acked = ack
		}
		st.stamped.Add(1)
		if e.traced {
			e.n[cSnaps].Add(1)
			e.n[cSnapBytes].Add(int64(len(data)))
		}
	case wireOK(data, protocol.TAccept, acceptIDOff+2):
		b := botIndex(to)
		cid := binary.LittleEndian.Uint16(data[acceptIDOff:])
		if b >= 0 && b < len(e.bots) && int(cid) < len(e.botOf) {
			e.botOf[cid] = int32(b)
		}
	}
}

// preExec is the engine's Hooks.PreExec: the move being executed is the
// one its worker received last from that client.
func (e *engTrace) preExec(_ int, cid uint16) {
	if st := e.bot(cid); st != nil && int(st.lastRecv) < len(st.moves) {
		st.moves[st.lastRecv].pre = e.clk.now()
	}
}

// now is the engine's Config.Clock: the real clock, stamped so the world
// tick's duration can be measured up to RecordTick.
func (e *engTrace) now() time.Time {
	t := time.Now()
	e.clockAt = e.clk.at(t)
	return t
}

// The server.Recorder taps. Only moves, ticks and frame ends are timed;
// the rest are no-ops.

func (e *engTrace) RecordTick(int64) {
	e.n[cWorldNs].Add(e.clk.now() - e.clockAt)
	e.n[cTicks].Add(1)
}

func (e *engTrace) RecordMove(cid uint16, seq uint32, _ *protocol.MoveCmd) {
	t := e.clk.now()
	e.n[cCommits].Add(1)
	if st := e.bot(cid); st != nil && int(seq) < len(st.moves) {
		st.moves[seq].commit = t
	}
}

func (e *engTrace) RecordFrameEnd(uint64) {
	e.n[cFrames].Add(1)
	if first := e.frameFirstSend.Swap(0); first != 0 {
		e.n[cReplySpan].Add(e.frameLastSend.Swap(0) - first)
	}
}

func (e *engTrace) RecordConnect(uint16, int32, int, string) {}
func (e *engTrace) RecordDisconnect(uint16, uint8)           {}
func (e *engTrace) RecordMigrate(uint16, int)                {}
func (e *engTrace) RecordShed(int)                           {}
