package main

import (
	"time"

	"qserve/internal/botclient"
)

// gen is the load generator: one goroutine, locked to its OS thread,
// steps every bot on a shared client-frame tick. The loop is open —
// every move is due on the tick whether or not its last reply arrived —
// and ticks are aligned across bots on purpose: staggering them made the
// response time mostly sleep overshoot and frames of one move each.
type gen struct {
	clk  *clock
	bots []*botclient.Bot
	st   []botState
	sent []uint32 // seq of each bot's newest move

	late    []float64 // tick lateness in the window, ms
	maxLate int64     // worst tick lateness over the whole run, ns
}

func newGen(clk *clock, bots []*botclient.Bot, st []botState) *gen {
	return &gen{clk: clk, bots: bots, st: st, sent: make([]uint32, len(bots))}
}

// spinAhead is how early the generator stops sleeping before a tick and
// starts polling the clock: a Go sleep can overshoot by up to a
// millisecond (epoll's resolution), which would otherwise be added to
// every response time of the tick.
const spinAhead = 1200 * time.Microsecond

// wait returns at the instant at, sleeping and, before a tick, polling
// the clock for the last stretch. It returns how late it woke.
func (g *gen) wait(at int64, tick bool) int64 {
	sleepTo := at
	if tick {
		sleepTo -= int64(spinAhead)
	}
	if d := sleepTo - g.clk.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	now := g.clk.now()
	for tick && now < at {
		now = g.clk.now()
	}
	return now - at
}

// run issues frames client frames on the tick grid that starts at
// start. At each tick every bot drains and sends its move; half a frame
// later every bot drains again, which keeps snapshot decoding off the
// send burst. at(k), if set, runs at tick k's wake-up before its sends.
// Tick lateness is sampled for the first sampled frames. Only ticks
// count as the schedule: they are when moves are due, and a late drain
// changes no load.
func (g *gen) run(start int64, frames, sampled int, at func(k int)) {
	for k := 0; k < frames; k++ {
		due := start + int64(k)*int64(frame)
		late := g.wait(due, true)
		g.maxLate = max(g.maxLate, late)
		if k < sampled {
			g.late = append(g.late, float64(late)/1e6)
		}
		if at != nil {
			at(k)
		}
		for b, bot := range g.bots {
			bot.Drain()
			g.sent[b]++
			if seq := g.sent[b]; int(seq) < len(g.st[b].moves) {
				m := &g.st[b].moves[seq]
				m.due = due
				m.sent = g.clk.now()
			}
			bot.Step() // drains anything newer, then sends move seq
		}
		g.wait(due+int64(frame)/2, false)
		for _, bot := range g.bots {
			bot.Drain()
		}
	}
}
