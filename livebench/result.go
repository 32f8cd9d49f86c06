package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"syscall"
)

// snap is the state of the process and every engine at a window edge.
type snap struct {
	t          int64 // clock.now
	procCPU    int64 // getrusage(RUSAGE_SELF), ns
	driverCPU  int64 // getrusage(RUSAGE_THREAD) on the driver thread, ns
	stamped    int64 // snapshot replies stamped by the server wrappers
	engines    []layerCounts
	steps      int64
	idleSteps  int64
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	gcCycles   uint64
}

// rusageThread is Linux's RUSAGE_THREAD, absent from package syscall.
const rusageThread = 1

// cpuNs is the CPU time of the process or the calling thread. main has
// checked that per-thread accounting works, and getrusage cannot fail
// otherwise.
func cpuNs(who int) int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// checkCPUAccounting reports whether this kernel has RUSAGE_THREAD.
func checkCPUAccounting() error {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return fmt.Errorf("per-thread CPU accounting: %w", err)
	}
	return nil
}

// takeSnap must run on the driver goroutine (RUSAGE_THREAD).
func takeSnap(clk *clock, in *instance, bots []botState) snap {
	runtimeSamples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	s := snap{t: clk.now(), procCPU: cpuNs(syscall.RUSAGE_SELF), driverCPU: cpuNs(rusageThread)}
	for i := range bots {
		s.stamped += bots[i].stamped.Load()
	}
	s.engines = make([]layerCounts, len(in.engines))
	for i, e := range in.engines {
		s.engines[i] = e.counts()
	}
	s.steps, s.idleSteps = in.steps.Load(), in.idleSteps.Load()
	metrics.Read(runtimeSamples)
	s.allocs = runtimeSamples[0].Value.Uint64()
	s.allocBytes = runtimeSamples[1].Value.Uint64()
	s.gcCPU = runtimeSamples[2].Value.Float64()
	s.gcCycles = runtimeSamples[3].Value.Uint64()
	return s
}

// heapLive is the live heap as of the last completed GC.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// result is one measured run. Its window is a run of one-second
// sub-windows; each end-to-end number is the median over the valid
// sub-windows, and a sub-window is valid when the generator never fell
// more than one client frame behind its schedule in it. The host's CPU
// steal stalls the whole process for tens of milliseconds now and then;
// a sub-window with such a stall did not carry the stated load, so it
// contributes nothing, and the median keeps shorter stalls from moving
// the figures.
type result struct {
	workload string
	traced   bool
	matches  int
	threads  int

	setupS    []float64
	heapSetup float64 // live heap added by the final set-up, bytes
	heapLive  float64 // live heap after the window, bytes

	edges       []snap // at every sub-window boundary
	windowStart int64
	late        []float64 // tick lateness over the window, ms, in tick order
	maxLate     int64     // worst tick lateness over the run, ns
	valid       []bool    // per sub-window

	attempted, failed int64       // moves due in valid sub-windows
	resp              [][]float64 // per sub-window, ms, sorted; +Inf if unanswered
	wait, queue, exec []float64   // µs, sorted (traced)
	replyWait         []float64   // µs, sorted (traced)

	spans       []botState // traced: every move's stamps, kept for writeSpans
	netDrops    int64
	scratchSets int
	stepP50Us   float64
	lateP99Ms   float64

	problems []string
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) nSub() int { return len(r.edges) - 1 }

// sub returns the sub-window a move due at due belongs to, or -1.
func (r *result) sub(due int64) int {
	j := (due - r.windowStart) / (subFrames * int64(frame))
	if due < r.windowStart || j >= int64(r.nSub()) {
		return -1
	}
	return int(j)
}

// collect marks the valid sub-windows and derives per-move samples from
// the moves due in them.
func (r *result) collect(in *instance, bots []botState, sent []uint32) {
	r.valid = make([]bool, r.nSub())
	r.resp = make([][]float64, r.nSub())
	for j := range r.valid {
		r.valid[j] = slices.Max(r.late[j*subFrames:(j+1)*subFrames]) <= float64(frame)/1e6
	}
	for b := range bots {
		moves := bots[b].moves
		for s := 1; s <= int(sent[b]) && s < len(moves); s++ {
			m := &moves[s]
			j := r.sub(m.due)
			if j < 0 || !r.valid[j] {
				continue
			}
			r.attempted++
			if m.reply == 0 {
				r.failed++
				r.resp[j] = append(r.resp[j], math.Inf(1))
			} else {
				r.resp[j] = append(r.resp[j], float64(m.reply-m.due)/1e6)
			}
			if !r.traced {
				continue
			}
			if m.recv != 0 {
				r.wait = append(r.wait, float64(m.recv-m.sent)/1e3)
			}
			if m.pre != 0 && m.recv != 0 {
				r.queue = append(r.queue, float64(m.pre-m.recv)/1e3)
			}
			if m.commit != 0 && m.pre != 0 {
				r.exec = append(r.exec, float64(m.commit-m.pre)/1e3)
			}
			if m.reply != 0 && m.commit != 0 {
				r.replyWait = append(r.replyWait, float64(m.reply-m.commit)/1e3)
			}
		}
	}
	if r.traced {
		r.spans = bots
	}
	for _, xs := range append([][]float64{r.wait, r.queue, r.exec, r.replyWait}, r.resp...) {
		slices.Sort(xs)
	}
	_, _, r.netDrops = in.net.Stats()
	if in.mgr != nil {
		r.scratchSets = in.mgr.Shared().Made()
		ag := in.mgr.AggregateStats()
		r.stepP50Us = ag.StepHist.P50() * 1000
		r.lateP99Ms = ag.LateHist.P99()
	}
}

// check runs the correctness checks. On the lossless in-memory network
// every one of them must hold; a failure voids the run's numbers.
func (r *result) check(in *instance, bots []botState, sent []uint32) {
	if r.netDrops != 0 {
		r.failf("network dropped %d datagrams", r.netDrops)
	}
	ev, panics, mev := in.faults()
	if ev != 0 || panics != 0 || mev != 0 {
		r.failf("fault evictions %d, recovered panics %d, match evictions %d", ev, panics, mev)
	}
	for i, bot := range in.bots {
		st := &bots[i]
		switch {
		case bot.Resyncs != 0:
			r.failf("bot %d resynced %d times", i, bot.Resyncs)
		case bot.Moved <= 0:
			r.failf("bot %d never moved", i)
		case st.ackErrs != 0:
			r.failf("bot %d: %d replies acked a seq below an earlier ack or above the highest received", i, st.ackErrs)
		case st.stamped.Load() != bot.Snapshots:
			r.failf("bot %d: server sent %d snapshots, bot drained %d", i, st.stamped.Load(), bot.Snapshots)
		case st.recvd != int64(sent[i]):
			r.failf("bot %d: sent %d moves, server received %d", i, sent[i], st.recvd)
		}
	}
	// A stall now and then is the host's; falling behind in more than a
	// fifth of the window is the generator's, and voids the run.
	if n := r.validCount(); n*5 < r.nSub()*4 {
		r.failf("generator fell more than one %v client frame behind its schedule in %d of %d sub-windows",
			frame, r.nSub()-n, r.nSub())
	}
	if r.attempted == 0 {
		r.failf("no moves in the window")
	}
}

func (r *result) validCount() (n int) {
	for _, v := range r.valid {
		if v {
			n++
		}
	}
	return n
}

// overValid returns the median of f over the valid sub-windows.
func (r *result) overValid(f func(j int) float64) float64 {
	var xs []float64
	for j, v := range r.valid {
		if v {
			xs = append(xs, f(j))
		}
	}
	return median(xs)
}

// cpuPerReply is the CPU of the server side (process minus the driver
// thread) or, with driver set, of the generator, per snapshot sent
// between snapshots a and b, in µs.
func cpuPerReply(a, b *snap, driver bool) float64 {
	ns := (b.procCPU - a.procCPU) - (b.driverCPU - a.driverCPU)
	if driver {
		ns = b.driverCPU - a.driverCPU
	}
	return float64(ns) / 1e3 / float64(b.stamped-a.stamped)
}

func (r *result) respMs(q float64) float64 {
	return r.overValid(func(j int) float64 { return quantile(r.resp[j], q) })
}

func (r *result) subCPU(driver bool) float64 {
	return r.overValid(func(j int) float64 { return cpuPerReply(&r.edges[j], &r.edges[j+1], driver) })
}

func (r *result) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":                 {median(r.setupS), "s"},
		"resp_p50_ms":             {r.respMs(0.50), "ms"},
		"resp_p95_ms":             {r.respMs(0.95), "ms"},
		"answered_share":          {float64(r.attempted-r.failed) / float64(r.attempted), "fraction"},
		"server_cpu_us_per_reply": {r.subCPU(false), "us"},
		"heap_live_mb":            {r.heapLive / (1 << 20), "MB"},
	}
}

// perLayer reports the traced run's layer metrics, over the whole window,
// and its overhead against plain, the untraced run of the same seed.
func (r *result) perLayer(plain *result) map[string]metric {
	w0, w1 := &r.edges[0], &r.edges[r.nSub()]
	secs := float64(w1.t-w0.t) / 1e9
	replies := float64(w1.stamped - w0.stamped)
	// d sums the window's counts over every engine; moves per frame
	// counts only the frames of engines that served moves (fleet's idle
	// matches tick without any).
	var d layerCounts
	var activeFrames, activeCommits int64
	for i := range w1.engines {
		var e layerCounts
		for c := range e {
			e[c] = w1.engines[i][c] - w0.engines[i][c]
			d[c] += e[c]
		}
		if e[cCommits] > 0 {
			activeFrames += e[cFrames]
			activeCommits += e[cCommits]
		}
	}
	f := func(c int) float64 { return float64(d[c]) }
	steps := float64(w1.steps - w0.steps)
	procCPU := float64(w1.procCPU-w0.procCPU) / 1e9
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	late := sorted(r.late)
	return map[string]metric{
		"gen.late_p50_ms":                 {quantile(late, 0.50), "ms"},
		"gen.late_p99_ms":                 {quantile(late, 0.99), "ms"},
		"gen.cpu_us_per_reply":            {r.subCPU(true), "us"},
		"transport.wait_us_p50":           {quantile(r.wait, 0.50), "us"},
		"transport.idle_share":            {f(cRecvNs) / 1e9 / (secs * float64(r.threads)), "fraction"},
		"transport.send_ns_per_pkt":       {ratio(f(cSendNs), f(cPktsOut)), "ns"},
		"transport.reply_bytes_mean":      {ratio(f(cSnapBytes), f(cSnaps)), "B"},
		"transport.pkts_in_per_s":         {f(cPktsIn) / secs, "1/s"},
		"transport.pkts_out_per_s":        {f(cPktsOut) / secs, "1/s"},
		"transport.drops":                 {float64(r.netDrops), "count"},
		"server.queue_us_p50":             {quantile(r.queue, 0.50), "us"},
		"server.reply_wait_us_p50":        {quantile(r.replyWait, 0.50), "us"},
		"server.reply_us_per_reply":       {ratio(f(cReplySpan)/1e3, f(cSnaps)), "us"},
		"server.frames_per_s":             {f(cFrames) / secs, "1/s"},
		"server.moves_per_frame":          {ratio(float64(activeCommits), float64(activeFrames)), "count"},
		"server.committed_share":          {ratio(f(cCommits), f(cMovesIn)), "fraction"},
		"server.scratch_sets":             {float64(r.scratchSets), "count"},
		"game.exec_us_p50":                {quantile(r.exec, 0.50), "us"},
		"game.exec_us_p99":                {quantile(r.exec, 0.99), "us"},
		"game.world_us_per_tick":          {ratio(f(cWorldNs)/1e3, f(cTicks)), "us"},
		"match.steps_per_s":               {steps / secs, "1/s"},
		"match.idle_steps_share":          {ratio(float64(w1.idleSteps-w0.idleSteps), steps), "fraction"},
		"match.late_ms_p99":               {r.lateP99Ms, "ms"},
		"match.step_us_p50":               {r.stepP50Us, "us"},
		"match.heap_kb_per_match":         {r.heapSetup / 1024 / float64(r.matches), "KB"},
		"runtime.allocs_per_reply":        {float64(w1.allocs-w0.allocs) / replies, "count"},
		"runtime.alloc_bytes_per_reply":   {float64(w1.allocBytes-w0.allocBytes) / replies, "B"},
		"runtime.gc_cpu_share":            {ratio(w1.gcCPU-w0.gcCPU, procCPU), "fraction"},
		"runtime.gc_cycles":               {float64(w1.gcCycles - w0.gcCycles), "count"},
		"trace.overhead_resp_p50_ms":      {r.respMs(0.50) - plain.respMs(0.50), "ms"},
		"trace.overhead_resp_p95_ms":      {r.respMs(0.95) - plain.respMs(0.95), "ms"},
		"trace.overhead_cpu_us_per_reply": {r.subCPU(false) - plain.subCPU(false), "us"},
	}
}

// print writes the human-readable run summary, including the diagnostics
// that gate nothing (p99, generator health, per-set-up times).
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	late := sorted(r.late)
	fmt.Fprintf(w, "livebench %s (%s): %d of %d sub-windows valid, %d moves due in them, %d unanswered\n",
		r.workload, mode, r.validCount(), r.nSub(), r.attempted, r.failed)
	fmt.Fprintf(w, "  setup_s per set-up: %v\n", r.setupS)
	fmt.Fprintf(w, "  resp ms: p50 %.3f  p95 %.3f  p99 %.3f (diagnostic)\n",
		r.respMs(0.5), r.respMs(0.95), r.respMs(0.99))
	fmt.Fprintf(w, "  gen: late p50 %.3f ms  p99 %.3f ms  max %.3f ms  cpu %.2f us/reply\n",
		quantile(late, 0.5), quantile(late, 0.99), float64(r.maxLate)/1e6, r.subCPU(true))
	fmt.Fprintf(w, "  server cpu %.2f us/reply, heap live %.1f MB, gc cycles %d\n",
		r.subCPU(false), r.heapLive/(1<<20), r.edges[r.nSub()].gcCycles-r.edges[0].gcCycles)
	fmt.Fprintf(w, "  server cpu us/reply per sub-window:")
	for j := 0; j < r.nSub(); j++ {
		fmt.Fprintf(w, " %.1f", cpuPerReply(&r.edges[j], &r.edges[j+1], false))
	}
	fmt.Fprintln(w)
	if r.workload != "fleet" && r.traced {
		fmt.Fprintf(w, "  match.* steps, lateness and scratch sets are fleet-only (no match scheduler here): reported as 0\n")
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted exact samples xs; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	lo, hi := xs[i], xs[i+1]
	if math.IsInf(hi, 1) {
		return hi
	}
	return lo + (hi-lo)*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// writeSpans writes the window's per-move records, one line per (bot,
// seq): the stamps in nanoseconds since the run's base instant, 0 where
// a stage was not observed.
func (r *result) writeSpans(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", r.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "bot\tseq\tdue\tsent\trecv\tpre_exec\tcommit\treply")
	for b := range r.spans {
		for s, m := range r.spans[b].moves {
			if r.sub(m.due) >= 0 {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", b, s, m.due, m.sent, m.recv, m.pre, m.commit, m.reply)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
