// Command livebench drives qserve's live engines with bots on an
// in-memory network from one process and reports what the players see
// (end-to-end metrics) or, with --trace 1, where the time goes layer by
// layer. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh from the repository root:
//
//	bash livebench/run.sh --workload maze --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metric definitions and the
// prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
	"unsafe"
)

// setupRuns is how many times an untraced run builds the workload; it
// reports the median set-up time and measures the last instance.
const setupRuns = 9

// gcPercent is the process's GOGC. At the default 100 on 2 vCPUs,
// fleet's ~220 MB live heap is collected about once per 10 s of load, so
// a window held one collection or none and server CPU per reply jumped
// between the two, and a collection's mark assists stalled the generator
// by 10-13 ms. At 400 a fleet window holds none (every window starts
// right after a forced collection), and maze's and arena's small heaps
// are still collected several times per window, so their GC cost
// averages out. runtime.gc_cycles and runtime.alloc*_per_reply in the
// traced run show what allocation costs.
const gcPercent = 400

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The driver goroutine owns this OS thread for the whole run, so the
	// thread's CPU time is the generator's and nothing else's.
	runtime.LockOSThread()
	debug.SetGCPercent(gcPercent)

	workload := flag.String("workload", "", "maze, arena or fleet")
	seed := flag.Int64("seed", 1, "workload seed: map, bot seeds and match names derive from it")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	spans := flag.String("spans", "", "directory the traced run writes its per-move spans to")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: livebench --workload maze|arena|fleet --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}

	if err := checkCPUAccounting(); err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}

	var rep report
	var res *result
	var err error
	if *trace == 0 {
		res, err = measure(*workload, *seed, *seconds, false, setupRuns)
		if err == nil {
			rep.Metrics = res.endToEnd()
		}
	} else {
		var plain *result
		plain, err = measure(*workload, *seed, *seconds, false, 1)
		if err == nil && plain.correct() {
			res, err = measure(*workload, *seed, *seconds, true, 1)
			if err == nil {
				rep.Metrics = res.perLayer(plain)
				if *spans != "" {
					err = res.writeSpans(*spans, *seed)
				}
			}
		} else {
			res = plain
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	rep.Correct = res.correct()
	rep.Attempted, rep.Failed = res.attempted, res.failed
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is not finite", name))
			rep.Correct = false
		}
	}
	if !rep.Correct {
		// A run that failed a check reports no numbers.
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "livebench: check failed: %s\n", p)
		}
		rep.Metrics = map[string]metric{}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// Load shape shared by every workload: an open loop on a 33 ms client
// frame grid, a warm-up, then the window of whole sub-windows, then a
// short tail so moves due near the window's end can still be answered.
const (
	frame     = 33 * time.Millisecond
	subFrames = 30 // frames per sub-window (0.99 s)
	warmup    = 3 * time.Second
	tail      = 300 * time.Millisecond
	settle    = 150 * time.Millisecond
)

// measure builds the workload (setups times, keeping the last), drives
// it for the window and checks the run.
func measure(workload string, seed int64, seconds int, traced bool, setups int) (*result, error) {
	clk := &clock{base: time.Now()}
	warmFrames := int(warmup / frame)
	nSub := max(1, int(time.Duration(seconds)*time.Second/frame)/subFrames)
	winFrames := nSub * subFrames
	tailFrames := int(tail / frame)
	bots := make([]botState, numBots(workload))
	for i := range bots {
		bots[i].moves = make([]moveRec, warmFrames+winFrames+tailFrames+1)
	}
	r := &result{workload: workload, traced: traced, edges: make([]snap, nSub+1)}

	var in *instance
	var heapBefore uint64
	for i := 0; i < setups; i++ {
		if in != nil {
			in.stop()
			in = nil
		}
		// Every set-up starts from the same collected heap.
		runtime.GC()
		heapBefore = heapLive()
		t0 := time.Now()
		var err error
		in, err = setup(workload, seed, clk, bots, traced)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if err != nil {
			if in != nil {
				in.stop()
			}
			return nil, fmt.Errorf("%s setup: %w", workload, err)
		}
	}
	runtime.GC()
	r.heapSetup = float64(heapLive()) - float64(heapBefore)
	r.matches = in.matches
	r.threads = in.threads

	g := newGen(clk, in.bots, bots)
	g.run(clk.now()+int64(frame), warmFrames, 0, nil)
	// Every window starts from the same GC state; the schedule restarts
	// after the collection so its pause is not generator lateness.
	runtime.GC()
	start := clk.now() + int64(frame)
	g.run(start, winFrames+tailFrames, winFrames, func(k int) {
		if k%subFrames == 0 && k <= winFrames {
			r.edges[k/subFrames] = takeSnap(clk, in, bots)
		}
	})
	time.Sleep(settle)
	runtime.GC()
	// The per-move records are the benchmark's, not the program's.
	records := len(bots) * len(bots[0].moves) * int(unsafe.Sizeof(moveRec{}))
	r.heapLive = float64(heapLive()) - float64(records)
	in.stop()
	for _, b := range in.bots {
		b.Drain()
	}

	r.windowStart = start
	r.late, r.maxLate = g.late, g.maxLate
	r.collect(in, bots, g.sent)
	r.check(in, bots, g.sent)
	return r, nil
}
