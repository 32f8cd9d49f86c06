package main

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"qserve/internal/botclient"
	"qserve/internal/experiments"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/match"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// The three workloads. Each stresses a different layer mix; see
// README.md for why each was chosen and which metrics it should move.
//
//   - maze:  the paper's configuration — 4x4 generated maze, 128 bots,
//     server.Parallel on nproc threads with optimized region locks. Per
//     move work (exec, collision, locking, reply) dominates.
//   - arena: one open room where everyone sees everyone — 64 bots firing
//     half their frames, on the threaded server.Sequential. Largest
//     snapshots and most combat per move; no region locks at all.
//   - fleet: a match.Manager hosting 200 idle and 32 active stepped
//     matches of 4 bots each on small 2x2 maps, admitted by match name
//     through a Lobby over a transport.Mux. Per-frame and per-match costs
//     dominate.
const (
	mazeBots       = 128
	arenaBots      = 64
	arenaFireProb  = 0.5
	fleetIdle      = 200
	fleetActive    = 32
	fleetBotsPer   = 4
	fleetMaxClient = fleetBotsPer + 2
)

var workloads = []string{"maze", "arena", "fleet"}

func numBots(workload string) int {
	switch workload {
	case "maze":
		return mazeBots
	case "arena":
		return arenaBots
	default:
		return fleetActive * fleetBotsPer
	}
}

// instance is one fully admitted workload: engines running, every bot
// holding an Accept.
type instance struct {
	workload string
	net      *transport.Network
	bots     []*botclient.Bot
	engines  []*engTrace
	threads  int // server threads (maze, arena) or scheduler workers (fleet)
	matches  int

	par   *server.Parallel
	seq   *server.Sequential
	mgr   *match.Manager
	lobby *match.Lobby
	fleet []*match.Match

	// Fleet, traced: PreStep counts.
	steps, idleSteps atomic.Int64
}

// seams returns the engine trace and its server.Config seams for one
// engine. Untraced engines get only the endpoint wrapper: no recorder,
// no hooks, no clock.
func seams(clk *clock, bots []botState, maxClients int, traced bool, cfg *server.Config) *engTrace {
	e := newEngTrace(clk, bots, maxClients, traced)
	if traced {
		cfg.Record = e
		cfg.Hooks.PreExec = e.preExec
		cfg.Clock = e.now
	}
	return e
}

// botSeed derives bot i's behaviour seed from the workload seed.
func botSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 17 }

// matchName derives an active (a) or idle (i) match's name from the seed.
func matchName(seed int64, kind byte, i int) string {
	return fmt.Sprintf("m%04x-%c%03d", uint16(seed*2654435761>>7), kind, i)
}

// setup builds the workload from the seed and admits every bot. It is
// the span setup_s measures: map generation, world, collision tree and
// areanode construction, engine start and serial admission.
func setup(workload string, seed int64, clk *clock, bots []botState, traced bool) (*instance, error) {
	switch workload {
	case "maze":
		return setupMaze(seed, clk, bots, traced)
	case "arena":
		return setupArena(seed, clk, bots, traced)
	case "fleet":
		return setupFleet(seed, clk, bots, traced)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func setupMaze(seed int64, clk *clock, bots []botState, traced bool) (*instance, error) {
	m, err := worldmap.Generate(experiments.PaperMapConfig(seed))
	if err != nil {
		return nil, err
	}
	w, err := game.NewWorld(game.Config{Map: m})
	if err != nil {
		return nil, err
	}
	threads := runtime.NumCPU()
	in := &instance{workload: "maze", net: transport.NewNetwork(transport.NetworkConfig{}), threads: threads, matches: 1}
	cfg := server.Config{World: w, Threads: threads, Strategy: locking.Optimized{}, MaxClients: mazeBots}
	e := seams(clk, bots, mazeBots, traced, &cfg)
	for i := 0; i < threads; i++ {
		c, err := in.net.Listen(fmt.Sprintf("srv:%d", i))
		if err != nil {
			return nil, err
		}
		cfg.Conns = append(cfg.Conns, &srvConn{Conn: c, e: e})
	}
	if in.par, err = server.NewParallel(cfg); err != nil {
		return nil, err
	}
	in.engines = []*engTrace{e}
	in.par.Start()
	return in, in.admit(seed, 0, func(int) (*worldmap.Map, string) { return m, "" })
}

func setupArena(seed int64, clk *clock, bots []botState, traced bool) (*instance, error) {
	// The layout stays DefaultArenaConfig's own: one match cannot average
	// over layouts, and seeding it moved server CPU per reply by up to a
	// fifth from seed to seed. The seed drives the bots.
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		return nil, err
	}
	w, err := game.NewWorld(game.Config{Map: m})
	if err != nil {
		return nil, err
	}
	in := &instance{workload: "arena", net: transport.NewNetwork(transport.NetworkConfig{}), threads: 1, matches: 1}
	c, err := in.net.Listen("srv:0")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{World: w, MaxClients: arenaBots}
	e := seams(clk, bots, arenaBots, traced, &cfg)
	cfg.Conns = []transport.Conn{&srvConn{Conn: c, e: e}}
	if in.seq, err = server.NewSequential(cfg); err != nil {
		return nil, err
	}
	in.engines = []*engTrace{e}
	in.seq.Start()
	return in, in.admit(seed, arenaFireProb, func(int) (*worldmap.Map, string) { return m, "" })
}

func setupFleet(seed int64, clk *clock, bots []botState, traced bool) (*instance, error) {
	in := &instance{
		workload: "fleet",
		// Every bot's datagrams cross the lobby's one endpoint.
		net:     transport.NewNetwork(transport.NetworkConfig{QueueLen: 8192}),
		matches: fleetIdle + fleetActive,
	}
	var mcfg match.Config
	if traced {
		mcfg.Hooks.PreStep = func(name string) {
			in.steps.Add(1)
			if name[len(name)-4] == 'i' {
				in.idleSteps.Add(1)
			}
		}
	}
	in.mgr = match.NewManager(mcfg)
	in.threads = runtime.GOMAXPROCS(0) // the Manager's default worker count
	srv, err := in.net.Listen("srv:0")
	if err != nil {
		return nil, err
	}
	in.lobby = match.NewLobby(in.mgr, srv)
	// Every match plays its own seeded map of the instancing experiment's
	// 2x2 configuration: with one map for all, the fleet's exec cost was
	// that one map's, and it varied by a third from seed to seed.
	maps := make([]*worldmap.Map, in.matches)
	for k := range maps {
		mc := worldmap.DefaultConfig()
		mc.Rows, mc.Cols = 2, 2
		mc.ItemsPerRoom = 1
		mc.TeleporterPairs = 0
		mc.Seed = seed*1000 + int64(k) + 1
		if maps[k], err = worldmap.Generate(mc); err != nil {
			return nil, err
		}
	}
	create := func(k int, name string) error {
		mt, err := in.lobby.CreateMatch(name, func(conn transport.Conn) (*server.Sequential, error) {
			w, err := game.NewWorld(game.Config{Map: maps[k]})
			if err != nil {
				return nil, err
			}
			cfg := server.Config{World: w, MaxClients: fleetMaxClient, Shared: in.mgr.Shared()}
			e := seams(clk, bots, fleetMaxClient, traced, &cfg)
			cfg.Conns = []transport.Conn{&srvConn{Conn: conn, e: e}}
			in.engines = append(in.engines, e)
			return server.NewSequential(cfg)
		})
		in.fleet = append(in.fleet, mt)
		return err
	}
	for i := 0; i < fleetIdle; i++ {
		if err := create(i, matchName(seed, 'i', i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fleetActive; i++ {
		if err := create(fleetIdle+i, matchName(seed, 'a', i)); err != nil {
			return nil, err
		}
	}
	in.mgr.Start()
	return in, in.admit(seed, 0, func(i int) (*worldmap.Map, string) {
		a := i / fleetBotsPer
		return maps[fleetIdle+a], matchName(seed, 'a', a)
	})
}

// admit creates the bots on their own endpoints and connects them one
// at a time, each to the server's first endpoint (the lobby for fleet).
// place gives bot i's map and the match it asks for.
func (in *instance) admit(seed int64, fireProb float64, place func(i int) (*worldmap.Map, string)) error {
	n := numBots(in.workload)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b%d", i)
		c, err := in.net.Listen(name)
		if err != nil {
			return err
		}
		m, matchName := place(i)
		bot, err := botclient.New(botclient.Config{
			Name:     name,
			Conn:     c,
			Server:   transport.MemAddr("srv:0"),
			Map:      m,
			Seed:     botSeed(seed, i),
			FireProb: fireProb,
			Match:    matchName,
		})
		if err != nil {
			return err
		}
		if err := bot.Connect(); err != nil {
			return fmt.Errorf("bot %d: %w", i, err)
		}
		in.bots = append(in.bots, bot)
	}
	return nil
}

// stop halts every engine; afterwards engine state is safe to read.
func (in *instance) stop() {
	switch {
	case in.par != nil:
		in.par.Stop()
	case in.seq != nil:
		in.seq.Stop()
	case in.mgr != nil:
		in.mgr.Stop()
		in.lobby.Close()
	}
}

// faults returns the engines' fault counters: clients evicted by panic
// containment, panics recovered, and matches evicted.
func (in *instance) faults() (evictions, panics, matchEvictions int64) {
	add := func(ev int64, eng server.Engine) {
		evictions += ev
		for _, bd := range eng.Breakdowns() {
			panics += bd.PanicsRecovered
		}
	}
	switch {
	case in.par != nil:
		add(in.par.FaultEvictions(), in.par)
	case in.seq != nil:
		add(in.seq.FaultEvictions(), in.seq)
	case in.mgr != nil:
		for _, mt := range in.fleet {
			add(mt.Engine().FaultEvictions(), mt.Engine())
		}
		matchEvictions = int64(in.mgr.Evictions())
	}
	return
}
