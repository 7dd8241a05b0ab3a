package main

import (
	"fmt"
	"strconv"

	"amtlci/internal/bench"
	"amtlci/internal/core"
	"amtlci/internal/core/lcice"
	"amtlci/internal/core/mpice"
	"amtlci/internal/core/stack"
	"amtlci/internal/fabric"
	"amtlci/internal/hicma"
	"amtlci/internal/lci"
	"amtlci/internal/metrics"
	"amtlci/internal/mpi"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// Workload is one named input of the benchmark. Every workload runs one
// simulated job in this process, single-threaded except when Shards > 1.
type Workload struct {
	Name     string
	Backend  stack.Backend
	Shards   int  // 0 or 1: serial sim.Engine
	PingPong bool // false: HiCMA TLR Cholesky
	// SerialTwin names the serial workload whose fingerprint a sharded
	// one must reproduce.
	SerialTwin string
}

// Workloads lists the benchmark's workloads; BENCHMARK.json gives the
// reason for each.
var Workloads = []Workload{
	{Name: "hicma-lci", Backend: stack.LCI},
	{Name: "hicma-mpi", Backend: stack.MPI},
	{Name: "pingpong-lci", Backend: stack.LCI, PingPong: true},
	{Name: "hicma-lci-shards2", Backend: stack.LCI, Shards: 2, SerialTwin: "hicma-lci"},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Size is the problem size of a workload family.
type Size struct {
	N, NB, Nodes int   // HiCMA
	Frag, Total  int64 // ping-pong fragment and per-iteration volume
	Iters        int
}

// FullSize is the measured size: the ROADMAP's 256-node HiCMA reference
// point and the Fig 2a ping-pong at its smallest (8 KiB) fragment.
var FullSize = Size{N: 115200, NB: 1200, Nodes: 256, Frag: 8 << 10, Total: 256 << 20, Iters: 4}

// ToySize runs in well under a second per workload (tests).
var ToySize = Size{N: 14400, NB: 1200, Nodes: 16, Frag: 256 << 10, Total: 256 << 20, Iters: 4}

func (w Workload) ranks(sz Size) int {
	if w.PingPong {
		return 2
	}
	return sz.Nodes
}

func (w Workload) pingPongOpts(sz Size) bench.PingPongOpts {
	o := bench.DefaultPingPongOpts(w.Backend, sz.Frag)
	o.TotalPerIter = sz.Total
	o.Iters = sz.Iters
	return o
}

// newPool generates the workload's taskpool.
func (w Workload) newPool(sz Size) parsec.Taskpool {
	if w.PingPong {
		return bench.PingpongPoolForDebug(w.pingPongOpts(sz))
	}
	return hicma.NewVirtual(hicma.DefaultParams(sz.N, sz.NB), sz.Nodes)
}

// runtimeConfig mirrors the configuration of internal/bench's harnesses.
func (w Workload) runtimeConfig(sz Size, seed uint64) parsec.Config {
	cfg := parsec.DefaultConfig(bench.WorkersFor(w.Backend, w.ranks(sz)))
	cfg.Seed = seed
	if w.PingPong {
		cfg.FetchCap = 512
		cfg.FetchLazy = true
	} else {
		cfg.FetchCap = 64
	}
	return cfg
}

func (w Workload) stackOptions(sz Size, seed uint64) stack.Options {
	so := stack.DefaultOptions(w.Backend, w.ranks(sz))
	so.Seed = seed
	so.Shards = w.Shards
	return so
}

// Job is one assembled, not yet run, simulation.
type Job struct {
	W   Workload
	Sz  Size
	Dom sim.Domain
	Fab *fabric.Fabric
	RT  *parsec.Runtime
	Reg *metrics.Registry // every layer's counters
}

// Setup builds the job the way the program's own harnesses do, through
// stack.Build.
func Setup(w Workload, sz Size, seed uint64) *Job {
	pool := w.newPool(sz)
	s := stack.Build(w.stackOptions(sz, seed))
	cfg := w.runtimeConfig(sz, seed)
	cfg.Metrics = s.Metrics
	return &Job{W: w, Sz: sz, Dom: s.Dom, Fab: s.Fab, Reg: s.Metrics, RT: parsec.New(s.Dom, s.Engines, pool, cfg)}
}

// SetupTraced assembles the same job from the layers' public constructors,
// with tr's timing wrappers at every layer boundary: fabric.Network.Send
// and the fabric.Handler (lci/mpi <-> fabric), every core.Engine method and
// the callbacks it receives (parsec <-> lcice/mpice), and every
// parsec.Taskpool method (parsec -> taskpool). It must reproduce Setup's
// simulated result exactly; the fingerprint check enforces that.
func SetupTraced(w Workload, sz Size, seed uint64, tr *Tracer) (*Job, error) {
	so := w.stackOptions(sz, seed)
	n := so.Ranks
	reg := metrics.New()
	fc := so.Fabric
	if seed != 0 { // as stack.Build: seed 0 keeps the fabric's default
		fc.Seed = seed
	}
	fc.Metrics = reg
	var dom sim.Domain
	if w.Shards > 1 {
		par := sim.NewParallel(n, w.Shards, fabric.Lookahead(fc))
		par.SetLookahead(fabric.LookaheadMatrix(fc, n, par.Shards(), par.ShardOf))
		dom = par
	} else {
		dom = sim.NewEngine()
	}
	tr.bind(dom)
	fab, err := fabric.New(dom, n, fc)
	if err != nil {
		return nil, err
	}
	net := &tracedNet{Network: fab, tr: tr}
	engines := make([]core.Engine, n)
	switch w.Backend {
	case stack.LCI:
		cfg, ecfg := so.LCI, so.LCICE
		cfg.Metrics, ecfg.Metrics = reg, reg
		net.layer = layerLCI
		lrt := lci.NewRuntime(dom, net, cfg)
		for r := range engines {
			engines[r] = &tracedEngine{Engine: lcice.New(dom.RankEngine(r), lrt, r, ecfg), layer: layerLCICE, st: tr.shardOf(r)}
		}
	case stack.MPI:
		cfg, ecfg := so.MPI, so.MPICE
		cfg.Metrics, ecfg.Metrics = reg, reg
		net.layer = layerMPI
		world := mpi.NewWorld(dom, net, cfg)
		for r := range engines {
			engines[r] = &tracedEngine{Engine: mpice.New(dom.RankEngine(r), world, r, ecfg), layer: layerMPICE, st: tr.shardOf(r)}
		}
	}
	cfg := w.runtimeConfig(sz, seed)
	cfg.Metrics = reg
	rt := parsec.New(dom, engines, &tracedPool{Taskpool: w.newPool(sz), tr: tr}, cfg)
	return &Job{W: w, Sz: sz, Dom: dom, Fab: fab, RT: rt, Reg: reg}, nil
}

// Fingerprint identifies a job's simulated result. Events fired are left
// out: a sharded domain fires a few extra staging events while simulating
// the identical system.
type Fingerprint struct {
	MakespanPS int64  `json:"makespan_ps"`
	Tasks      int64  `json:"tasks"`
	Msgs       uint64 `json:"fabric_msgs"`
	Bytes      uint64 `json:"fabric_bytes"`
	Gbps       string `json:"gbps,omitempty"` // ping-pong only
}

func (f Fingerprint) String() string {
	s := fmt.Sprintf("makespan_ps=%d tasks=%d fabric_msgs=%d fabric_bytes=%d", f.MakespanPS, f.Tasks, f.Msgs, f.Bytes)
	if f.Gbps != "" {
		s += " gbps=" + f.Gbps
	}
	return s
}

// fingerprint reads the result of a finished job whose Run returned d.
func (j *Job) fingerprint(d sim.Duration) Fingerprint {
	var f Fingerprint
	f.MakespanPS = int64(d)
	for r := 0; r < j.Fab.Ranks(); r++ {
		f.Tasks += j.RT.Stats(r).TasksRun
		ps := j.Fab.Stats(r)
		f.Msgs += ps.MsgsSent
		f.Bytes += ps.BytesSent
	}
	if j.W.PingPong {
		o := j.W.pingPongOpts(j.Sz)
		window := o.TotalPerIter / o.FragSize
		bytes := float64(o.Iters-1) * float64(o.Streams) * float64(window) * float64(o.FragSize)
		f.Gbps = strconv.FormatFloat(bytes*8/d.Seconds()/1e9, 'f', 6, 64)
	}
	return f
}

// events is the number of simulation events the domain has fired; both
// sim.Engine and sim.Parallel count them.
func (j *Job) events() uint64 {
	if f, ok := j.Dom.(interface{ Fired() uint64 }); ok {
		return f.Fired()
	}
	return 0
}
