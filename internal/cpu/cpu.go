// Package cpu is the trace-driven processor model: the substrate the
// paper evaluates every prefetcher on (§IV-A). It models:
//
//   - A decoupled front-end: a branch-prediction engine forms fetch
//     blocks (maximal runs of instructions on one cache line along the
//     correct path) into an FTQ, and the L1I lookup for a block is
//     issued when the block enters the FTQ — fetch-directed
//     prefetching, whose lookups are demand accesses, exactly as the
//     paper's baseline states.
//   - A seven-stage pipeline with different branch-misprediction
//     penalties depending on the stage that detects the redirect (BTB
//     miss at decode, direction/target misprediction at execute).
//   - An out-of-order backend as an interval model: a ROB-occupancy
//     ring provides dispatch backpressure, loads stall retirement with
//     real L1D/L2/LLC/DRAM latencies, and retire bandwidth is bounded.
//
// A run is two passes over the instruction stream. The branch
// predictor and the L1D's tag array depend on the trace alone, not on
// timing, so a presolve pass runs them first and records one outcome
// byte per branch and per memory op (presolve.go). The pipeline pass
// then replays those outcomes through the front-end, the L1I and its
// prefetcher, the L1D's timing and the backend, and produces IPC, miss
// ratios and every prefetcher metric. A whole packed trace is presolved
// once and shared by every machine that replays it (RunPresolvedCtx),
// the machine's one loop; RunWindows packs and presolves any other
// source first and then replays it the same way. Every run is
// deterministic.
package cpu

import (
	"context"
	"errors"

	"entangling/internal/bpred"
	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/stats"
	"entangling/internal/trace"
)

// Config assembles the machine. DefaultConfig models the paper's
// Sunny-Cove-like baseline (Table III).
type Config struct {
	// FetchWidth is instructions fetched per cycle from a ready block.
	FetchWidth int
	// RetireWidth is instructions retired per cycle.
	RetireWidth int
	// ROBSize bounds in-flight instructions.
	ROBSize int
	// FrontDepth is the fetch-to-dispatch depth in cycles.
	FrontDepth uint64
	// FTQDepth is how many fetch blocks the prediction engine may run
	// ahead of fetch (the decoupled front-end's natural prefetch reach).
	FTQDepth int
	// BTBMissPenalty is the redirect penalty for taken branches whose
	// target was not in the BTB (detected at decode).
	BTBMissPenalty uint64
	// MispredictPenalty is the redirect penalty for direction/target
	// mispredictions (detected at execute).
	MispredictPenalty uint64

	L1I  cache.ICacheConfig
	L1D  cache.TimingConfig
	L2   cache.TimingConfig
	LLC  cache.TimingConfig
	DRAM cache.DRAMConfig
	Pred bpred.Config

	// Prefetcher constructs the L1I prefetcher; nil means none.
	Prefetcher prefetch.Factory

	// PhysicalAddresses trains the whole hierarchy (and therefore the
	// prefetcher) on physical line addresses through a 4KB-page
	// translator, as in §IV-E.
	PhysicalAddresses bool
	// TranslatorSalt decorrelates page mappings between workloads.
	TranslatorSalt uint64
}

// DefaultConfig returns the baseline machine of Table III.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        6,
		RetireWidth:       6,
		ROBSize:           352,
		FrontDepth:        5,
		FTQDepth:          24,
		BTBMissPenalty:    3,
		MispredictPenalty: 2,
		L1I: cache.ICacheConfig{
			Sets: 64, Ways: 8, Latency: 4, MSHRs: 10, PQSize: 32,
		},
		L1D: cache.TimingConfig{Sets: 64, Ways: 12, Latency: 5, ServiceInterval: 0},
		L2:  cache.TimingConfig{Sets: 1024, Ways: 8, Latency: 14, ServiceInterval: 1},
		LLC: cache.TimingConfig{Sets: 2048, Ways: 16, Latency: 34, ServiceInterval: 2},
		DRAM: cache.DRAMConfig{
			Latency: 200, ServiceInterval: 8, JitterMask: 0x3F,
		},
	}
}

// Results summarizes one run.
type Results struct {
	// PrefetcherName is the active configuration ("no" when none).
	PrefetcherName string
	// StorageBits is the prefetcher's hardware budget.
	StorageBits uint64

	Instructions uint64
	Cycles       uint64
	IPC          float64

	L1I       cache.Stats
	L1D       cache.Stats
	L2        cache.Stats
	LLC       cache.Stats
	DRAMReads uint64

	CondAccuracy float64
	BTBMisses    uint64
	Redirects    uint64

	// FetchBlocks is the number of fetch blocks formed (L1I demand
	// accesses issued by the front-end).
	FetchBlocks uint64

	// Lifecycle breaks prefetches down by fate (timely / late /
	// early-evicted / inaccurate) with the cycles late prefetches
	// still saved.
	Lifecycle stats.PrefetchLifecycle
	// LeadP50 and LeadP99 are the median and 99th-percentile
	// fill-to-first-use leads (cycles) of the timely prefetches in this
	// window. The underlying histogram is snapshot at window start and
	// diffed like every other counter, so warmup samples never leak
	// into measured quantiles. Zero when the window had no timely
	// prefetch with a recorded lead.
	LeadP50 int
	LeadP99 int
	// Stalls attributes front-end and dispatch stall cycles to their
	// causes; Stalls.Total() is the complete attributed count.
	Stalls stats.StallBreakdown
}

// L1IMPKI returns L1I demand misses per kilo-instruction.
func (r *Results) L1IMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L1I.Misses) / float64(r.Instructions) * 1000
}

// L1IHitRate returns the L1I demand hit rate.
func (r *Results) L1IHitRate() float64 {
	if r.L1I.Accesses == 0 {
		return 0
	}
	return float64(r.L1I.Hits) / float64(r.L1I.Accesses)
}

// ErrMachineUsed reports an attempt to run a Machine whose run already
// completed (or was canceled partway). Build a new Machine with New.
var ErrMachineUsed = errors.New("cpu: machine already consumed by a previous run")

// Machine is an assembled simulator instance. Build one per run.
type Machine struct {
	cfg Config

	// used is set when a run starts. Reusing a consumed machine would
	// silently fold one run's warmed microarchitectural state into the
	// next run's "warmup", so a second run fails loudly instead of
	// corrupting windowed statistics.
	used bool

	icache *cache.ICache
	// l1d is a timing stage: its tag step is presolved.
	l1d     *cache.TimingCache
	l2      *cache.TimingCache
	llc     *cache.TimingCache
	dram    *cache.DRAM
	pf      prefetch.Prefetcher
	trans   cache.Translator
	tracker *cache.LifecycleTracker

	// presolved is the trace the run replays, with its outcomes.
	presolved *Presolved

	// Branch counters, from the presolved outcomes.
	condLookups    uint64
	dirMispredicts uint64
	btbMisses      uint64

	// stalls accumulates cycle attribution; redirectFromBTB records
	// the cause of the pending redirect for bucketing.
	stalls          stats.StallBreakdown
	redirectFromBTB bool

	// Front-end cycle trackers.
	nextPredict uint64
	nextFetch   uint64
	redirect    uint64
	ftqRing     []uint64 // fetchStart of block i stored at i%FTQDepth
	blockIdx    uint64
	ftqPos      int // blockIdx % FTQDepth, kept as a wrapping cursor

	// Backend rings. robPos/widthPos track instrIdx modulo each ring
	// length as wrapping cursors, avoiding per-instruction divides.
	robRing    []uint64 // retire cycle of instruction i at i%ROBSize
	widthRing  []uint64 // retire cycles of the last RetireWidth instrs
	robPos     int
	widthPos   int
	lastRetire uint64

	instrIdx uint64

	// Block-formation state (persists across run windows).
	haveBlock   bool
	curVirtLine uint64
	fetchStart  uint64
	blockCount  int
	forceBlock  bool
	blocks      uint64
	redirects   uint64
}

// teeListener fans L1I events out to the prefetcher and the lifecycle
// tracker.
type teeListener struct {
	a, b cache.Listener
}

func (t teeListener) OnAccess(e cache.AccessEvent) { t.a.OnAccess(e); t.b.OnAccess(e) }
func (t teeListener) OnFill(e cache.FillEvent)     { t.a.OnFill(e); t.b.OnFill(e) }
func (t teeListener) OnEvict(e cache.EvictEvent)   { t.a.OnEvict(e); t.b.OnEvict(e) }

// New assembles a machine from cfg.
func New(cfg Config) *Machine {
	m := &Machine{cfg: cfg}
	m.dram = cache.NewDRAM(cfg.DRAM)
	m.llc = cache.NewTimingCache(cfg.LLC, m.dram)
	m.l2 = cache.NewTimingCache(cfg.L2, m.llc)
	m.l1d = cache.NewTimingStage(cfg.L1D, m.l2)
	m.icache = cache.NewICache(cfg.L1I, m.l2, nil)
	m.trans = cache.Translator{Salt: cfg.TranslatorSalt}

	if cfg.Prefetcher != nil {
		m.pf = cfg.Prefetcher(m.icache)
	} else {
		m.pf = prefetch.NewNone(m.icache)
	}
	// The lifecycle tracker observes every L1I event after the
	// prefetcher and routes late/useless feedback back to it when the
	// prefetcher cares (implements cache.FeedbackSink).
	sink, _ := m.pf.(cache.FeedbackSink)
	m.tracker = cache.NewLifecycleTracker(sink)
	m.icache.SetListener(teeListener{a: m.pf, b: m.tracker})

	if cfg.FTQDepth < 1 {
		m.cfg.FTQDepth = 1
	}
	m.ftqRing = make([]uint64, m.cfg.FTQDepth)
	m.robRing = make([]uint64, cfg.ROBSize)
	m.widthRing = make([]uint64, cfg.RetireWidth)
	return m
}

// Prefetcher exposes the active prefetcher (for per-prefetcher stats
// such as Entangling's compression histograms).
func (m *Machine) Prefetcher() prefetch.Prefetcher { return m.pf }

// fetchLine maps an instruction byte address to the line address the
// hierarchy operates on.
func (m *Machine) fetchLine(pc uint64) uint64 {
	l := cache.LineAddr(pc)
	if m.cfg.PhysicalAddresses {
		return m.trans.Translate(l)
	}
	return l
}

// snapshot captures the counters needed to compute windowed results.
type snapshot struct {
	l1i, l1d, l2, llc cache.Stats
	dramReads         uint64
	condLookups       uint64
	dirMispredicts    uint64
	btbMisses         uint64
	redirects         uint64
	blocks            uint64
	instrs            uint64
	cycle             uint64
	lifecycle         stats.PrefetchLifecycle
	stalls            stats.StallBreakdown
	// lead is a deep copy of the lead histogram at window start.
	lead *stats.Histogram
}

func (m *Machine) snap() snapshot {
	return snapshot{
		lead:           m.tracker.LeadHistogram().Clone(),
		l1i:            *m.icache.Stats(),
		l1d:            *m.l1d.Stats(),
		l2:             *m.l2.Stats(),
		llc:            *m.llc.Stats(),
		dramReads:      m.dram.Reads,
		condLookups:    m.condLookups,
		dirMispredicts: m.dirMispredicts,
		btbMisses:      m.btbMisses,
		redirects:      m.redirects,
		blocks:         m.blocks,
		instrs:         m.instrIdx,
		cycle:          m.lastRetire,
		lifecycle:      m.tracker.Lifecycle(),
		stalls:         m.stalls,
	}
}

// RunWindows runs a warmup window whose statistics are discarded (the
// paper uses a 20M-instruction warm-up, §IV-A), then a measurement
// window, and returns results for the measurement window only; a zero
// warmup measures the whole run. It packs src's first warmup+measure
// records, presolves them and replays them with RunPresolvedCtx. A
// simulator ignores a non-branch's target and a non-memory op's data
// address, so trace.Packer.Repack clears those rather than refusing
// them. RunWindows panics with ErrMachineUsed on a consumed machine,
// with the packer's error when src yields a record the packed form
// cannot hold (a branch type beyond Return), with a decoding src's
// error, and with Presolve's on an L1D it cannot presolve.
func (m *Machine) RunWindows(src trace.Source, warmup, measure uint64) Results {
	pk := trace.NewPacker(0, 0)
	if _, err := trace.Copy(pk.Repack, src, warmup+measure); err != nil {
		panic(err)
	}
	pre, err := Presolve(pk.Packed(), m.cfg)
	if err != nil {
		panic(err)
	}
	res, err := m.RunPresolvedCtx(context.Background(), pre, warmup, measure)
	if err != nil {
		// Background is uncancellable; only contract misuse gets here.
		panic(err)
	}
	return res
}

// RunPresolvedCtx runs the warmup and measurement windows of RunWindows
// over the trace pre was presolved from, from its first record,
// replaying pre's outcomes; a trace shorter than the windows ends the
// run early. It fails with ErrPresolvedMismatch, without consuming the
// machine, when pre was built under a PresolveKey other than the
// machine's.
//
// Cancellation is cooperative: the loop polls ctx every
// cancelCheckInterval instructions and bails out with ctx's error
// (context.Canceled or context.DeadlineExceeded) when it fires. A
// canceled machine's partial state is consistent but its results are
// not returned — a sweep treats the cell as not-run.
// context.Background() has a nil Done channel, so the uncancellable
// path skips the poll.
//
// A Machine runs once: on a consumed machine RunPresolvedCtx returns
// ErrMachineUsed. A canceled run consumes the machine too, because its
// partial state must never masquerade as a fresh warmup.
func (m *Machine) RunPresolvedCtx(ctx context.Context, pre *Presolved, warmup, measure uint64) (Results, error) {
	if m.used {
		return Results{}, ErrMachineUsed
	}
	if pre.key != m.cfg.PresolveKey() {
		return Results{}, ErrPresolvedMismatch
	}
	m.used = true
	m.presolved = pre
	done := ctx.Done()
	c, ok := m.consume(trace.Cursor{}, warmup, done)
	if !ok {
		return Results{}, ctx.Err()
	}
	s := m.snap()
	if _, ok := m.consume(c, m.instrIdx+measure, done); !ok {
		return Results{}, ctx.Err()
	}
	return m.resultsSince(s), nil
}

// cancelCheckInterval is how many instructions run between cancellation
// polls: at the simulator's millions of instructions per second this
// bounds cancellation latency to a few milliseconds while keeping the
// per-instruction cost to one masked compare.
const cancelCheckInterval = 1 << 14

// consume advances the pipeline over the presolved trace from c on
// until instrIdx reaches maxInstrs, the trace ends, or done (when
// non-nil) fires. It returns the cursor after the last record consumed
// and whether the run may continue: false means it was canceled.
//
// The run goes in chunks that end at multiples of cancelCheckInterval
// instructions, the blocks a presolved stream is stored in, and
// cancellation is polled between chunks, never inside the hot loop.
// The uncancellable path (nil done) skips the poll; the
// per-instruction fast loop is identical in both cases, so the pinned
// metrics fingerprint is unaffected.
func (m *Machine) consume(c trace.Cursor, maxInstrs uint64, done <-chan struct{}) (trace.Cursor, bool) {
	pre := m.presolved
	maxInstrs = min(maxInstrs, uint64(pre.p.Len()))
	for m.instrIdx < maxInstrs {
		if done != nil {
			select {
			case <-done:
				return c, false
			default:
			}
		}
		limit := min(maxInstrs, (m.instrIdx/cancelCheckInterval+1)*cancelCheckInterval)
		c = m.consumeChunk(pre.p, c, pre.outcomes(c), limit)
	}
	return c, true
}

// consumeChunk advances the pipeline over p's records from c on until
// instrIdx reaches maxInstrs or the stream ends, and returns the cursor
// after the last record it consumed. out holds the records' presolved
// outcomes, parallel to p.Words[c.Word:].
//
// The records are decoded inline where each field is used.
func (m *Machine) consumeChunk(p *trace.Packed, c trace.Cursor, out []byte, maxInstrs uint64) trace.Cursor {
	ops := p.Ops[c.Op:]
	if rem := maxInstrs - m.instrIdx; uint64(len(ops)) > rem {
		ops = ops[:rem]
	}
	words := p.Words[c.Word:]
	w := 0
	next := c.PC

	haveBlock := m.haveBlock
	curVirtLine := m.curVirtLine
	fetchStart := m.fetchStart
	blockCount := m.blockCount
	forceBlock := m.forceBlock
	// fetchOff/fetchSub track blockCount / and % FetchWidth
	// incrementally; one divide here replaces one per instruction.
	fw := m.cfg.FetchWidth
	fetchOff := uint64(blockCount / fw)
	fetchSub := blockCount % fw

	for _, op := range ops {
		pc := next
		next += trace.DefaultSize
		if op&trace.OpEscape != 0 {
			pc = words[w]
			next = pc + words[w+1]
			w += 2
		}
		virtLine := cache.LineAddr(pc)

		if !haveBlock || forceBlock || virtLine != curVirtLine {
			// A new fetch block enters the FTQ.
			predictCycle := m.nextPredict
			if m.redirect > predictCycle {
				// Redirect stall: attribute to the stage that caught it.
				if m.redirectFromBTB {
					m.stalls.BTBMiss += m.redirect - predictCycle
				} else {
					m.stalls.Mispredict += m.redirect - predictCycle
				}
				predictCycle = m.redirect
			}
			// FTQ backpressure: the prediction engine may run at most
			// FTQDepth blocks ahead of fetch.
			if backCap := m.ftqRing[m.ftqPos]; backCap > predictCycle {
				m.stalls.FTQFull += backCap - predictCycle
				predictCycle = backCap
			}
			m.nextPredict = predictCycle + 1

			// Fetch-directed lookup: the L1I access happens now, at FTQ
			// insertion, possibly long before fetch consumes the block.
			lineReady := m.icache.DemandAccess(predictCycle, m.fetchLine(pc))
			m.blocks++

			// Fetch waits for the line beyond the earliest cycle a hit
			// would have allowed: that delay is L1I-induced (misses,
			// late prefetches, MSHR backpressure).
			noMissStart := m.nextFetch
			if hitReady := predictCycle + m.cfg.L1I.Latency; hitReady > noMissStart {
				noMissStart = hitReady
			}
			fetchStart = m.nextFetch
			if lineReady > fetchStart {
				fetchStart = lineReady
			}
			if fetchStart > noMissStart {
				m.stalls.L1IMiss += fetchStart - noMissStart
			}
			m.ftqRing[m.ftqPos] = fetchStart
			m.blockIdx++
			if m.ftqPos++; m.ftqPos == len(m.ftqRing) {
				m.ftqPos = 0
			}
			blockCount = 0
			fetchOff, fetchSub = 0, 0
			haveBlock = true
			curVirtLine = virtLine
			forceBlock = false
		}

		fetchCycle := fetchStart + fetchOff
		blockCount++
		if fetchSub++; fetchSub == fw {
			fetchSub = 0
			fetchOff++
		}
		m.nextFetch = fetchCycle + 1 // next block starts no earlier

		// Dispatch: front-end depth plus ROB backpressure.
		dispatch := fetchCycle + m.cfg.FrontDepth
		if prev := m.robRing[m.robPos]; prev > dispatch {
			m.stalls.ROBFull += prev - dispatch
			dispatch = prev
		}

		// Execute.
		execDone := dispatch + 1
		if op&(trace.OpLoad|trace.OpStore) != 0 {
			addr := cache.LineAddr(words[w])
			tag := l1dTag(out[w])
			w++
			if m.cfg.PhysicalAddresses {
				addr = m.trans.Translate(addr)
			}
			// A store is write-allocate; the store buffer hides its
			// latency.
			if ready := m.l1d.Timed(dispatch, addr, tag); op&trace.OpLoad != 0 && ready > execDone {
				execDone = ready
			}
		}

		// Branch handling.
		if br := trace.BranchType(op & trace.OpBranch); br != trace.NotBranch {
			target := words[w]
			o := out[w]
			w++
			taken := op&trace.OpTaken != 0
			if br == trace.CondBranch {
				m.condLookups++
			}
			m.pf.OnBranch(prefetch.BranchEvent{
				Cycle:  fetchStart,
				PC:     pc,
				Type:   br,
				Taken:  taken,
				Target: target,
			})
			if o != 0 { // a redirect
				m.redirects++
				if o&outDirMiss != 0 {
					m.dirMispredicts++
				}
				if o&outBTBMiss != 0 {
					m.btbMisses++
				}
				var r uint64
				fromBTB := false
				if o&(outDirMiss|outTargetMiss) != 0 {
					r = execDone + m.cfg.MispredictPenalty
				} else { // BTB miss: caught at decode
					r = fetchCycle + m.cfg.BTBMissPenalty
					fromBTB = true
				}
				if r > m.redirect {
					m.redirect = r
					m.redirectFromBTB = fromBTB
				}
				forceBlock = true
			}
			if taken {
				next = target
				forceBlock = true
			}
		}

		// Retire: in order, bounded width.
		retire := execDone
		if retire < m.lastRetire {
			retire = m.lastRetire
		}
		if w := m.widthRing[m.widthPos] + 1; w > retire {
			retire = w
		}
		m.widthRing[m.widthPos] = retire
		m.robRing[m.robPos] = retire
		if m.widthPos++; m.widthPos == len(m.widthRing) {
			m.widthPos = 0
		}
		if m.robPos++; m.robPos == len(m.robRing) {
			m.robPos = 0
		}
		m.lastRetire = retire
	}
	m.instrIdx += uint64(len(ops))

	m.haveBlock = haveBlock
	m.curVirtLine = curVirtLine
	m.fetchStart = fetchStart
	m.blockCount = blockCount
	m.forceBlock = forceBlock
	return trace.Cursor{Op: c.Op + len(ops), Word: c.Word + w, PC: next}
}

// resultsSince builds Results for the window after snapshot s.
func (m *Machine) resultsSince(s snapshot) Results {
	// Let outstanding prefetches/fills settle for final stats.
	m.icache.AdvanceTo(m.lastRetire + 1000)

	res := Results{
		PrefetcherName: m.pf.Name(),
		StorageBits:    m.pf.StorageBits(),
		Instructions:   m.instrIdx - s.instrs,
		Cycles:         m.lastRetire - s.cycle,
		L1I:            m.icache.Stats().Sub(s.l1i),
		L1D:            m.l1d.Stats().Sub(s.l1d),
		L2:             m.l2.Stats().Sub(s.l2),
		LLC:            m.llc.Stats().Sub(s.llc),
		DRAMReads:      m.dram.Reads - s.dramReads,
		BTBMisses:      m.btbMisses - s.btbMisses,
		Redirects:      m.redirects - s.redirects,
		FetchBlocks:    m.blocks - s.blocks,
		Lifecycle:      m.tracker.Lifecycle().Sub(s.lifecycle),
		Stalls:         m.stalls.Sub(s.stalls),
	}
	// Window the lead distribution exactly like the counters above: the
	// quantiles are computed on (current - snapshot), so warmup-window
	// samples never leak into measured results.
	lead := m.tracker.LeadHistogram().Sub(s.lead)
	if lead.Total() > 0 {
		res.LeadP50 = lead.Quantile(0.50)
		res.LeadP99 = lead.Quantile(0.99)
	}
	if lookups := m.condLookups - s.condLookups; lookups > 0 {
		res.CondAccuracy = 1 - float64(m.dirMispredicts-s.dirMispredicts)/float64(lookups)
	} else {
		res.CondAccuracy = 1
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	return res
}
