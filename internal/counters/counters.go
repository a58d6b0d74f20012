// Package counters defines the hardware performance counters CoScale reads
// during each epoch's profiling phase (§3.3 "Performance counters").
//
// Per core, CoScale needs five instruction counters (TIC, TMS, TLA, TLM,
// TLS) and four Core Activity Counters (committed ALU, FPU, branch and
// load/store instructions) for the power model. Per memory channel it reuses
// MemScale's seven queuing/row-buffer counters plus two power counters
// (active-vs-idle cycles and page open/close events).
//
// Counters are free-running uint64s. A profiling window is expressed as the
// difference of two snapshots (Sample = end - start), mirroring how an OS
// driver reads MSR-style counters.
package counters

import "coscale/internal/perf"

// Core holds the free-running per-core counters.
type Core struct {
	Cycles uint64 // core clock cycles elapsed (at the core's own frequency)
	TIC    uint64 // Total Instructions Committed
	TMS    uint64 // Total L1 Miss Stall cycles source events: instructions that accessed L2 and stalled
	TLA    uint64 // Total L2 Accesses
	TLM    uint64 // Total L2 Misses
	TLS    uint64 // Total L2 Miss Stalls: instructions that missed L2 and stalled the pipeline

	// Core Activity Counters (CAC) for the power model: committed
	// instruction counts by class.
	ALUOps     uint64
	FPUOps     uint64
	Branches   uint64
	LoadStores uint64

	// StallCyclesL2 and StallCyclesMem accumulate the cycles the pipeline
	// spent stalled on L2 hits and L2 misses respectively. They let the
	// model derive E[TPI_L2] and E[TPI_Mem] directly.
	StallCyclesL2  uint64
	StallCyclesMem uint64

	// L2Writebacks counts dirty evictions attributable to this core's
	// misses; PrefetchFills counts prefetcher-initiated memory requests on
	// this core's behalf. Both feed the per-core traffic estimate.
	L2Writebacks  uint64
	PrefetchFills uint64
}

// Sub returns the counter deltas c - start. All fields must be monotonically
// non-decreasing between the two snapshots.
func (c Core) Sub(start Core) Core {
	return Core{
		Cycles:         c.Cycles - start.Cycles,
		TIC:            c.TIC - start.TIC,
		TMS:            c.TMS - start.TMS,
		TLA:            c.TLA - start.TLA,
		TLM:            c.TLM - start.TLM,
		TLS:            c.TLS - start.TLS,
		ALUOps:         c.ALUOps - start.ALUOps,
		FPUOps:         c.FPUOps - start.FPUOps,
		Branches:       c.Branches - start.Branches,
		LoadStores:     c.LoadStores - start.LoadStores,
		StallCyclesL2:  c.StallCyclesL2 - start.StallCyclesL2,
		StallCyclesMem: c.StallCyclesMem - start.StallCyclesMem,
		L2Writebacks:   c.L2Writebacks - start.L2Writebacks,
		PrefetchFills:  c.PrefetchFills - start.PrefetchFills,
	}
}

// Add accumulates d into c.
func (c *Core) Add(d Core) {
	c.Cycles += d.Cycles
	c.TIC += d.TIC
	c.TMS += d.TMS
	c.TLA += d.TLA
	c.TLM += d.TLM
	c.TLS += d.TLS
	c.ALUOps += d.ALUOps
	c.FPUOps += d.FPUOps
	c.Branches += d.Branches
	c.LoadStores += d.LoadStores
	c.StallCyclesL2 += d.StallCyclesL2
	c.StallCyclesMem += d.StallCyclesMem
	c.L2Writebacks += d.L2Writebacks
	c.PrefetchFills += d.PrefetchFills
}

// Alpha returns the fraction of committed instructions that accessed the L2
// and stalled the pipeline (α in Eq. 1): TMS / TIC.
func (c Core) Alpha() float64 {
	if c.TIC == 0 {
		return 0
	}
	return float64(c.TMS) / float64(c.TIC)
}

// Beta returns the fraction of committed instructions that missed the L2 and
// stalled the pipeline (β in Eq. 1): TLS / TIC.
func (c Core) Beta() float64 {
	if c.TIC == 0 {
		return 0
	}
	return float64(c.TLS) / float64(c.TIC)
}

// CPI returns overall cycles per instruction over the sampled window.
func (c Core) CPI() float64 {
	if c.TIC == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.TIC)
}

// MPKI returns L2 (last-level) misses per kilo-instruction.
func (c Core) MPKI() float64 {
	if c.TIC == 0 {
		return 0
	}
	return 1000 * float64(c.TLM) / float64(c.TIC)
}

// Channel holds the free-running per-memory-channel counters: MemScale's
// seven queuing/row-buffer statistics and the two counters used by the
// memory power model.
type Channel struct {
	BusCycles uint64 // memory bus clock cycles elapsed

	Reads      uint64 // read (cache-miss) requests serviced
	Writes     uint64 // writeback requests serviced
	Prefetches uint64 // prefetch fills serviced (counted within Reads as traffic)

	// Queueing statistics: occupancy integrals (sum over cycles of queue
	// length) from which average waiters-per-request are derived.
	ReadQueueOccupancy uint64 // Σ read-queue length, per bus cycle
	BankOccupancy      uint64 // Σ requests holding or waiting for banks, per bus cycle
	BusBusyCycles      uint64 // cycles the data bus transferred data
	LatencyCycles      uint64 // Σ per-request residency (arrival to data return), bus cycles

	// Row-buffer behaviour (closed-page policy keeps these equal to the
	// access count, but the counters exist for open-page configurations).
	RowHits   uint64
	RowMisses uint64

	// Power-model counters.
	ActiveCycles uint64 // cycles with at least one bank active
	IdleCycles   uint64 // cycles with all banks precharged/idle
	PageOpens    uint64 // ACT commands issued
	PageCloses   uint64 // PRE (or auto-precharge) events
}

// Sub returns the counter deltas c - start.
func (c Channel) Sub(start Channel) Channel {
	return Channel{
		BusCycles:          c.BusCycles - start.BusCycles,
		Reads:              c.Reads - start.Reads,
		Writes:             c.Writes - start.Writes,
		Prefetches:         c.Prefetches - start.Prefetches,
		ReadQueueOccupancy: c.ReadQueueOccupancy - start.ReadQueueOccupancy,
		BankOccupancy:      c.BankOccupancy - start.BankOccupancy,
		BusBusyCycles:      c.BusBusyCycles - start.BusBusyCycles,
		LatencyCycles:      c.LatencyCycles - start.LatencyCycles,
		RowHits:            c.RowHits - start.RowHits,
		RowMisses:          c.RowMisses - start.RowMisses,
		ActiveCycles:       c.ActiveCycles - start.ActiveCycles,
		IdleCycles:         c.IdleCycles - start.IdleCycles,
		PageOpens:          c.PageOpens - start.PageOpens,
		PageCloses:         c.PageCloses - start.PageCloses,
	}
}

// Add accumulates d into c.
func (c *Channel) Add(d Channel) {
	c.BusCycles += d.BusCycles
	c.Reads += d.Reads
	c.Writes += d.Writes
	c.Prefetches += d.Prefetches
	c.ReadQueueOccupancy += d.ReadQueueOccupancy
	c.BankOccupancy += d.BankOccupancy
	c.BusBusyCycles += d.BusBusyCycles
	c.LatencyCycles += d.LatencyCycles
	c.RowHits += d.RowHits
	c.RowMisses += d.RowMisses
	c.ActiveCycles += d.ActiveCycles
	c.IdleCycles += d.IdleCycles
	c.PageOpens += d.PageOpens
	c.PageCloses += d.PageCloses
}

// Accesses returns the total serviced requests (reads + writes).
func (c Channel) Accesses() uint64 { return c.Reads + c.Writes }

// BusUtilization returns the fraction of bus cycles spent transferring data.
func (c Channel) BusUtilization() float64 {
	if c.BusCycles == 0 {
		return 0
	}
	return float64(c.BusBusyCycles) / float64(c.BusCycles)
}

// XiBus returns the average number of requests waiting for the data bus per
// serviced request (ξ_bus in the TPI_Mem decomposition).
func (c Channel) XiBus() float64 {
	if c.Accesses() == 0 || c.BusCycles == 0 {
		return 0
	}
	return float64(c.ReadQueueOccupancy) / float64(c.BusCycles) // time-average queue length
}

// AvgLatencySeconds returns the average request latency over the window
// given the bus frequency in effect, derived from the residency integral.
func (c Channel) AvgLatencySeconds(busHz float64) float64 {
	if c.Accesses() == 0 || busHz <= 0 {
		return 0
	}
	return float64(c.LatencyCycles) / busHz / float64(c.Accesses())
}

// XiBank returns the time-average number of requests holding or waiting for
// banks (ξ_bank).
func (c Channel) XiBank() float64 {
	if c.BusCycles == 0 {
		return 0
	}
	return float64(c.BankOccupancy) / float64(c.BusCycles)
}

// System bundles a full snapshot: one Core set per core and one Channel set
// per memory channel.
type System struct {
	Cores    []Core
	Channels []Channel
}

// NewSystem allocates zeroed counters for nCores cores and nChannels memory
// channels.
func NewSystem(nCores, nChannels int) *System {
	return &System{
		Cores:    make([]Core, nCores),
		Channels: make([]Channel, nChannels),
	}
}

// Snapshot returns a deep copy of the current counter state.
func (s *System) Snapshot() System {
	out := System{
		Cores:    make([]Core, len(s.Cores)),
		Channels: make([]Channel, len(s.Channels)),
	}
	copy(out.Cores, s.Cores)
	copy(out.Channels, s.Channels)
	return out
}

// SnapshotInto deep-copies the current counter state into dst, reusing
// dst's slices when their capacities suffice. The allocation-free form of
// Snapshot used by the per-epoch hot path (see DESIGN.md §7).
//
//hot:path
func (s *System) SnapshotInto(dst *System) {
	dst.Cores = perf.Grow(dst.Cores, len(s.Cores))
	dst.Channels = perf.Grow(dst.Channels, len(s.Channels))
	copy(dst.Cores, s.Cores)
	copy(dst.Channels, s.Channels)
}

// SubInto writes the element-wise deltas s - start into dst, reusing dst's
// slices. The allocation-free form of Sub.
//
//hot:path
func (s *System) SubInto(dst *System, start *System) {
	dst.Cores = perf.Grow(dst.Cores, len(s.Cores))
	dst.Channels = perf.Grow(dst.Channels, len(s.Channels))
	for i := range s.Cores {
		dst.Cores[i] = s.Cores[i].Sub(start.Cores[i])
	}
	for i := range s.Channels {
		dst.Channels[i] = s.Channels[i].Sub(start.Channels[i])
	}
}

// Sub returns the element-wise deltas s - start. The two snapshots must have
// identical shapes.
func (s System) Sub(start System) System {
	out := System{
		Cores:    make([]Core, len(s.Cores)),
		Channels: make([]Channel, len(s.Channels)),
	}
	for i := range s.Cores {
		out.Cores[i] = s.Cores[i].Sub(start.Cores[i])
	}
	for i := range s.Channels {
		out.Channels[i] = s.Channels[i].Sub(start.Channels[i])
	}
	return out
}
