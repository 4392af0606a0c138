// Package mem implements the GPU memory system below the SM: per-core L1
// data caches with MSHRs, a crossbar interconnect, banked L2 partitions, and
// GDDR-style DRAM channels with row-buffer state and FR-FCFS scheduling.
//
// All timing is expressed in core-clock cycles. The design goal is not
// nanosecond fidelity but faithful *relative* behaviour: latency grows with
// queueing, bandwidth is finite at every level, caches thrash when resident
// working sets exceed capacity, and row-buffer locality matters. Those are
// the levers CTA scheduling pulls on.
package mem

import "math/bits"

// Config collects the memory-system parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// LineBytes is the cache-line (and DRAM-burst) size at every level.
	LineBytes int

	// L1 per-core cache geometry.
	L1Bytes       int
	L1Ways        int
	L1HitLatency  uint64 // LDST access to result writeback
	L1MSHREntries int
	L1MSHRMerges  int
	// L1MissQueueCap bounds L1 miss requests waiting to enter the
	// interconnect; when full the LDST unit stalls.
	L1MissQueueCap int

	// Partitions is the number of L2 slices; each owns one DRAM channel.
	Partitions int

	// XbarLatency is the one-way interconnect traversal time.
	XbarLatency uint64
	// XbarQueueCap bounds each partition-side (and core-side return)
	// queue; full queues backpressure the sender.
	XbarQueueCap int

	// L2 per-partition cache geometry.
	L2BytesPerPartition int
	L2Ways              int
	L2Latency           uint64 // lookup to response injection
	L2MSHREntries       int
	L2MSHRMerges        int
	// L2AtomicLatency is the extra read-modify-write occupancy for atomics.
	L2AtomicLatency uint64

	// DRAMSchedFCFS selects plain first-come-first-served request
	// scheduling instead of the default FR-FCFS (row hits first). FCFS
	// sacrifices row-buffer locality — the ablation that shows how much
	// of the BCS benefit flows through DRAM row reuse.
	DRAMSchedFCFS bool

	// DRAM channel timing (core cycles).
	DRAMQueueCap   int
	DRAMBanks      int
	DRAMRowBytes   int
	DRAMtCAS       uint64 // column access (row already open)
	DRAMtRowExtra  uint64 // extra precharge+activate on a row miss
	DRAMtBurst     uint64 // data-bus occupancy per line transfer
	DRAMWriteQueue int    // pending write-back buffer per channel
}

// DefaultConfig returns a Fermi-class (GTX480-like) memory system matched to
// the 15-SM core configuration in the top-level simulator defaults.
func DefaultConfig() Config {
	return Config{
		LineBytes: 128,

		L1Bytes:        16 * 1024,
		L1Ways:         4,
		L1HitLatency:   30,
		L1MSHREntries:  32,
		L1MSHRMerges:   8,
		L1MissQueueCap: 8,

		Partitions: 6,

		XbarLatency:  12,
		XbarQueueCap: 8,

		L2BytesPerPartition: 128 * 1024,
		L2Ways:              8,
		L2Latency:           40,
		L2MSHREntries:       32,
		L2MSHRMerges:        8,
		L2AtomicLatency:     16,

		DRAMQueueCap:   32,
		DRAMBanks:      8,
		DRAMRowBytes:   2 * 1024,
		DRAMtCAS:       20,
		DRAMtRowExtra:  30,
		DRAMtBurst:     8,
		DRAMWriteQueue: 16,
	}
}

// LineShift returns log2(LineBytes). LineBytes must be a power of two.
func (c *Config) LineShift() uint { return uint(bits.TrailingZeros(uint(c.LineBytes))) }

// LineAddr truncates a byte address to its line address.
func (c *Config) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.LineBytes-1)
}

// PartitionOf maps a line address to its owning L2/DRAM partition.
// Lines are interleaved across partitions.
func (c *Config) PartitionOf(lineAddr uint64) int {
	return int((lineAddr >> c.LineShift()) % uint64(c.Partitions))
}
