package mem

import (
	"math"
	"math/bits"

	"gpusched/internal/isa"
)

// Coalesce reduces the active lanes of a warp memory instruction to the set
// of distinct line addresses they touch, in first-lane order — the memory
// transactions the access generates. base is the kernel's global address
// offset added to every lane address. The lines are appended to dst (which
// may be reused across calls to avoid allocation); they are distinct among
// themselves, not from what dst already holds.
//
// A fully-coalesced 4-byte-per-lane access yields 1 transaction per 128B
// line; a 128B-strided access yields 32. This 1..32 fan-out is exactly the
// memory-divergence behaviour the workloads encode.
func Coalesce(dst []uint64, wi *isa.WarpInstr, base uint64, lineBytes int) []uint64 {
	if !wi.Affine {
		return coalesceLanes(dst, &wi.Addrs, wi.Mask, base, lineBytes)
	}
	if wi.Mask != 0 {
		first := bits.TrailingZeros32(wi.Mask)
		m := wi.Mask >> first
		lo := uint64(wi.Addr(first))
		span := uint64(bits.Len32(m)-1) * uint64(wi.Stride)
		if m&(m+1) == 0 && uint64(wi.Stride) <= uint64(lineBytes) && lo+span <= math.MaxUint32 {
			// Contiguous lanes at most a line apart, their addresses
			// climbing without wrapping around the 32-bit space: every line
			// from the first lane's to the last lane's, each once.
			lineMask := ^uint64(lineBytes - 1)
			end := (base + lo + span) & lineMask
			for line := (base + lo) & lineMask; ; line += uint64(lineBytes) {
				dst = append(dst, line)
				if line == end {
					return dst
				}
			}
		}
	}
	var addrs [isa.WarpSize]uint32
	for m := wi.Mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		addrs[l] = wi.Addr(l)
	}
	return coalesceLanes(dst, &addrs, wi.Mask, base, lineBytes)
}

// coalesceLanes is Coalesce over per-lane addresses.
func coalesceLanes(dst []uint64, addrs *[isa.WarpSize]uint32, mask uint32, base uint64, lineBytes int) []uint64 {
	lineMask := ^uint64(lineBytes - 1)
	start := len(dst)
	for m := mask; m != 0; m &= m - 1 {
		line := (base + uint64(addrs[bits.TrailingZeros32(m)])) & lineMask
		// Neighbouring lanes mostly share a line: a repeat of the last one
		// needs no scan.
		if n := len(dst); n > start && dst[n-1] == line {
			continue
		}
		found := false
		for _, d := range dst[start:] {
			if d == line {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, line)
		}
	}
	return dst
}
