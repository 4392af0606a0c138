package mem

import "gpusched/internal/isa"

// Coalesce reduces the active lanes of a warp memory instruction to the set
// of distinct line addresses they touch, in first-lane order — the memory
// transactions the access generates. base is the kernel's global address
// offset added to every lane address. The result is appended to dst (which
// may be reused across calls to avoid allocation).
//
// A fully-coalesced 4-byte-per-lane access yields 1 transaction per 128B
// line; a 128B-strided access yields 32. This 1..32 fan-out is exactly the
// memory-divergence behaviour the workloads encode.
func Coalesce(dst []uint64, wi *isa.WarpInstr, base uint64, lineBytes int) []uint64 {
	mask := wi.Mask
	lineMask := ^uint64(lineBytes - 1)
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		line := (base + uint64(wi.Addrs[lane])) & lineMask
		// Neighbouring lanes mostly share a line: a repeat of the last one
		// needs no scan.
		if n := len(dst); n > 0 && dst[n-1] == line {
			continue
		}
		found := false
		for _, d := range dst {
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
