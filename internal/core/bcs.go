package core

import "gpusched/internal/sm"

// BCS implements block CTA scheduling: consecutive CTAs are dispatched as a
// gang ("block") to one core, so data shared between adjacent CTAs — stencil
// halos, neighbouring matrix tiles — is fetched once into that core's L1
// instead of once per core. Every CTA of a gang carries the same BlockKey,
// which the BAWS warp scheduler (sm.PolicyBAWS) uses to advance the gang in
// lockstep so the shared lines are touched while still resident.
//
// Gang integrity is the point, so a core is refilled only when a whole gang
// fits: when one member of a pair retires, its slot waits for the partner
// (BAWS keeps that skew small) instead of being backfilled with an unrelated
// CTA. Cores whose occupancy is not a multiple of the gang width would
// strand their remainder slots forever under that rule, so up to
// (occupancy mod gang) unpaired "filler" CTAs per core are allowed.
type BCS struct {
	RoundRobin
	// BlockSize is the gang width (the paper pairs consecutive CTAs;
	// default 2).
	BlockSize int
	// unpaired counts resident filler CTAs per core.
	unpaired []int
}

// fillerIndex marks a CTA dispatched alone into a remainder slot.
const fillerIndex = -1

// NewBCS returns a block CTA scheduling dispatcher with gang width 2.
func NewBCS() *BCS { return &BCS{BlockSize: 2} }

func (b *BCS) gangWidth() int {
	if b.BlockSize < 1 {
		return 1
	}
	return b.BlockSize
}

// Tick implements Dispatcher: place one gang per cycle on the next core
// with room for a whole gang, else fill a remainder slot.
func (b *BCS) Tick(m Machine) {
	if len(b.unpaired) < m.NumCores() {
		b.unpaired = make([]int, m.NumCores())
	}
	for _, ks := range m.Kernels() {
		if ks.Exhausted() {
			continue
		}
		gang := min(b.gangWidth(), ks.Remaining()) // grid tail: partial gang
		if c := b.scan(m, func(c *sm.SM) bool { return canAcceptN(c, ks, gang) }); c != nil {
			key := m.Now()
			for j := 0; j < gang; j++ {
				place(m, ks, c, key, j)
			}
			return
		}
		// No core fits a gang: fill a remainder slot if one exists.
		c := b.scan(m, func(c *sm.SM) bool {
			return b.remainderSlots(c, ks) > b.unpaired[c.ID()] && c.CanAccept(ks.Spec)
		})
		if c != nil {
			place(m, ks, c, m.Now(), fillerIndex)
			b.unpaired[c.ID()]++
		}
		return
	}
}

// remainderSlots returns how many of core c's CTA slots for ks can never be
// part of a full gang (occupancy mod gang width).
func (b *BCS) remainderSlots(c *sm.SM, ks *KernelState) int {
	cap, _ := c.Limits().MaxResident(ks.Spec)
	return cap % b.gangWidth()
}

func canAcceptN(c *sm.SM, ks *KernelState, n int) bool {
	return c.Usage().Add(ks.Spec, n).Fits(c.Limits())
}

// OnCTAComplete implements Dispatcher: retiring fillers reopen their slot.
func (b *BCS) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	if cta.IndexInBlock == fillerIndex && coreID < len(b.unpaired) {
		b.unpaired[coreID]--
	}
}
