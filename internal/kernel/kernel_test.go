package kernel

import (
	"testing"
	"testing/quick"

	"gpusched/internal/isa"
)

func validSpec() *Spec {
	return &Spec{
		Name:            "k",
		Grid:            10,
		Block:           128,
		RegsPerThread:   16,
		SharedMemPerCTA: 0,
		Program:         isa.NewBuilder().Exit().Build(),
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"empty grid", func(s *Spec) { s.Grid = 0 }},
		{"negative grid", func(s *Spec) { s.Grid = -1 }},
		{"empty block", func(s *Spec) { s.Block = 0 }},
		{"ragged block", func(s *Spec) { s.Block = 100 }},
		{"regs too high", func(s *Spec) { s.RegsPerThread = isa.MaxRegs + 1 }},
		{"negative regs", func(s *Spec) { s.RegsPerThread = -1 }},
		{"negative shmem", func(s *Spec) { s.SharedMemPerCTA = -4 }},
		{"nil program", func(s *Spec) { s.Program = nil }},
	}
	for _, m := range mutations {
		s := validSpec()
		m.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", m.name)
		}
	}
}

func TestSpecDerivedCounts(t *testing.T) {
	s := validSpec()
	s.Block = 256
	if got := s.ThreadsPerCTA(); got != 256 {
		t.Errorf("ThreadsPerCTA = %d, want 256", got)
	}
	if got := s.WarpsPerCTA(); got != 8 {
		t.Errorf("WarpsPerCTA = %d, want 8", got)
	}
	s.Grid = 42
	if got := s.NumCTAs(); got != 42 {
		t.Errorf("NumCTAs = %d, want 42", got)
	}
}

func fermiLimits() CoreLimits {
	return CoreLimits{
		MaxThreads:     1536,
		MaxCTAs:        8,
		MaxWarps:       48,
		Registers:      32768,
		SharedMemBytes: 48 * 1024,
	}
}

func TestMaxResidentBindingConstraints(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*Spec)
		wantN   int
		wantWhy string
	}{
		{"cta slots bind small blocks", func(s *Spec) {
			s.Block = 32
			s.RegsPerThread = 8
		}, 8, "cta-slots"},
		{"threads bind large blocks", func(s *Spec) {
			s.Block = 512
			s.RegsPerThread = 8
		}, 3, "threads"},
		{"registers bind fat threads", func(s *Spec) {
			s.Block = 256
			s.RegsPerThread = 63
		}, 2, "registers"},
		{"shared memory binds", func(s *Spec) {
			s.Block = 64
			s.RegsPerThread = 8
			s.SharedMemPerCTA = 16 * 1024
		}, 3, "shared-mem"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mut(s)
		n, why := fermiLimits().MaxResident(s)
		if n != c.wantN || why != c.wantWhy {
			t.Errorf("%s: MaxResident = (%d,%q), want (%d,%q)",
				c.name, n, why, c.wantN, c.wantWhy)
		}
	}
}

func TestMaxResidentZeroFit(t *testing.T) {
	s := validSpec()
	s.SharedMemPerCTA = 64 * 1024 // exceeds 48KB scratchpad
	n, _ := fermiLimits().MaxResident(s)
	if n != 0 {
		t.Errorf("MaxResident = %d, want 0 for oversized CTA", n)
	}
}

func TestMaxResidentAlwaysFits(t *testing.T) {
	// Property: the occupancy result, when added to empty usage, fits; one
	// more CTA does not.
	f := func(blockWarps, regs, shmemKB uint8) bool {
		s := validSpec()
		s.Block = (int(blockWarps%16) + 1) * 32
		s.RegsPerThread = int(regs%48) + 1
		s.SharedMemPerCTA = int(shmemKB%48) * 1024
		l := fermiLimits()
		n, _ := l.MaxResident(s)
		if n == 0 {
			return true
		}
		var u Usage
		if !u.Add(s, n).Fits(l) {
			return false
		}
		return !u.Add(s, n+1).Fits(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsageAccumulation(t *testing.T) {
	s := validSpec()
	s.Block = 128
	s.RegsPerThread = 20
	s.SharedMemPerCTA = 1024
	u := Usage{}.Add(s, 3)
	if u.CTAs != 3 || u.Threads != 384 || u.Warps != 12 ||
		u.Registers != 3*20*128 || u.SharedMem != 3072 {
		t.Errorf("unexpected usage %+v", u)
	}
}

func TestUsageMixedKernelsFit(t *testing.T) {
	a := validSpec()
	a.Block = 256
	a.RegsPerThread = 16
	b := validSpec()
	b.Block = 128
	b.RegsPerThread = 16
	l := fermiLimits()
	u := Usage{}.Add(a, 3).Add(b, 2)
	// 3*256 + 2*128 = 1024 threads, 5 CTAs, 28 warps, 20480 regs.
	if !u.Fits(l) {
		t.Fatalf("mixed usage %+v should fit %+v", u, l)
	}
	if u.Add(a, 3).Fits(l) {
		t.Fatalf("usage %+v should exceed thread limit", u.Add(a, 3))
	}
}
