package gpusched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gpusched"
)

// FuzzKernel is the fuzzer-driven form of the completion property below:
// whatever shape the fuzzer picks, the generated kernel must finish under
// the selected scheduler/warp-policy pair with the exact instruction count
// the generator produced, and with the same Result as the reference loop
// (the oracle for the calendar). Run with
// go test -fuzz=FuzzKernel.
func FuzzKernel(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(10), uint8(1), int64(1), uint8(0), uint8(1))
	f.Add(uint8(12), uint8(4), uint8(24), uint8(2), int64(42), uint8(3), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(7), uint8(5), uint8(0))
	schedulers := []gpusched.Scheduler{
		gpusched.Baseline(), gpusched.LCS(), gpusched.AdaptiveLCS(),
		gpusched.BCS(2), gpusched.DynCTA(), gpusched.Sequential(),
	}
	policies := []gpusched.WarpPolicy{
		gpusched.WarpLRR, gpusched.WarpGTO, gpusched.WarpBAWS, gpusched.WarpTwoLevel,
	}
	f.Fuzz(func(t *testing.T, ctasRaw, warpsRaw, instrRaw, barriersRaw uint8, seed int64, schedRaw, polRaw uint8) {
		// Clamp to shapes that simulate in milliseconds.
		ctas := 1 + int(ctasRaw)%12
		warps := 1 + int(warpsRaw)%4
		nInstr := 1 + int(instrRaw)%24
		barriers := int(barriersRaw) % 3
		if barriers >= nInstr {
			barriers = 0
		}
		sched := schedulers[int(schedRaw)%len(schedulers)]
		k, err := gpusched.NewKernelBuilder("fuzz", ctas, warps*32).
			Regs(8 + int(ctasRaw)%24).
			SharedMem(int(warpsRaw) % 4 * 1024).
			Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
				local := rand.New(rand.NewSource(seed ^ int64(ctaID*1000+warp)))
				barLeft := barriers
				for i := 0; i < nInstr; i++ {
					if barLeft > 0 && i == nInstr/(barLeft+1) {
						p.Barrier()
						barLeft--
						continue
					}
					switch local.Intn(8) {
					case 0:
						p.LoadGlobal(1, uint32(local.Intn(1<<20))*4)
					case 1:
						var addrs [32]uint32
						for l := range addrs {
							addrs[l] = uint32(local.Intn(1<<18)) * 4
						}
						p.LoadGlobalLanes(2, addrs)
					case 2:
						p.StoreGlobal(2, uint32(local.Intn(1<<20))*4)
					case 3:
						p.LoadShared(3, uint8(1+local.Intn(4)))
					case 4:
						p.SFU(4, 3)
					case 5:
						p.FAdd(5, 4, 5)
					case 6:
						p.IAdd(6, 5)
					default:
						p.FMul(7, 6, 7)
					}
				}
			}).Build()
		if err != nil {
			// Shapes the builder rejects (e.g. over-limit kernels) are not
			// interesting inputs.
			t.Skip()
		}
		cfg := tinyConfig()
		cfg.WarpPolicy = policies[int(polRaw)%len(policies)]
		res, err := gpusched.Run(cfg, sched, k)
		if err != nil {
			t.Fatalf("%s/%s: %v", sched.Name(), cfg.WarpPolicy, err)
		}
		if res.TimedOut {
			t.Fatalf("%s/%s: timed out (ctas=%d warps=%d instr=%d barriers=%d)",
				sched.Name(), cfg.WarpPolicy, ctas, warps, nInstr, barriers)
		}
		want := uint64(ctas*warps) * uint64(nInstr+1) // +1 for EXIT
		if res.InstrIssued != want {
			t.Fatalf("%s/%s: issued %d, want %d (ctas=%d warps=%d instr=%d)",
				sched.Name(), cfg.WarpPolicy, res.InstrIssued, want, ctas, warps, nInstr)
		}
		matchReference(t, cfg, sched, k, res)
	})
}

// matchReference reruns k on the reference cycle loop and fails unless it
// commits the same Result as the default loop did.
func matchReference(t *testing.T, cfg gpusched.Config, sched gpusched.Scheduler, k gpusched.Kernel, res gpusched.Result) {
	t.Helper()
	ref, err := gpusched.RunReference(cfg, sched, k)
	if err != nil {
		t.Fatalf("%s/%s reference: %v", sched.Name(), cfg.WarpPolicy, err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("%s/%s: diverged from the reference loop:\n%+v\nvs\n%+v", sched.Name(), cfg.WarpPolicy, res, ref)
	}
}

// TestRandomKernelsCompleteExactly is an end-to-end fuzz property: randomly
// generated kernels — arbitrary mixes of ALU/SFU/memory/barrier work,
// divergent gathers included — must complete under every scheduler with the
// exact instruction count the generator produced, and with the reference
// loop's Result.
func TestRandomKernelsCompleteExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many randomized simulations")
	}
	rng := rand.New(rand.NewSource(20260705))
	schedulers := []gpusched.Scheduler{
		gpusched.Baseline(), gpusched.LCS(), gpusched.AdaptiveLCS(),
		gpusched.BCS(2), gpusched.DynCTA(), gpusched.Sequential(),
	}
	policies := []gpusched.WarpPolicy{
		gpusched.WarpLRR, gpusched.WarpGTO, gpusched.WarpBAWS, gpusched.WarpTwoLevel,
	}
	for trial := 0; trial < 12; trial++ {
		ctas := 4 + rng.Intn(24)
		warps := 1 + rng.Intn(8)
		nInstr := 5 + rng.Intn(40)
		barriers := rng.Intn(3)
		seed := rng.Int63()

		// The program recipe must be deterministic in (ctaID, warp) —
		// derive per-warp streams from the trial seed.
		k, err := gpusched.NewKernelBuilder("fuzz", ctas, warps*32).
			Regs(8 + rng.Intn(24)).
			SharedMem(rng.Intn(4) * 1024).
			Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
				local := rand.New(rand.NewSource(seed ^ int64(ctaID*1000+warp)))
				barLeft := barriers
				for i := 0; i < nInstr; i++ {
					// Barriers at fixed positions so all warps agree.
					if barLeft > 0 && i == nInstr/(barLeft+1) {
						p.Barrier()
						barLeft--
						continue
					}
					switch local.Intn(8) {
					case 0:
						p.LoadGlobal(1, uint32(local.Intn(1<<20))*4)
					case 1:
						var addrs [32]uint32
						for l := range addrs {
							addrs[l] = uint32(local.Intn(1<<18)) * 4
						}
						p.LoadGlobalLanes(2, addrs)
					case 2:
						p.StoreGlobal(2, uint32(local.Intn(1<<20))*4)
					case 3:
						p.LoadShared(3, uint8(1+local.Intn(4)))
					case 4:
						p.SFU(4, 3)
					case 5:
						p.FAdd(5, 4, 5)
					case 6:
						p.IAdd(6, 5)
					default:
						p.FMul(7, 6, 7)
					}
				}
			}).Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Barriers insert instead of replacing, so count the real stream.
		want := uint64(ctas*warps) * uint64(nInstr+1) // +1 for EXIT

		sched := schedulers[trial%len(schedulers)]
		cfg := tinyConfig()
		cfg.WarpPolicy = policies[trial%len(policies)]
		res, err := gpusched.Run(cfg, sched, k)
		if err != nil {
			t.Fatalf("trial %d (%s/%s): %v", trial, sched.Name(), cfg.WarpPolicy, err)
		}
		if res.TimedOut {
			t.Fatalf("trial %d (%s/%s): timed out (ctas=%d warps=%d instr=%d barriers=%d)",
				trial, sched.Name(), cfg.WarpPolicy, ctas, warps, nInstr, barriers)
		}
		if res.InstrIssued != want {
			t.Fatalf("trial %d (%s/%s): issued %d, want %d",
				trial, sched.Name(), cfg.WarpPolicy, res.InstrIssued, want)
		}
		matchReference(t, cfg, sched, k, res)
	}
}
