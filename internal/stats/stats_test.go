package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestCoreAddCoversEveryField fails when a counter added to Core is not
// summed by Add (the per-core collection would silently drop it).
func TestCoreAddCoversEveryField(t *testing.T) {
	var one Core
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Core
	sum.Add(&one)
	sum.Add(&one)
	for i := 0; i < v.NumField(); i++ {
		if got, want := reflect.ValueOf(sum).Field(i).Uint(), 2*uint64(i+1); got != want {
			t.Errorf("%s: Add summed %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}

func TestCacheRates(t *testing.T) {
	c := Cache{Accesses: 100, Hits: 75, Misses: 25, MSHRMerges: 10}
	if got := c.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := c.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	if got := c.MergeRate(); got != 0.1 {
		t.Errorf("MergeRate = %v, want 0.1", got)
	}
	var empty Cache
	if empty.HitRate() != 0 || empty.MissRate() != 0 || empty.MergeRate() != 0 {
		t.Error("empty cache rates should be 0")
	}
}

func TestCacheAdd(t *testing.T) {
	a := Cache{Accesses: 10, Hits: 5, Misses: 5, MSHRMerges: 1, MSHRStalls: 2, Evictions: 3, WriteBacks: 1}
	b := Cache{Accesses: 20, Hits: 15, Misses: 5, MSHRMerges: 2, MSHRStalls: 0, Evictions: 1, WriteBacks: 1}
	a.Add(&b)
	want := Cache{Accesses: 30, Hits: 20, Misses: 10, MSHRMerges: 3, MSHRStalls: 2, Evictions: 4, WriteBacks: 2}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestDRAMRates(t *testing.T) {
	d := DRAM{RowHits: 60, RowMisses: 40, QueueLatencySum: 1000, ServicedRequests: 10}
	if got := d.RowHitRate(); got != 0.6 {
		t.Errorf("RowHitRate = %v, want 0.6", got)
	}
	if got := d.AvgQueueLatency(); got != 100 {
		t.Errorf("AvgQueueLatency = %v, want 100", got)
	}
	var empty DRAM
	if empty.RowHitRate() != 0 || empty.AvgQueueLatency() != 0 {
		t.Error("empty DRAM rates should be 0")
	}
}

func TestDRAMAdd(t *testing.T) {
	a := DRAM{Reads: 1, Writes: 2, RowHits: 3, RowMisses: 4, BusyCycles: 5, QueueLatencySum: 6, ServicedRequests: 7}
	b := a
	a.Add(&b)
	if a.Reads != 2 || a.ServicedRequests != 14 || a.BusyCycles != 10 {
		t.Errorf("Add = %+v", a)
	}
}

func TestKernelDuration(t *testing.T) {
	k := Kernel{LaunchCycle: 100, DoneCycle: 350}
	if got := k.Duration(); got != 250 {
		t.Errorf("Duration = %d, want 250", got)
	}
	k = Kernel{LaunchCycle: 100, DoneCycle: 50} // never finished / inverted
	if got := k.Duration(); got != 0 {
		t.Errorf("inverted Duration = %d, want 0", got)
	}
}

func TestIPCAndSpeedup(t *testing.T) {
	if got := IPC(3000, 1000); got != 3 {
		t.Errorf("IPC = %v, want 3", got)
	}
	if got := IPC(5, 0); got != 0 {
		t.Errorf("IPC with zero cycles = %v, want 0", got)
	}
	if got := Speedup(2000, 1000); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if got := Speedup(2000, 0); got != 0 {
		t.Errorf("Speedup with zero = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean([1,4]) = %v, want 2", got)
	}
	got = GeoMean([]float64{2, 0, 8, -1}) // non-positive ignored
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean with junk = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: geomean lies between min and max of positive inputs.
	f := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 && !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g := GeoMean(vs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.756); got != "75.6%" {
		t.Errorf("Pct = %q", got)
	}
}
