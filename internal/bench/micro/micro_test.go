package micro

import "testing"

func BenchmarkEngineScheduleFire(b *testing.B)    { EngineScheduleFire(b) }
func BenchmarkRefEngineScheduleFire(b *testing.B) { RefEngineScheduleFire(b) }
func BenchmarkEngineScheduleCancel(b *testing.B)  { EngineScheduleCancel(b) }
func BenchmarkProcSubmitDispatch(b *testing.B)    { ProcSubmitDispatch(b) }
func BenchmarkFabricDeliveryCtl(b *testing.B)     { FabricDeliveryCtl(b) }
func BenchmarkFabricDeliveryBulk(b *testing.B)    { FabricDeliveryBulk(b) }
func BenchmarkLCIEagerRoundTrip(b *testing.B)     { LCIEagerRoundTrip(b) }
func BenchmarkLCIDirectRoundTrip(b *testing.B)    { LCIDirectRoundTrip(b) }
func BenchmarkLCICEActiveMessage(b *testing.B)    { LCICEActiveMessage(b) }
func BenchmarkLCICEPut(b *testing.B)              { LCICEPut(b) }
func BenchmarkParallelDomainShards1(b *testing.B) { ParallelDomainThroughput(1)(b) }
func BenchmarkParallelDomainShards4(b *testing.B) { ParallelDomainThroughput(4)(b) }
func BenchmarkParallelDomainShards8(b *testing.B) { ParallelDomainThroughput(8)(b) }
func BenchmarkParallelRoundShards2(b *testing.B)  { ParallelRoundOverhead(2)(b) }
func BenchmarkParallelRoundShards4(b *testing.B)  { ParallelRoundOverhead(4)(b) }
func BenchmarkParallelRoundShards8(b *testing.B)  { ParallelRoundOverhead(8)(b) }

// TestParallelRoundHotPathZeroAlloc pins the round protocol's steady state
// at zero allocations per event: the nextTime scan, window computation,
// barrier, and pooled engine events must all reuse memory. The one-time
// Run-entry setup (worker goroutines, parker channels) amortizes away over
// the benchmark's iteration count.
func TestParallelRoundHotPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	for _, shards := range []int{2, 4} {
		r := testing.Benchmark(ParallelRoundOverhead(shards))
		if allocs := r.AllocsPerOp(); allocs != 0 {
			t.Errorf("shards=%d: %d allocs/op in the round hot path, want 0 (%d bytes/op)",
				shards, allocs, r.AllocedBytesPerOp())
		}
	}
}

// TestLCIPathZeroAlloc pins the LCI communication path's steady state at
// zero allocations per message: pooled packets, Direct ops and lcice
// operation objects with once-bound callbacks. The harnesses start counting
// after a warm-up, so the check holds for any b.N, race detector included.
func TestLCIPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	for name, f := range map[string]func(*testing.B){
		"LCIEagerRoundTrip":  LCIEagerRoundTrip,
		"LCIDirectRoundTrip": LCIDirectRoundTrip,
		"LCICEActiveMessage": LCICEActiveMessage,
		"LCICEPut":           LCICEPut,
	} {
		r := testing.Benchmark(f)
		if allocs := r.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: %d allocs/op, want 0 (%d bytes/op)", name, allocs, r.AllocedBytesPerOp())
		}
	}
}
