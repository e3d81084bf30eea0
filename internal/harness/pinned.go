package harness

import (
	"runtime"

	"entangling/internal/workload"
)

// The pinned mini-sweep: 4 CVP-1 workloads x 7 configurations = 28
// cells at fixed windows. Its metrics fingerprint is the contract every
// refactor keeps (TestPinnedBenchFingerprint); the benchmark under
// benchmark/ reruns it, and the job server is diffed against it.
// Changing any of the three values below moves that fingerprint.

// PinnedBenchSpecs returns the fixed workload set of the mini-sweep.
func PinnedBenchSpecs() []workload.Spec { return workload.CVPSuite(1) }

// PinnedBenchConfigurations returns the fixed configuration lineup of
// the mini-sweep: baseline, the strongest competitors, both low-budget
// entangling points, and the ideal bound — enough reuse per workload
// trace to expose redundant-generation regressions.
func PinnedBenchConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "mana-4k", Prefetcher: "mana-4k"},
		{Name: "djolt", Prefetcher: "djolt"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "ideal", IdealL1I: true},
	}
}

// PinnedBenchOptions returns the fixed windows of the mini-sweep.
func PinnedBenchOptions() Options {
	return Options{
		Warmup:      400_000,
		Measure:     200_000,
		PerCategory: 1,
		Parallelism: runtime.GOMAXPROCS(0),
	}
}
