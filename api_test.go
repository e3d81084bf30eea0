package entangling_test

import (
	"errors"
	"strings"
	"testing"

	"entangling"
	"entangling/internal/harness"
)

func TestWorkloadBuilders(t *testing.T) {
	specs := entangling.Workloads(2)
	if len(specs) != 8 {
		t.Fatalf("Workloads(2) = %d specs", len(specs))
	}
	cloud := entangling.CloudWorkloads()
	if len(cloud) != 4 {
		t.Fatalf("CloudWorkloads = %d specs", len(cloud))
	}
	p := entangling.WorkloadPreset(entangling.Srv)
	v := entangling.VaryWorkload(p, 7)
	if v.Seed != 7 {
		t.Error("VaryWorkload did not set seed")
	}
}

func TestPublicRun(t *testing.T) {
	p := entangling.VaryWorkload(entangling.WorkloadPreset(entangling.Int), 3)
	p.Name = "api-int"
	wl := entangling.WorkloadSpec{Name: p.Name, Params: p}

	base, err := entangling.Run(entangling.Baseline, wl, 200_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if base.Instructions != 150_000 || base.IPC <= 0 {
		t.Fatalf("baseline run: %+v", base)
	}
	cfg := entangling.Configuration{Name: "entangling-2k", Prefetcher: "entangling-2k"}
	r, err := entangling.Run(cfg, wl, 200_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.PrefetcherName != "entangling-2k" {
		t.Errorf("prefetcher name %q", r.PrefetcherName)
	}
	if r.StorageBits == 0 {
		t.Error("storage not reported")
	}
}

// TestRunRejectsInvalidWorkload: a workload whose parameters fail
// validation comes back from Run as that validation error, not as a
// panic inside the cell.
func TestRunRejectsInvalidWorkload(t *testing.T) {
	p := entangling.WorkloadPreset(entangling.Int)
	p.Name = "one"
	p.Functions = 1
	want := p.Validate()
	if want == nil {
		t.Fatal("a one-function workload validates")
	}
	_, err := entangling.Run(entangling.Baseline, entangling.WorkloadSpec{Name: p.Name, Params: p}, 1000, 1000)
	if err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("Run = %v, want the validation error %q", err, want)
	}
	if errors.Is(err, harness.ErrCellPanic) {
		t.Errorf("Run reported a panicked cell: %v", err)
	}
}

func TestPublicRegistry(t *testing.T) {
	names := entangling.Prefetchers()
	for _, want := range []string{"entangling-2k", "entangling-4k", "entangling-8k",
		"entangling-2k-split", "entangling-4k-ctx", "mana-4k", "rdip", "djolt", "fnl+mma", "epi"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("public registry missing %q", want)
		}
	}
}

// countingPrefetcher checks a user-defined prefetcher integrates
// end-to-end through the public API.
type countingPrefetcher struct {
	entangling.PrefetcherBase
	issuer   entangling.Issuer
	accesses int
	branches int
}

func (c *countingPrefetcher) OnAccess(ev entangling.AccessEvent) {
	c.accesses++
	c.issuer.Prefetch(ev.Cycle, ev.LineAddr+1, 0xF00)
}

func (c *countingPrefetcher) OnBranch(entangling.BranchEvent) { c.branches++ }

func TestCustomPrefetcherViaPublicAPI(t *testing.T) {
	var built *countingPrefetcher
	entangling.RegisterPrefetcher("api-test-counter", func(is entangling.Issuer) entangling.Prefetcher {
		built = &countingPrefetcher{
			PrefetcherBase: entangling.PrefetcherBase{PfName: "api-test-counter", Bits: 123},
			issuer:         is,
		}
		return built
	})

	p := entangling.VaryWorkload(entangling.WorkloadPreset(entangling.Srv), 5)
	p.Name = "api-srv"
	wl := entangling.WorkloadSpec{Name: p.Name, Params: p}
	cfg := entangling.Configuration{Name: "api-test-counter", Prefetcher: "api-test-counter"}
	r, err := entangling.Run(cfg, wl, 100_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if built == nil || built.accesses == 0 || built.branches == 0 {
		t.Fatal("custom prefetcher hooks never fired")
	}
	if r.StorageBits != 123 {
		t.Errorf("StorageBits = %d", r.StorageBits)
	}
	if r.L1I.PrefetchRequested == 0 {
		t.Error("custom prefetches not requested")
	}
}

func TestPublicSuiteAndFigures(t *testing.T) {
	specs := entangling.Workloads(1)[:2]
	cfgs := []entangling.Configuration{
		entangling.Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
	}
	opt := entangling.Options{Warmup: 100_000, Measure: 80_000}
	suite, err := entangling.RunSuite(specs, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	tab := entangling.Fig06(suite)
	if !strings.Contains(tab.String(), "nextline") {
		t.Error("Fig06 missing row")
	}
	if !strings.Contains(tab.CSV(), "nextline") {
		t.Error("CSV missing row")
	}
	if entangling.DefaultOptions().Warmup == 0 || entangling.QuickOptions().Measure == 0 {
		t.Error("options helpers broken")
	}
	_ = entangling.DefaultEnergyModel()
	if len(entangling.StandardConfigurations()) < 10 {
		t.Error("standard configurations incomplete")
	}
	if len(entangling.CompactConfigurations()) < 5 {
		t.Error("compact configurations incomplete")
	}
}

func TestEntanglingConfigsExported(t *testing.T) {
	if entangling.Entangling2K.Sets != 128 || entangling.Entangling4K.Sets != 256 ||
		entangling.Entangling8K.Sets != 512 {
		t.Error("exported Entangling configs wrong")
	}
	// A custom instance can be built directly.
	pf := entangling.NewEntangling(entangling.Entangling2K, nopIssuer{})
	if pf.Name() != "entangling-2k" {
		t.Errorf("custom instance name %q", pf.Name())
	}
}

type nopIssuer struct{}

func (nopIssuer) Prefetch(uint64, uint64, uint64) bool { return true }
