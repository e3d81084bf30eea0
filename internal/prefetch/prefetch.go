// Package prefetch defines the L1I prefetcher interface — the hook set
// of the 1st Instruction Prefetching Championship (IPC-1) ChampSim API
// the paper's evaluation is built on — plus a registry and the simple
// baseline prefetchers (NextLine, SN4L, the Markov look-ahead-d
// prefetcher used for Figure 2). The heavier baselines (MANA, RDIP,
// D-JOLT, FNL+MMA) live in their own files; the paper's contribution
// lives in internal/core.
package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"entangling/internal/cache"
	"entangling/internal/trace"
)

// Issuer lets a prefetcher inject prefetch requests into the L1I's
// prefetch queue. The cache.ICache implements it.
type Issuer interface {
	// Prefetch enqueues lineAddr, issued no earlier than notBefore.
	// meta is opaque and returned with later events concerning the
	// request/line. Reports whether the request was accepted (false
	// when the prefetch queue is full).
	Prefetch(notBefore uint64, lineAddr uint64, meta uint64) bool
}

// BranchEvent is delivered to prefetchers for every branch instruction
// at the time the front-end's prediction engine processes it (the
// ChampSim branch_operate hook RDIP-style prefetchers rely on).
type BranchEvent struct {
	Cycle  uint64
	PC     uint64
	Type   trace.BranchType
	Taken  bool
	Target uint64
}

// Feedback is one prefetch lifecycle outcome (late or useless)
// delivered back to the prefetcher that issued the request, carrying
// the request's opaque metadata. The CPU's lifecycle tracker generates
// it; prefetchers can use it for degree/distance throttling.
type Feedback = cache.PrefetchFeedback

// Feedback kinds.
const (
	FeedbackLate    = cache.FeedbackLate
	FeedbackUseless = cache.FeedbackUseless
)

// FeedbackSink receives lifecycle feedback. Base implements it as a
// no-op, so every prefetcher embedding Base is automatically wired.
type FeedbackSink = cache.FeedbackSink

// Prefetcher is an L1I prefetcher. OnAccess/OnFill/OnEvict mirror
// cache.Listener; the CPU wires the L1I's event stream straight into
// the active prefetcher.
type Prefetcher interface {
	// Name identifies the configuration, e.g. "entangling-4k".
	Name() string
	// StorageBits returns the hardware budget the configuration would
	// occupy, in bits (for the paper's storage-vs-IPC comparisons).
	StorageBits() uint64
	OnAccess(cache.AccessEvent)
	OnFill(cache.FillEvent)
	OnEvict(cache.EvictEvent)
	OnBranch(BranchEvent)
}

// Factory constructs a prefetcher bound to an issuer.
type Factory func(Issuer) Prefetcher

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named prefetcher configuration. Registering a name
// twice panics: configurations are identities in the evaluation.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory of a registered prefetcher.
func Lookup(name string) (Factory, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (known: %v)", name, Names())
	}
	return f, nil
}

// New instantiates a registered prefetcher.
func New(name string, issuer Issuer) (Prefetcher, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(issuer), nil
}

// Names lists registered configurations, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Base provides no-op hooks and name/storage plumbing for embedding.
type Base struct {
	PfName string
	Bits   uint64
}

// Name implements Prefetcher.
func (b *Base) Name() string { return b.PfName }

// StorageBits implements Prefetcher.
func (b *Base) StorageBits() uint64 { return b.Bits }

// OnAccess implements Prefetcher as a no-op.
func (b *Base) OnAccess(cache.AccessEvent) {}

// OnFill implements Prefetcher as a no-op.
func (b *Base) OnFill(cache.FillEvent) {}

// OnEvict implements Prefetcher as a no-op.
func (b *Base) OnEvict(cache.EvictEvent) {}

// OnBranch implements Prefetcher as a no-op.
func (b *Base) OnBranch(BranchEvent) {}

// OnPrefetchFeedback implements FeedbackSink as a no-op.
func (b *Base) OnPrefetchFeedback(Feedback) {}

// None is the no-prefetching baseline configuration.
type None struct{ Base }

// NewNone returns the baseline (no prefetcher).
func NewNone(Issuer) Prefetcher { return &None{Base{PfName: "no"}} }

func init() {
	Register("no", NewNone)
}
