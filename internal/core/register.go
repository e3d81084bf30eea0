package core

import "entangling/internal/prefetch"

// factory adapts a Config into a prefetch.Factory.
func factory(cfg Config) prefetch.Factory {
	return func(is prefetch.Issuer) prefetch.Prefetcher { return New(cfg, is) }
}

func init() {
	prefetch.Register("entangling-2k", factory(Config2K(Virtual)))
	prefetch.Register("entangling-4k", factory(Config4K(Virtual)))
	prefetch.Register("entangling-8k", factory(Config8K(Virtual)))
	prefetch.Register("epi", factory(ConfigEPI()))

	// Ablation variants of Figure 11 on the 4K configuration.
	for _, v := range []Variant{VariantBB, VariantBBEnt, VariantBBEntBB, VariantEnt} {
		v := v
		for _, mk := range []struct {
			suffix string
			cfg    func(AddressSpace) Config
		}{
			{"2k", Config2K}, {"4k", Config4K}, {"8k", Config8K},
		} {
			cfg := mk.cfg(Virtual)
			cfg.Variant = v
			cfg.Name = cfg.Name + "-" + v.String()
			if v != VariantFull {
				cfg.MergeWindow = 0
			}
			prefetch.Register("entangling-"+mk.suffix+"-"+v.String(), factory(cfg))
		}
	}

	// Future-work split design (§III-C3): sizes and pairs in separate
	// structures, most interesting at low budgets.
	for _, mk := range []struct {
		name string
		cfg  func(AddressSpace) Config
	}{
		{"entangling-2k-split", Config2K},
		{"entangling-4k-split", Config4K},
		{"entangling-8k-split", Config8K},
	} {
		cfg := mk.cfg(Virtual)
		cfg.Name = mk.name
		cfg.SplitTable = true
		prefetch.Register(mk.name, factory(cfg))
	}

	// The rejected context-replication variant (§III-B1), kept as a
	// reproducible negative result.
	{
		cfg := Config4K(Virtual)
		cfg.Name = "entangling-4k-ctx"
		cfg.ContextBits = 8
		prefetch.Register("entangling-4k-ctx", factory(cfg))
	}

	// Prefetch-on-retire (§III-C1): triggers wait for the triggering
	// instruction to retire, trading timeliness for wrong-path safety.
	// The delay models a full-pipeline drain (~20 cycles).
	{
		cfg := Config4K(Virtual)
		cfg.Name = "entangling-4k-retire"
		cfg.RetireDelay = 20
		prefetch.Register("entangling-4k-retire", factory(cfg))
	}

	// Physical-address configurations (§IV-E).
	for _, mk := range []struct {
		name string
		cfg  func(AddressSpace) Config
	}{
		{"entangling-2k-phys", Config2K},
		{"entangling-4k-phys", Config4K},
		{"entangling-8k-phys", Config8K},
	} {
		cfg := mk.cfg(Physical)
		cfg.Name = mk.name
		prefetch.Register(mk.name, factory(cfg))
	}
}
