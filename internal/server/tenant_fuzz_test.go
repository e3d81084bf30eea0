package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzTenantsConfigDecode hardens the tenants-file parser: arbitrary
// bytes must never panic, and any input the parser accepts must
// satisfy every validation invariant (positive quotas, usable keys,
// known tiers, unique identities) — the file is operator-supplied and
// gates all of admission control.
func FuzzTenantsConfigDecode(f *testing.F) {
	valid := `{
	  "schema_version": 1,
	  "tenants": [
	    {"name": "acme", "key": "acme-key-0001", "tier": "gold",
	     "max_jobs_in_flight": 4, "cells_per_sec": 100, "max_trace_bytes": 1048576},
	    {"name": "zeta", "key": "zeta-key-0001", "tier": "bronze",
	     "max_jobs_in_flight": 2, "cells_per_sec": 10, "max_trace_bytes": 65536}
	  ]
	}`
	f.Add([]byte(valid))
	// Unknown fields must be refused, not ignored: a typoed quota key
	// silently ignored is a quota silently unenforced.
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"12345678","tier":"bronze","max_jobs_in_flite":4,"cells_per_sec":1,"max_trace_bytes":1}]}`))
	// Zero and negative quotas must be refused.
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"12345678","max_jobs_in_flight":0,"cells_per_sec":1,"max_trace_bytes":1}]}`))
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"12345678","max_jobs_in_flight":4,"cells_per_sec":-1,"max_trace_bytes":1}]}`))
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"12345678","max_jobs_in_flight":4,"cells_per_sec":1,"max_trace_bytes":-5}]}`))
	// NaN smuggling via JSON string is impossible, but "1e999" (inf
	// overflow), short keys, duplicate names/keys and trailing data are
	// all real operator typos.
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"12345678","max_jobs_in_flight":4,"cells_per_sec":1e999,"max_trace_bytes":1}]}`))
	f.Add([]byte(`{"schema_version":1,"tenants":[{"name":"a","key":"short","max_jobs_in_flight":4,"cells_per_sec":1,"max_trace_bytes":1}]}`))
	f.Add([]byte(`{"schema_version":1,"tenants":[]}{"extra":"doc"}`))
	f.Add([]byte(`{"schema_version":2,"tenants":[]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	// Retired fields are unknown fields now: the tier lineup is fixed,
	// and no tenant can be granted fault injection.
	f.Add([]byte(allowFaultsDoc))
	f.Add([]byte(tiersDoc))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseTenantsConfig(data)
		if err != nil {
			return
		}
		// Accepted inputs must be fully validated…
		if cfg.SchemaVersion != TenantsConfigSchemaVersion {
			t.Fatalf("accepted schema_version %d", cfg.SchemaVersion)
		}
		seenName := make(map[string]bool)
		seenKey := make(map[string]bool)
		for _, tn := range cfg.Tenants {
			if tn.Name == "" || len(tn.Key) < 8 {
				t.Fatalf("accepted tenant with unusable identity: %+v", tn)
			}
			if tn.MaxJobsInFlight <= 0 || !(tn.CellsPerSec > 0) || tn.MaxTraceBytes <= 0 {
				t.Fatalf("accepted tenant with non-positive quota: %+v", tn)
			}
			if seenName[tn.Name] || seenKey[tn.Key] {
				t.Fatalf("accepted duplicate tenant identity: %+v", tn)
			}
			seenName[tn.Name] = true
			seenKey[tn.Key] = true
		}
		// …usable to build a server…
		if ts := newTenants(cfg, nil); len(ts.byName) != len(cfg.Tenants) {
			t.Fatalf("newTenants built %d of %d tenants", len(ts.byName), len(cfg.Tenants))
		}
		// …and round-trippable: re-marshaling a validated config and
		// re-parsing it must accept and agree.
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("re-marshaling validated config: %v", err)
		}
		again, err := ParseTenantsConfig(out)
		if err != nil {
			t.Fatalf("re-parsing marshaled config: %v (%s)", err, out)
		}
		if len(again.Tenants) != len(cfg.Tenants) {
			t.Fatalf("round trip changed tenant count: %d != %d", len(again.Tenants), len(cfg.Tenants))
		}
	})
}

// Documents that set fields the tenants file no longer has.
const (
	allowFaultsDoc = `{"schema_version":1,"tenants":[{"name":"a","key":"12345678","max_jobs_in_flight":4,"cells_per_sec":1,"max_trace_bytes":1,"allow_faults":true}]}`
	tiersDoc       = `{"schema_version":1,"tiers":[{"name":"gold","weight":100}],"tenants":[{"name":"a","key":"12345678","tier":"gold","max_jobs_in_flight":4,"cells_per_sec":1,"max_trace_bytes":1}]}`
)

// TestTenantsConfigRejections pins the exact refusals the fuzz seeds
// rely on, with readable errors.
func TestTenantsConfigRejections(t *testing.T) {
	base := func(mut func(*TenantsConfig)) *TenantsConfig {
		c := tenantFixture()
		mut(c)
		return c
	}
	for _, tc := range []struct {
		name    string
		cfg     *TenantsConfig
		wantSub string
	}{
		{"wrong schema", base(func(c *TenantsConfig) { c.SchemaVersion = 99 }), "schema_version"},
		{"zero jobs quota", base(func(c *TenantsConfig) { c.Tenants[0].MaxJobsInFlight = 0 }), "max_jobs_in_flight"},
		{"negative cell rate", base(func(c *TenantsConfig) { c.Tenants[0].CellsPerSec = -3 }), "cells_per_sec"},
		{"zero trace bytes", base(func(c *TenantsConfig) { c.Tenants[0].MaxTraceBytes = 0 }), "max_trace_bytes"},
		{"short key", base(func(c *TenantsConfig) { c.Tenants[0].Key = "short" }), "key"},
		{"dup name", base(func(c *TenantsConfig) { c.Tenants[1].Name = c.Tenants[0].Name }), "duplicate"},
		{"dup key", base(func(c *TenantsConfig) { c.Tenants[1].Key = c.Tenants[0].Key }), "already assigned"},
		{"unknown tier", base(func(c *TenantsConfig) { c.Tenants[0].Tier = "platinum" }), "tier"},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	for _, tc := range []struct{ name, doc, field string }{
		{"allow_faults", allowFaultsDoc, "allow_faults"},
		{"tiers", tiersDoc, "tiers"},
	} {
		_, err := ParseTenantsConfig([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Fatalf("%s: ParseTenantsConfig error %v, want unknown field %q", tc.name, err, tc.field)
		}
	}
	if err := tenantFixture().Validate(); err != nil {
		t.Fatalf("fixture config rejected: %v", err)
	}
}
