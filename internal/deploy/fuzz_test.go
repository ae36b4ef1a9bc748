package deploy

import (
	"encoding/json"
	"testing"
)

// FuzzPlaybook fuzzes the playbook parser: arbitrary JSON must never panic,
// and any playbook that parses must carry a known kind and survive a
// marshal→reparse round trip.
func FuzzPlaybook(f *testing.F) {
	seeds := []string{
		`{"name":"min","kind":"ethereum"}`,
		`{"name":"tuned","kind":"fabric","net":{"latency_ms":5,"bandwidth_mbps":50,"seed":3},"fabric":{"peers":6,"max_messages":42,"batch_timeout_ms":250,"pending_cap":99}}`,
		`{"name":"m","kind":"meepo","meepo":{"shards":4,"dynamic_sharding":true,"max_shards":8}}`,
		`{"name":"n","kind":"neuchain","neuchain":{"block_servers":3,"epoch_interval_ms":50}}`,
		`{"kind":"bitcoin"}`,
		`{"kind":"ethereum","ethereum":{"nodes":-1}}`,
		`{"kind":"ethereum","ethereum":{"block_interval_ms":1e308}}`,
		`{`,
		`null`,
		`[]`,
		`{"name":"lp","kind":"fabric","cluster":{}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		pb, err := Parse(raw)
		if err != nil {
			return
		}
		known := false
		for _, k := range Kinds() {
			known = known || k == pb.Kind
		}
		if !known {
			t.Fatalf("Parse accepted unknown kind %q", pb.Kind)
		}
		m, err := json.Marshal(pb)
		if err != nil {
			t.Fatalf("parsed playbook does not re-marshal: %v", err)
		}
		if _, err := Parse(m); err != nil {
			t.Fatalf("marshal→reparse failed: %v\nplaybook: %s", err, m)
		}
	})
}
