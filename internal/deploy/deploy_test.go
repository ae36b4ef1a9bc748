package deploy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hammer/internal/eventsim"
)

func TestRunAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		pb := &Playbook{Name: "t", Kind: kind}
		sched := eventsim.New()
		bc, err := pb.Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if bc.Name() != kind {
			t.Fatalf("built %q for kind %q", bc.Name(), kind)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	pb := &Playbook{Name: "t", Kind: "bitcoin"}
	if _, err := pb.Run(eventsim.New()); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestParseValidation(t *testing.T) {
	for _, tc := range []struct {
		name, raw, want string
	}{
		{"bad JSON", `{`, ""},
		{"missing kind", `{"name":"x"}`, "missing kind"},
		{"unknown section", `{"name":"lp","kind":"fabric","cluster":{"coordinator":"127.0.0.1:9193"}}`, `"cluster"`},
		{"nested typo", `{"name":"x","kind":"fabric","fabric":{"peerz":3}}`, `"peerz"`},
		{"trailing object", `{"name":"x","kind":"fabric"} {}`, "trailing data"},
	} {
		_, err := Parse([]byte(tc.raw))
		if err == nil {
			t.Fatalf("%s: %s parsed, want an error", tc.name, tc.raw)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	pb, err := Parse([]byte(`{"name":"x","kind":"fabric"}`))
	if err != nil {
		t.Fatal(err)
	}
	if pb.Kind != "fabric" {
		t.Fatalf("kind %q", pb.Kind)
	}
}

func TestOverridesApply(t *testing.T) {
	raw := []byte(`{
		"name": "tuned-fabric",
		"kind": "fabric",
		"net": {"latency_ms": 5, "bandwidth_mbps": 50, "seed": 3},
		"fabric": {"peers": 6, "max_messages": 42, "batch_timeout_ms": 250, "pending_cap": 99}
	}`)
	pb, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Fabric == nil || pb.Fabric.Peers != 6 || pb.Fabric.MaxMessages != 42 {
		t.Fatalf("fabric spec %+v", pb.Fabric)
	}
	sched := eventsim.New()
	bc, err := pb.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Name() != "fabric" {
		t.Fatal("wrong chain")
	}
}

func TestMeepoShardOverride(t *testing.T) {
	pb, err := Parse([]byte(`{"name":"m","kind":"meepo","meepo":{"shards":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := pb.Run(eventsim.New())
	if err != nil {
		t.Fatal(err)
	}
	if bc.Shards() != 4 {
		t.Fatalf("shards %d, want 4", bc.Shards())
	}
}

func TestCommitteeValidatorOverride(t *testing.T) {
	pb, err := Parse([]byte(`{"name":"c","kind":"committee","committee":{"validators":7,"round_timeout_ms":500}}`))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := pb.Run(eventsim.New())
	if err != nil {
		t.Fatal(err)
	}
	if bc.Name() != "committee" {
		t.Fatalf("wrong chain %q", bc.Name())
	}
	if _, err := Parse([]byte(`{"name":"c","kind":"committee","committee":{"validators":-1}}`)); err == nil {
		t.Fatal("negative validator count should be rejected")
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pb.json")
	if err := os.WriteFile(path, []byte(`{"name":"f","kind":"ethereum","ethereum":{"mempool_cap":7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	pb, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Ethereum == nil || pb.Ethereum.MempoolCap != 7 {
		t.Fatalf("%+v", pb.Ethereum)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file should error")
	}
}
