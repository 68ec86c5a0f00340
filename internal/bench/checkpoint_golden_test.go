package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/snapshot"
)

// The checkpoint goldens pin the MCSNAP bytes and the audit hashes across
// builds: a change to the snapshot layer (or to any state it serializes)
// that alters a single byte of a capture fails here, where the round-trip
// tests — which compare a run with itself — cannot see it. Regenerate,
// only for an intentional format or behaviour change, with
//
//	go test ./internal/bench -run TestGoldenCheckpoint -update-golden

const checkpointGolden = "golden_checkpoint.json"

// checkpointCase is one pinned capture.
type checkpointCase struct {
	name string
	cfg  SoakConfig
	at   int64
}

// checkpointRecord is what the golden file pins per case.
type checkpointRecord struct {
	Op     int64             `json:"op"`
	VTime  int64             `json:"vtime_ns"`
	Bytes  int               `json:"bytes"`
	SHA256 string            `json:"sha256"`
	Hashes map[string]string `json:"hashes"`
}

func checkpointCases() []checkpointCase {
	base := func(policy string) SoakConfig {
		return SoakConfig{
			Policy:    policy,
			Workloads: []string{"A", "F"},
			Records:   2_000,
			Ops:       3_000,
			DRAMPages: 128,
			PMPages:   1_024,
			Interval:  1 * sim.Millisecond,
			Seed:      5,
		}
	}
	// 4500 ops lands mid-way through the second workload, so every capture
	// carries a run in flight and a completed result in its config section.
	var cases []checkpointCase
	for _, p := range snapshotPolicies {
		cases = append(cases, checkpointCase{name: p, cfg: base(p), at: 4_500})
	}
	observed := base("nomad")
	observed.Chaos = fault.UniformRate(9, 0.02)
	observed.Metrics = true
	observed.TraceEvents = 64
	cases = append(cases, checkpointCase{name: "nomad/chaos+metrics", cfg: observed, at: 4_500})
	return cases
}

func captureCheckpointRecord(t *testing.T, c checkpointCase) checkpointRecord {
	t.Helper()
	s, err := NewSession(c.cfg)
	if err != nil {
		t.Fatalf("%s: NewSession: %v", c.name, err)
	}
	if _, ok := s.M.Policy.(machine.StateSnapshotter); !ok {
		t.Fatalf("%s: policy does not implement machine.StateSnapshotter", c.name)
	}
	s.RunUntil(c.at)
	if s.run == nil {
		t.Fatalf("%s: no run in flight at op %d", c.name, c.at)
	}
	f, err := s.Capture()
	if err != nil {
		t.Fatalf("%s: Capture: %v", c.name, err)
	}
	data := f.Encode()

	f2, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("%s: Decode: %v", c.name, err)
	}
	if again := f2.Encode(); !bytes.Equal(again, data) {
		t.Errorf("%s: Decode(Encode(f)) re-encodes to different bytes (first divergence at %d)", c.name, firstDiff(again, data))
	}

	rec, err := s.Fingerprint()
	if err != nil {
		t.Fatalf("%s: Fingerprint: %v", c.name, err)
	}
	// The audit hashes are the container's section checksums.
	for _, name := range f.Sections() {
		if name == snapshot.SecConfig {
			continue
		}
		if got, want := rec.Hashes[name], fmt.Sprintf("%016x", f.Hash(name)); got != want {
			t.Errorf("%s: audit hash of %q is %s, section checksum %s", c.name, name, got, want)
		}
	}
	sum := sha256.Sum256(data)
	return checkpointRecord{
		Op:     rec.Op,
		VTime:  rec.VTime,
		Bytes:  len(data),
		SHA256: hex.EncodeToString(sum[:]),
		Hashes: rec.Hashes,
	}
}

// TestGoldenCheckpoint pins sha256(Capture().Encode()) and the full audit
// fingerprint of a mid-workload capture under every checkpointable policy,
// plus one chaos-and-metrics session.
func TestGoldenCheckpoint(t *testing.T) {
	got := make(map[string]checkpointRecord)
	for _, c := range checkpointCases() {
		got[c.name] = captureCheckpointRecord(t, c)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		checkGolden(t, checkpointGolden, data)
		return
	}
	raw, err := os.ReadFile(goldenPath(checkpointGolden))
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden): %v", err)
	}
	var want map[string]checkpointRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", checkpointGolden, err)
	}
	for _, c := range checkpointCases() {
		g, w := got[c.name], want[c.name]
		if g.SHA256 != w.SHA256 || g.Bytes != w.Bytes || g.Op != w.Op || g.VTime != w.VTime {
			t.Errorf("%s: capture is %d bytes sha256 %s at op %d vtime %d, golden %d bytes sha256 %s at op %d vtime %d",
				c.name, g.Bytes, g.SHA256, g.Op, g.VTime, w.Bytes, w.SHA256, w.Op, w.VTime)
		}
		for sec, h := range w.Hashes {
			if g.Hashes[sec] != h {
				t.Errorf("%s: section %q hash %s, golden %s", c.name, sec, g.Hashes[sec], h)
			}
		}
		if len(g.Hashes) != len(w.Hashes) {
			t.Errorf("%s: %d audit hashes, golden %d", c.name, len(g.Hashes), len(w.Hashes))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d golden cases computed, fixture holds %d", len(got), len(want))
	}
}
