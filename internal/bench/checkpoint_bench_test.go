package bench

import (
	"sync"
	"testing"

	"multiclock/internal/sim"
	"multiclock/internal/snapshot"
)

// Per-step checkpoint benchmarks on a Nomad session at the paper's memory
// sizes (24k 1000-byte records, 1024 DRAM / 24576 PM frames) paused
// mid-workload. Each step runs against the same fixed capture, so a
// regression in one step shows up in that step's ns/op and allocs/op:
//
//	go test -run '^$' -bench Checkpoint -benchmem ./internal/bench

var checkpointFixture struct {
	once sync.Once
	s    *Session
	f    *snapshot.File
	data []byte
	err  error
}

func benchCheckpointFixture(b *testing.B) (*Session, *snapshot.File, []byte) {
	b.Helper()
	fx := &checkpointFixture
	fx.once.Do(func() {
		fx.s, fx.err = NewSession(SoakConfig{
			Policy:    "nomad",
			Workloads: []string{"A"},
			Records:   24_000,
			Ops:       60_000,
			DRAMPages: 1_024,
			PMPages:   24_576,
			Interval:  10 * sim.Millisecond,
			Seed:      1,
		})
		if fx.err != nil {
			return
		}
		fx.s.RunUntil(30_000)
		if fx.f, fx.err = fx.s.Capture(); fx.err != nil {
			return
		}
		fx.data = fx.f.Encode()
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return fx.s, fx.f, fx.data
}

func BenchmarkCheckpointCapture(b *testing.B) {
	s, _, _ := benchCheckpointFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Capture(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointFingerprint(b *testing.B) {
	s, _, _ := benchCheckpointFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointEncode(b *testing.B) {
	_, f, data := benchCheckpointFixture(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Encode()
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	_, _, data := benchCheckpointFixture(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointRestore(b *testing.B) {
	_, f, _ := benchCheckpointFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSession(f); err != nil {
			b.Fatal(err)
		}
	}
}
