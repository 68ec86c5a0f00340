package snapshot

import (
	"errors"
	"fmt"

	"multiclock/internal/kvstore"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
	"multiclock/internal/ycsb"
)

// Target is one complete simulated system: everything Capture serializes and
// Restore rebuilds. The policy is reached through the machine; Metrics and
// Run may be nil (no telemetry, no workload in flight).
type Target struct {
	M       *machine.Machine
	Store   *kvstore.Store
	Client  *ycsb.Client
	Run     *ycsb.Run
	Metrics *metrics.Registry
}

// Capture serializes the target at a quiescent boundary into a container.
// The config payload is opaque to this layer: the harness that constructs
// targets writes whatever it needs to rebuild (and cross-check) an identical
// pristine system before Restore.
func Capture(t *Target, config []byte) (*File, error) {
	f := NewFile()
	if err := capture(t, config, (*fileSink)(f)); err != nil {
		return nil, err
	}
	return f, nil
}

// sectionSink receives the sections of one capture walk in SectionOrder.
type sectionSink interface {
	// encoder returns an empty encoder for the next section's payload.
	encoder() *snapcodec.Encoder
	// section takes one finished payload. The payload is only valid until
	// the next encoder call.
	section(name string, payload []byte)
}

// fileSink keeps every payload in a container.
type fileSink File

func (s *fileSink) encoder() *snapcodec.Encoder { return snapcodec.NewEncoder() }

func (s *fileSink) section(name string, payload []byte) { (*File)(s).AddSection(name, payload) }

// capture is the one walk over a target's state: every section in
// SectionOrder, each encoded by its subsystem into the sink's encoder.
// Capture keeps the payloads; AuditFingerprint hashes them from one reused
// scratch buffer.
func capture(t *Target, config []byte, sink sectionSink) error {
	if n := t.M.Clock.NonDaemonPending(); n != 0 {
		return &NotQuiescentError{Pending: n}
	}
	ps, ok := t.M.Policy.(machine.StateSnapshotter)
	if !ok {
		return &UnsupportedPolicyError{Policy: t.M.Policy.Name()}
	}
	for _, name := range SectionOrder {
		if name == SecConfig {
			sink.section(name, config)
			continue
		}
		enc := sink.encoder()
		if err := encodeSection(t, ps, name, enc); err != nil {
			return err
		}
		sink.section(name, enc.Bytes())
	}
	return nil
}

// encodeSection writes one state section of the target.
func encodeSection(t *Target, ps machine.StateSnapshotter, name string, enc *snapcodec.Encoder) error {
	switch name {
	case SecClock:
		encodeClock(t.M.Clock, enc)
	case SecMem:
		t.M.Mem.SnapshotState(enc)
	case SecLRU:
		t.M.SnapshotLRUState(enc)
	case SecMachine:
		t.M.SnapshotMachineState(enc)
	case SecFault:
		enc.Bool(t.M.Faults != nil)
		if t.M.Faults != nil {
			t.M.Faults.SnapshotState(enc)
		}
	case SecPolicy:
		enc.String(t.M.Policy.Name())
		return ps.SnapshotState(enc)
	case SecStore:
		t.Store.SnapshotState(enc)
	case SecWorkload:
		t.Client.SnapshotState(enc)
		enc.Bool(t.Run != nil)
		if t.Run != nil {
			return t.Run.SnapshotState(enc)
		}
	case SecMetrics:
		enc.Bool(t.Metrics != nil)
		if t.Metrics != nil {
			t.Metrics.SnapshotState(enc)
		}
	default:
		panic("snapshot: no encoder for section " + name)
	}
	return nil
}

// Restore rebuilds a saved system's mutable state onto a pristine target of
// identical configuration (the caller read the config section and ran the
// same construction path). On success t.Run holds the restored in-flight
// workload (nil if none was running) and the machine passes its invariant
// checker; on error the target is unusable and must be discarded.
func Restore(t *Target, f *File) error {
	ps, ok := t.M.Policy.(machine.StateSnapshotter)
	if !ok {
		return &UnsupportedPolicyError{Policy: t.M.Policy.Name()}
	}
	reg := machine.NewPageRegistry()

	dec, err := sectionDecoder(f, SecMem)
	if err != nil {
		return err
	}
	if err := finish(dec, t.M.Mem.RestoreState(dec)); err != nil {
		return wrapSection(SecMem, err)
	}

	if dec, err = sectionDecoder(f, SecLRU); err != nil {
		return err
	}
	if err := finish(dec, t.M.RestoreLRUState(dec, reg)); err != nil {
		return wrapSection(SecLRU, err)
	}

	if dec, err = sectionDecoder(f, SecMachine); err != nil {
		return err
	}
	if err := finish(dec, t.M.RestoreMachineState(dec, reg)); err != nil {
		return wrapSection(SecMachine, err)
	}

	payload, ok := f.Section(SecClock)
	if !ok {
		return &CorruptError{Section: SecClock, Err: errors.New("section missing")}
	}
	if err := restoreClock(t.M.Clock, payload); err != nil {
		return wrapSection(SecClock, err)
	}

	if dec, err = sectionDecoder(f, SecFault); err != nil {
		return err
	}
	if err := finish(dec, restoreFault(t.M, dec)); err != nil {
		return wrapSection(SecFault, err)
	}

	if dec, err = sectionDecoder(f, SecPolicy); err != nil {
		return err
	}
	if err := finish(dec, restorePolicy(t.M, ps, dec, reg)); err != nil {
		return wrapSection(SecPolicy, err)
	}

	if dec, err = sectionDecoder(f, SecStore); err != nil {
		return err
	}
	if err := finish(dec, t.Store.RestoreState(dec)); err != nil {
		return wrapSection(SecStore, err)
	}

	if dec, err = sectionDecoder(f, SecWorkload); err != nil {
		return err
	}
	if err := finish(dec, restoreWorkload(t, dec)); err != nil {
		return wrapSection(SecWorkload, err)
	}

	if dec, err = sectionDecoder(f, SecMetrics); err != nil {
		return err
	}
	if err := finish(dec, restoreMetrics(t, dec)); err != nil {
		return wrapSection(SecMetrics, err)
	}

	if err := t.M.CheckInvariants(); err != nil {
		return fmt.Errorf("snapshot: restored state fails machine invariants: %w", err)
	}
	return nil
}

// encodeClock serializes the virtual clock and every daemon's armed state.
func encodeClock(c *sim.Clock, enc *snapcodec.Encoder) {
	enc.I64(int64(c.Now()))
	enc.U64(c.Seq())
	ds := c.Daemons()
	enc.Int(len(ds))
	for _, d := range ds {
		st := d.State()
		enc.String(st.Name)
		enc.I64(int64(st.Interval))
		enc.Int(st.Runs)
		enc.Bool(st.Stopped)
		enc.I64(int64(st.At))
		enc.U64(st.Seq)
	}
}

// restoreClock re-arms each daemon at its saved (deadline, sequence) — start
// order is the cross-run identity — then moves the clock itself. Daemons
// first: RestoreTime refuses to rewind the sequence counter.
func restoreClock(c *sim.Clock, payload []byte) error {
	dec := snapcodec.NewDecoder(payload)
	now := sim.Time(dec.I64())
	seq := dec.U64()
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	ds := c.Daemons()
	if n != len(ds) {
		// The daemon roster is determined by construction (policy and
		// machine configuration), so a different roster means the snapshot
		// was taken under a different configuration.
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot has %d daemons, target clock has %d", n, len(ds))}
	}
	for _, d := range ds {
		st := sim.DaemonState{
			Name:     dec.String(),
			Interval: sim.Duration(dec.I64()),
			Runs:     dec.Int(),
			Stopped:  dec.Bool(),
			At:       sim.Time(dec.I64()),
			Seq:      dec.U64(),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if st.Name != d.State().Name {
			return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot daemon %q, target daemon %q", st.Name, d.State().Name)}
		}
		if !st.Stopped && st.Seq > seq {
			return fmt.Errorf("daemon %q wakeup sequence %d exceeds clock sequence %d", st.Name, st.Seq, seq)
		}
		if err := d.RestoreState(st); err != nil {
			return err
		}
	}
	if err := dec.Finish(); err != nil {
		return err
	}
	if seq < c.Seq() {
		return fmt.Errorf("snapshot clock sequence %d rewinds target %d", seq, c.Seq())
	}
	c.RestoreTime(now, seq)
	return nil
}

func restoreFault(m *machine.Machine, dec *snapcodec.Decoder) error {
	has := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if has != (m.Faults != nil) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot fault injection %v, target %v", has, m.Faults != nil)}
	}
	if !has {
		return nil
	}
	return m.Faults.RestoreState(dec)
}

func restorePolicy(m *machine.Machine, ps machine.StateSnapshotter, dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	name := dec.String()
	if dec.Err() != nil {
		return dec.Err()
	}
	if name != m.Policy.Name() {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot policy %q, target %q", name, m.Policy.Name())}
	}
	return ps.RestoreState(dec, reg)
}

func restoreWorkload(t *Target, dec *snapcodec.Decoder) error {
	if err := t.Client.RestoreState(dec); err != nil {
		return err
	}
	inFlight := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	t.Run = nil
	if !inFlight {
		return nil
	}
	run, err := t.Client.RestoreRun(dec)
	if err != nil {
		return err
	}
	t.Run = run
	return nil
}

func restoreMetrics(t *Target, dec *snapcodec.Decoder) error {
	has := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if has != (t.Metrics != nil) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("snapshot telemetry %v, target %v", has, t.Metrics != nil)}
	}
	if !has {
		return nil
	}
	return t.Metrics.RestoreState(dec)
}

// sectionDecoder returns a decoder over a named section's payload.
func sectionDecoder(f *File, name string) (*snapcodec.Decoder, error) {
	p, ok := f.Section(name)
	if !ok {
		return nil, &CorruptError{Section: name, Err: errors.New("section missing")}
	}
	return snapcodec.NewDecoder(p), nil
}

// finish folds a restore error with exact-consumption checking.
func finish(dec *snapcodec.Decoder, err error) error {
	if err != nil {
		return err
	}
	return dec.Finish()
}

// wrapSection types a section-restore failure. Configuration and policy-
// support mismatches keep their own types (a memory-topology mismatch
// surfaces as a config mismatch naming the section); everything else
// decodes under a verified checksum yet fails semantic validation, which is
// corruption.
func wrapSection(name string, err error) error {
	var cm *ConfigMismatchError
	var up *UnsupportedPolicyError
	var tm *mem.TopologyMismatchError
	if errors.As(err, &cm) || errors.As(err, &up) {
		return err
	}
	if errors.As(err, &tm) {
		return &ConfigMismatchError{Reason: fmt.Sprintf("section %q: %s", name, tm.Error())}
	}
	return &CorruptError{Section: name, Err: err}
}
