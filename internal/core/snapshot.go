package core

import (
	"fmt"
	"sort"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization. The configuration (including Attach's
// deterministic retry defaults) is reproduced by the restore target's
// construction; the daemons' wakeup deadlines and adapted intervals are the
// clock section's business. What travels here is the per-page retry
// bookkeeping (sorted by page sequence — the map is indexed, never iterated),
// the per-node pressure-episode rate limiter, the policy counters, and the
// nested admission gate when one is configured.

// SnapshotState implements machine.StateSnapshotter.
func (mc *MultiClock) SnapshotState(enc *snapcodec.Encoder) error {
	enc.Bool(mc.retries != nil)
	type retryEntry struct {
		seq uint64
		st  *retryState
	}
	entries := make([]retryEntry, 0, len(mc.retries))
	for pg, st := range mc.retries {
		entries = append(entries, retryEntry{pg.Seq, st})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	enc.Int(len(entries))
	for _, e := range entries {
		enc.U64(e.seq)
		enc.U8(e.st.promoteFails)
		enc.U8(e.st.demoteFails)
		enc.I64(int64(e.st.nextTry))
	}

	ids := make([]mem.NodeID, 0, len(mc.lastDemote))
	for id := range mc.lastDemote {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Int(len(ids))
	for _, id := range ids {
		enc.I64(int64(id))
		enc.I64(int64(mc.lastDemote[id]))
	}

	for _, v := range []int64{
		mc.PromoteAttempts, mc.PromoteFails, mc.PromoteRequeues,
		mc.PromoteDrops, mc.DemoteRequeues, mc.DemoteSwapFallbacks,
	} {
		enc.I64(v)
	}
	enc.I64(int64(mc.MinIntervalSeen))

	return machine.SnapshotGate(enc, mc.cfg.Gate)
}

// RestoreState implements machine.StateSnapshotter; the policy must already
// be attached to its machine.
func (mc *MultiClock) RestoreState(dec *snapcodec.Decoder, reg *machine.PageRegistry) error {
	hasRetries := dec.Bool()
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if hasRetries != (mc.retries != nil) {
		return fmt.Errorf("core: snapshot retry tracking %v, policy %v", hasRetries, mc.retries != nil)
	}
	if !hasRetries && n != 0 {
		return fmt.Errorf("core: snapshot has retry tracking off but carries %d retry entries", n)
	}
	for i := 0; i < n; i++ {
		seq := dec.U64()
		st := &retryState{
			promoteFails: dec.U8(),
			demoteFails:  dec.U8(),
			nextTry:      sim.Time(dec.I64()),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		pg, ok := reg.Live(seq)
		if !ok {
			return fmt.Errorf("core: snapshot retry state names unknown page %d", seq)
		}
		if _, dup := mc.retries[pg]; dup {
			return fmt.Errorf("core: snapshot repeats retry state for page %d", seq)
		}
		mc.retries[pg] = st
	}

	n = dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	for i := 0; i < n; i++ {
		id := mem.NodeID(dec.I64())
		t := sim.Time(dec.I64())
		if dec.Err() != nil {
			return dec.Err()
		}
		if id < 0 || int(id) >= len(mc.M.Mem.Nodes) {
			return fmt.Errorf("core: snapshot names unknown node %d", id)
		}
		mc.lastDemote[id] = t
	}

	for _, p := range []*int64{
		&mc.PromoteAttempts, &mc.PromoteFails, &mc.PromoteRequeues,
		&mc.PromoteDrops, &mc.DemoteRequeues, &mc.DemoteSwapFallbacks,
	} {
		*p = dec.I64()
	}
	mc.MinIntervalSeen = sim.Duration(dec.I64())

	return machine.RestoreGate(dec, reg, mc.cfg.Gate)
}

var _ machine.StateSnapshotter = (*MultiClock)(nil)
