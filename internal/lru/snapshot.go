package lru

import (
	"fmt"

	"multiclock/internal/mem"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for one node's LRU lists. At a quiescent
// snapshot point every resident page sits on exactly one list (machine-level
// invariants enforce used = on-lists + shadow frames), so the vec walk is
// the canonical enumeration of live page descriptors: each record is a full
// mem page state, written head→tail per list so restore reproduces exact
// CLOCK hand order.

// SnapshotSize is the exact number of bytes SnapshotState encodes.
func (v *Vec) SnapshotSize() int {
	n := 8
	for k := Kind(0); k < NumKinds; k++ {
		n += 8 + v.lists[k].Len()*mem.PageRecordSize
	}
	return n
}

// SnapshotState encodes the vec: the scan counter, then every list with its
// resident page records in head→tail order.
func (v *Vec) SnapshotState(enc *snapcodec.Encoder) {
	enc.I64(v.Scanned)
	for k := Kind(0); k < NumKinds; k++ {
		l := &v.lists[k]
		enc.Int(l.Len())
		for pg := l.Front(); pg != nil; pg = pg.Next() {
			mem.EncodePage(enc, pg)
		}
	}
}

// RestoreState rebuilds the vec's lists into an empty vec. newPage decodes
// one page record into a fresh registered descriptor (the caller wires it to
// mem.System.RestorePage plus its seq→page registry). Pages are appended
// with PushBack — head first — bypassing Add's flag transitions, because the
// records already carry the exact flags each page held at snapshot time; the
// flags are still cross-checked against the list they were recorded on.
func (v *Vec) RestoreState(dec *snapcodec.Decoder, newPage func(*snapcodec.Decoder) *mem.Page) error {
	v.Scanned = dec.I64()
	for k := Kind(0); k < NumKinds; k++ {
		n := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if n < 0 {
			return fmt.Errorf("lru: negative %v population %d", k, n)
		}
		for i := 0; i < n; i++ {
			pg := newPage(dec)
			if dec.Err() != nil {
				return dec.Err()
			}
			if want := kindFor(pg); want != k {
				return fmt.Errorf("lru: restored page flags select %v but page was recorded on %v", want, k)
			}
			if pg.Node != v.Node {
				return fmt.Errorf("lru: node %d page recorded on node %d's %v list", pg.Node, v.Node, k)
			}
			v.lists[k].PushBack(pg)
		}
	}
	return dec.Err()
}
