package kvstore

import (
	"fmt"

	"multiclock/internal/pagetable"
	"multiclock/internal/snapcodec"
)

// Checkpoint serialization. A restored store is constructed pristine with the
// same Config — New performs exactly two Mmaps and nothing else maps memory
// during the run, so the address-space geometry is reproduced by construction
// and only verified here. The mutable state travels: the arena bump pointer,
// each slab class's partial page and free list (exact LIFO order — allocItem
// pops from the tail), the item table (sorted by key; the map is never
// iterated during the run, so the canonical order is behaviorally exact) and
// the stats.

// SnapshotState encodes the store's mutable state.
func (s *Store) SnapshotState(enc *snapcodec.Encoder) {
	enc.Grow(s.snapshotSize())
	enc.Int(s.nbuckets)
	enc.Int(s.itemTouches)
	enc.Bool(s.hugeArena)
	enc.U64(uint64(s.bucketVMA.Start))
	enc.U64(uint64(s.arena.Start))
	enc.U64(uint64(s.arena.End))
	enc.U64(uint64(s.arenaNext))
	for i := range s.classes {
		c := &s.classes[i]
		enc.U64(uint64(c.cur))
		enc.Int(c.curUsed)
		enc.Int(len(c.free))
		for _, vpn := range c.free {
			enc.U64(uint64(vpn))
		}
	}
	items := make([]keyedItem, 0, len(s.items))
	for k, ref := range s.items {
		items = append(items, keyedItem{k, ref})
	}
	sortByKey(items)
	enc.Int(len(items))
	for _, it := range items {
		enc.U64(it.key)
		enc.U64(uint64(it.ref.vpn))
		enc.I64(int64(it.ref.npages))
		enc.I64(int64(it.ref.class))
	}
	for _, v := range []int64{
		s.Stats.Gets, s.Stats.GetHits, s.Stats.Sets, s.Stats.Inserts,
		s.Stats.Deletes, s.Stats.RMWs, s.Stats.ScanRejects,
		s.Stats.BytesStored, s.Stats.EvictedForSpace,
	} {
		enc.I64(v)
	}
}

// keyedItem is one item-table entry, carried with its key so the sorted
// walk needs no second map lookup.
type keyedItem struct {
	key uint64
	ref itemRef
}

// sortByKey sorts items by ascending key: an LSD radix sort over the key
// bytes that differ between items, so the dense keys a YCSB load writes
// take two linear passes instead of a comparison sort. Keys are unique, so
// the order is exactly a comparison sort's.
func sortByKey(items []keyedItem) {
	and, or := ^uint64(0), uint64(0)
	for _, it := range items {
		and &= it.key
		or |= it.key
	}
	varying := and ^ or
	src, dst := items, make([]keyedItem, len(items))
	for shift := 0; shift < 64; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, it := range src {
			start[byte(it.key>>shift)]++
		}
		pos := 0
		for b, n := range start {
			start[b] = pos
			pos += n
		}
		for _, it := range src {
			b := byte(it.key >> shift)
			dst[start[b]] = it
			start[b]++
		}
		src, dst = dst, src
	}
	copy(items, src)
}

// snapshotSize is the exact number of bytes SnapshotState encodes: the
// geometry and arena header, each class's header and free list, the item
// table and the stats.
func (s *Store) snapshotSize() int {
	size := 6*8 + 1 + 8 + len(s.items)*32 + 9*8
	for i := range s.classes {
		size += 3*8 + len(s.classes[i].free)*8
	}
	return size
}

// RestoreState decodes into a freshly constructed store of identical
// configuration.
func (s *Store) RestoreState(dec *snapcodec.Decoder) error {
	nbuckets := dec.Int()
	touches := dec.Int()
	huge := dec.Bool()
	bucketStart := pagetable.VPN(dec.U64())
	arenaStart := pagetable.VPN(dec.U64())
	arenaEnd := pagetable.VPN(dec.U64())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nbuckets != s.nbuckets || touches != s.itemTouches || huge != s.hugeArena {
		return fmt.Errorf("kvstore: snapshot geometry (buckets %d touches %d huge %v) does not match store (buckets %d touches %d huge %v)",
			nbuckets, touches, huge, s.nbuckets, s.itemTouches, s.hugeArena)
	}
	if bucketStart != s.bucketVMA.Start || arenaStart != s.arena.Start || arenaEnd != s.arena.End {
		return fmt.Errorf("kvstore: snapshot VMA layout does not match store")
	}
	s.arenaNext = pagetable.VPN(dec.U64())
	if s.arenaNext < s.arena.Start || s.arenaNext > s.arena.End {
		return fmt.Errorf("kvstore: snapshot arena pointer %d outside arena [%d, %d)", s.arenaNext, s.arena.Start, s.arena.End)
	}
	for i := range s.classes {
		c := &s.classes[i]
		c.cur = pagetable.VPN(dec.U64())
		c.curUsed = dec.Int()
		n := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if n < 0 || n > dec.Remaining()/8 {
			return fmt.Errorf("kvstore: snapshot claims %d free chunks in %d bytes", n, dec.Remaining())
		}
		if c.curUsed < 0 || c.curUsed > c.perPage {
			return fmt.Errorf("kvstore: snapshot class %d has %d of %d chunks used", i, c.curUsed, c.perPage)
		}
		c.free = c.free[:0]
		for j := 0; j < n; j++ {
			c.free = append(c.free, pagetable.VPN(dec.U64()))
		}
	}
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > dec.Remaining()/32 {
		return fmt.Errorf("kvstore: snapshot claims %d items in %d bytes", n, dec.Remaining())
	}
	s.items = make(map[uint64]itemRef, n)
	for i := 0; i < n; i++ {
		k := dec.U64()
		ref := itemRef{
			vpn:    pagetable.VPN(dec.U64()),
			npages: int32(dec.I64()),
			class:  int8(dec.I64()),
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		if ref.npages <= 0 || ref.class < 0 || int(ref.class) >= len(classSizes) {
			return fmt.Errorf("kvstore: snapshot item %d has invalid layout", k)
		}
		s.items[k] = ref
	}
	if len(s.items) != n {
		return fmt.Errorf("kvstore: snapshot repeats %d item keys", n-len(s.items))
	}
	for _, p := range []*int64{
		&s.Stats.Gets, &s.Stats.GetHits, &s.Stats.Sets, &s.Stats.Inserts,
		&s.Stats.Deletes, &s.Stats.RMWs, &s.Stats.ScanRejects,
		&s.Stats.BytesStored, &s.Stats.EvictedForSpace,
	} {
		*p = dec.I64()
	}
	return dec.Err()
}
