package kvstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"multiclock/internal/machine"
	"multiclock/internal/policy"
	"multiclock/internal/snapcodec"
)

func newStore(items int) (*machine.Machine, *Store) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{2048}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, policy.NewStatic())
	return m, New(m, DefaultConfig(items))
}

func TestGetMissThenHit(t *testing.T) {
	m, s := newStore(1000)
	if s.Get(42) {
		t.Fatal("hit on empty store")
	}
	s.Insert(42, 1000)
	if !s.Get(42) {
		t.Fatal("miss after insert")
	}
	if s.Stats.Gets != 2 || s.Stats.GetHits != 1 || s.Stats.Inserts != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
	if s.Items() != 1 {
		t.Fatal("item count")
	}
	_ = m
}

func TestAccessesAreSimulated(t *testing.T) {
	m, s := newStore(1000)
	before := m.Mem.Counters.TotalAccesses()
	s.Insert(1, 500)
	s.Get(1)
	delta := m.Mem.Counters.TotalAccesses() - before
	// Insert: bucket write + item write (+ faults count as accesses via
	// Touch on the same access) = 2; Get: bucket read + item read = 2.
	if delta != 4 {
		t.Fatalf("accesses = %d, want 4", delta)
	}
}

func TestSetOverwritesInPlace(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(7, 900)
	mapped := s.Space().Mapped()
	s.Set(7, 800) // same 1024 class: in place
	if s.Space().Mapped() != mapped {
		t.Fatal("in-place set allocated")
	}
	if s.Items() != 1 {
		t.Fatal("item duplicated")
	}
}

func TestSetGrowsClass(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(7, 100) // class 128
	s.Set(7, 3000)   // class 4096: reallocates
	if !s.Get(7) {
		t.Fatal("lost item after grow")
	}
}

func TestSetAbsentInserts(t *testing.T) {
	_, s := newStore(1000)
	s.Set(9, 100)
	if !s.Get(9) || s.Items() != 1 {
		t.Fatal("set-absent did not insert")
	}
}

func TestDelete(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 100)
	if !s.Delete(1) {
		t.Fatal("delete miss on present key")
	}
	if s.Delete(1) {
		t.Fatal("delete hit on absent key")
	}
	if s.Get(1) {
		t.Fatal("get after delete")
	}
}

func TestSlabReuseAfterDelete(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 100)
	ref1 := s.items[1]
	s.Delete(1)
	s.Insert(2, 100)
	if s.items[2].vpn != ref1.vpn {
		t.Fatal("freed chunk not reused")
	}
}

func TestReadModifyWrite(t *testing.T) {
	m, s := newStore(1000)
	s.Insert(5, 1000)
	before := m.Mem.Counters.TotalAccesses()
	if !s.ReadModifyWrite(5) {
		t.Fatal("rmw miss")
	}
	if got := m.Mem.Counters.TotalAccesses() - before; got != 3 {
		t.Fatalf("rmw accesses = %d, want 3 (bucket, read, write)", got)
	}
	if s.ReadModifyWrite(999) {
		t.Fatal("rmw hit on absent key")
	}
}

func TestScanUnsupported(t *testing.T) {
	_, s := newStore(1000)
	if err := s.Scan(0, 10); !errors.Is(err, ErrNoScan) {
		t.Fatalf("Scan error = %v", err)
	}
	if s.Stats.ScanRejects != 1 {
		t.Fatal("scan reject not counted")
	}
}

func TestLargeItemsSpanPages(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 3*4096+10)
	ref := s.items[1]
	if ref.npages != 4 || ref.class != -1 {
		t.Fatalf("large item ref: %+v", ref)
	}
	if !s.Get(1) {
		t.Fatal("large item get")
	}
	mapped := s.Space().Mapped()
	s.Delete(1)
	if s.Space().Mapped() != mapped-4 {
		t.Fatal("large item pages not released")
	}
}

func TestSlabPacking(t *testing.T) {
	_, s := newStore(1000)
	// 64-byte items: 64 fit per page.
	for i := uint64(0); i < 64; i++ {
		s.Insert(i, 60)
	}
	first := s.items[0].vpn
	for i := uint64(1); i < 64; i++ {
		if s.items[i].vpn != first {
			t.Fatalf("item %d not packed on first page", i)
		}
	}
	s.Insert(64, 60)
	if s.items[64].vpn == first {
		t.Fatal("65th item packed on full page")
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 0, 64: 0, 65: 1, 1024: 4, 4096: 6, 4097: -1}
	for size, want := range cases {
		if got := classFor(size); got != want {
			t.Errorf("classFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestManyKeysNoCollisionLoss(t *testing.T) {
	_, s := newStore(10000)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s.Insert(i, 100+int(i%900))
	}
	if s.Items() != n {
		t.Fatalf("items = %d, want %d", s.Items(), n)
	}
	for i := uint64(0); i < n; i++ {
		if !s.Get(i) {
			t.Fatalf("key %d lost", i)
		}
	}
}

// Property: the store behaves like a map under arbitrary op sequences.
func TestStoreMapEquivalence(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Size uint16
	}
	f := func(ops []op) bool {
		_, s := newStore(1000)
		model := map[uint64]bool{}
		for _, o := range ops {
			key := uint64(o.Key % 32)
			size := int(o.Size%5000) + 1
			switch o.Kind % 4 {
			case 0:
				s.Insert(key, size)
				model[key] = true
			case 1:
				s.Set(key, size)
				model[key] = true
			case 2:
				if s.Delete(key) != model[key] {
					return false
				}
				delete(model, key)
			case 3:
				if s.Get(key) != model[key] {
					return false
				}
			}
		}
		if s.Items() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigFloor(t *testing.T) {
	cfg := DefaultConfig(10)
	if cfg.Buckets < bucketsPerPage {
		t.Fatal("bucket floor")
	}
}

func TestHugeArenaStore(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, policy.NewStatic())
	scfg := DefaultConfig(2000)
	scfg.HugeArena = true
	s := New(m, scfg)
	for i := uint64(0); i < 2000; i++ {
		s.Insert(i, 1000)
	}
	for i := uint64(0); i < 2000; i++ {
		if !s.Get(i) {
			t.Fatalf("key %d lost in huge arena", i)
		}
	}
	// Item memory is huge-backed: far fewer faults than pages.
	if m.Mem.Counters.MinorFaults > 100 {
		t.Fatalf("minor faults = %d; huge arena should fault per region", m.Mem.Counters.MinorFaults)
	}
	// Large (page-spanning) items work and their frees do not unmap.
	s.Insert(9999, 3*4096)
	mapped := s.Space().Mapped()
	s.Delete(9999)
	if s.Space().Mapped() != mapped {
		t.Fatal("huge arena free unmapped pages out of a shared region")
	}
}

// TestSnapshotSizeExact: the size hint SnapshotState grows its encoder by is
// the exact payload length, with items, freed chunks and grown classes.
func TestSnapshotSizeExact(t *testing.T) {
	_, s := newStore(1000)
	for k := uint64(0); k < 300; k++ {
		s.Insert(k, 100+int(k)*7)
	}
	for k := uint64(0); k < 300; k += 5 {
		s.Delete(k)
	}
	s.Set(7, 3000)
	enc := snapcodec.NewEncoder()
	s.SnapshotState(enc)
	if got, want := enc.Len(), s.snapshotSize(); got != want {
		t.Fatalf("SnapshotState wrote %d bytes, snapshotSize says %d", got, want)
	}
}

// TestSortByKeyMatchesComparisonSort: the radix sort orders dense, sparse
// and full-width keys exactly as a comparison sort does.
func TestSortByKeyMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, gen := range []func(i int) uint64{
		func(i int) uint64 { return uint64(i) },
		func(i int) uint64 { return uint64(i) * 1_000_003 },
		func(int) uint64 { return rng.Uint64() },
	} {
		seen := map[uint64]bool{}
		var items []keyedItem
		for i := 0; i < 5000; i++ {
			if k := gen(i); !seen[k] {
				seen[k] = true
				items = append(items, keyedItem{key: k, ref: itemRef{npages: int32(i)}})
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		want := slices.Clone(items)
		slices.SortFunc(want, func(a, b keyedItem) int { return cmp.Compare(a.key, b.key) })
		sortByKey(items)
		if !slices.Equal(items, want) {
			t.Fatal("sortByKey order differs from a comparison sort")
		}
	}
	sortByKey(nil)
}

// TestRestoreRejectsNegativeClass: an item whose slab class decodes
// negative is corruption, not a later out-of-range index.
func TestRestoreRejectsNegativeClass(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 100)
	enc := snapcodec.NewEncoder()
	s.SnapshotState(enc)
	p := enc.Bytes()
	// The single item record (key, vpn, npages, class) sits just before
	// the nine stats words; class is its last field.
	binary.LittleEndian.PutUint64(p[len(p)-9*8-8:], ^uint64(0))
	_, fresh := newStore(1000)
	if err := fresh.RestoreState(snapcodec.NewDecoder(p)); err == nil {
		t.Fatal("restore accepted an item with a negative slab class")
	}
}
