package lru

import (
	"testing"
	"testing/quick"

	"multiclock/internal/mem"
	"multiclock/internal/snapcodec"
)

func anonPage() *mem.Page { return &mem.Page{Node: 0} }
func filePage() *mem.Page {
	pg := &mem.Page{Node: 0}
	pg.SetFlags(mem.FlagFile)
	return pg
}

// state returns a compact description of the Fig. 4 state of a page.
func state(v *Vec, pg *mem.Page) string {
	if !pg.OnList() {
		return "off-lru"
	}
	k := v.KindOf(pg)
	ref := ""
	if pg.Flags.Has(mem.FlagReferenced) {
		ref = "+ref"
	}
	return k.String() + ref
}

func TestKindNames(t *testing.T) {
	if InactiveAnon.String() != "anon_inactive" || PromoteFile.String() != "file_promote" {
		t.Fatal("kind names")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind")
	}
	if !PromoteAnon.IsPromote() || ActiveAnon.IsPromote() {
		t.Fatal("IsPromote")
	}
	if !ActiveFile.IsActive() || !InactiveFile.IsInactive() {
		t.Fatal("IsActive/IsInactive")
	}
}

func TestAddNewPageStartsInactiveUnreferenced(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg) // transition (5)
	if got := state(v, pg); got != "anon_inactive" {
		t.Fatalf("new page state = %q, want anon_inactive", got)
	}
	if !pg.Flags.Has(mem.FlagLRU) {
		t.Fatal("FlagLRU not set")
	}
	f := filePage()
	v.Add(f)
	if got := state(v, f); got != "file_inactive" {
		t.Fatalf("new file page state = %q", got)
	}
}

func TestAddLockedPageGoesUnevictable(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	pg.SetFlags(mem.FlagUnevictable)
	v.Add(pg)
	if v.KindOf(pg) != Unevictable {
		t.Fatal("mlocked page not on unevictable list")
	}
	// Accesses must not age unevictable pages.
	v.MarkAccessed(pg)
	v.MarkAccessed(pg)
	v.MarkAccessed(pg)
	if v.KindOf(pg) != Unevictable || pg.Flags.Has(mem.FlagPromote) {
		t.Fatal("unevictable page moved by accesses")
	}
}

func TestAddTwicePanics(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.Add(pg)
}

// TestFig4FullLadder drives a page through the complete promotion ladder:
// inactive,unref → (1) inactive,ref → (6) active,unref → (7) active,ref →
// (10) promote.
func TestFig4FullLadder(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)

	steps := []string{
		"anon_inactive+ref", // (1)
		"anon_active",       // (6) activation clears referenced
		"anon_active+ref",   // (7)
		"anon_promote+ref",  // (10) promote entry keeps its grace reference
	}
	for i, want := range steps {
		v.MarkAccessed(pg)
		if got := state(v, pg); got != want {
			t.Fatalf("after access %d: state = %q, want %q", i+1, got, want)
		}
	}
	// (12): accesses in promote state keep it there, referenced.
	v.MarkAccessed(pg)
	if got := state(v, pg); got != "anon_promote+ref" {
		t.Fatalf("(12) state = %q", got)
	}
	v.MarkAccessed(pg)
	if got := state(v, pg); got != "anon_promote+ref" {
		t.Fatalf("(12) repeat state = %q", got)
	}
}

func TestFig4FileLadder(t *testing.T) {
	v := NewVec(0)
	pg := filePage()
	v.Add(pg)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pg)
	}
	if got := state(v, pg); got != "file_promote+ref" {
		t.Fatalf("file ladder ends at %q, want file_promote+ref", got)
	}
}

func TestDecayPromoteUnaccessed(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	for i := 0; i < 4; i++ {
		v.MarkAccessed(pg)
	}
	// Entry carries one grace reference: the first decay check spends it.
	if v.DecayPromote(pg) {
		t.Fatal("grace reference not honoured")
	}
	// (11): still unaccessed → back to active,unref.
	if !v.DecayPromote(pg) {
		t.Fatal("unaccessed promote page did not decay")
	}
	if got := state(v, pg); got != "anon_active" {
		t.Fatalf("after decay: %q, want anon_active", got)
	}
}

func TestDecayPromoteAccessedStays(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	for i := 0; i < 5; i++ {
		v.MarkAccessed(pg) // ends promote+ref
	}
	if v.DecayPromote(pg) {
		t.Fatal("accessed promote page decayed")
	}
	// The reference was spent; a second decay with no access moves it out.
	if got := state(v, pg); got != "anon_promote" {
		t.Fatalf("after spending ref: %q", got)
	}
	if !v.DecayPromote(pg) {
		t.Fatal("second decay should fire")
	}
}

func TestDecayPromoteOnNonPromotePanics(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.DecayPromote(pg)
}

func TestDeactivate(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	v.MarkAccessed(pg)
	v.MarkAccessed(pg) // active
	v.Deactivate(pg)   // (9)
	if got := state(v, pg); got != "anon_inactive" {
		t.Fatalf("after deactivate: %q", got)
	}
}

func TestDeactivateNonActivePanics(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.Deactivate(pg)
}

func TestIsolatePutback(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	v.MarkAccessed(pg)
	v.MarkAccessed(pg) // active
	v.Isolate(pg)
	if pg.OnList() || !pg.Flags.Has(mem.FlagIsolated) {
		t.Fatal("Isolate state")
	}
	// Accesses during isolation are dropped, not crashes.
	v.MarkAccessed(pg)
	if pg.OnList() {
		t.Fatal("isolated page re-added by access")
	}
	// Putback restores by flags, possibly on another vec (migration).
	v2 := NewVec(1)
	v2.Putback(pg)
	if got := state(v2, pg); got != "anon_active" {
		t.Fatalf("after putback: %q", got)
	}
}

func TestPutbackNonIsolatedPanics(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.Putback(pg)
}

func TestDelete(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	v.Delete(pg)
	if pg.OnList() || pg.Flags.Has(mem.FlagLRU) {
		t.Fatal("Delete left page on list")
	}
}

func TestAgeReadsAndClearsHardwareBit(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	pg.Accessed = true
	if !v.Age(pg) {
		t.Fatal("Age missed the accessed bit")
	}
	if pg.Accessed {
		t.Fatal("Age did not clear the bit")
	}
	if got := state(v, pg); got != "anon_inactive+ref" {
		t.Fatalf("Age did not apply transition: %q", got)
	}
	if v.Age(pg) {
		t.Fatal("Age saw a cleared bit")
	}
	if v.Scanned != 2 {
		t.Fatalf("Scanned = %d, want 2", v.Scanned)
	}
}

func TestMarkAccessedOffLRUIsNoop(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.MarkAccessed(pg) // never added; must not panic
	if pg.OnList() {
		t.Fatal("no-op access added page")
	}
}

func TestKindOfMismatchPanics(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	pg.SetFlags(mem.FlagActive) // corrupt: flags no longer match the list
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on flag/list mismatch")
		}
	}()
	v.KindOf(pg)
}

func TestTotalEvictable(t *testing.T) {
	v := NewVec(0)
	for i := 0; i < 5; i++ {
		v.Add(anonPage())
	}
	locked := anonPage()
	locked.SetFlags(mem.FlagUnevictable)
	v.Add(locked)
	if got := v.TotalEvictable(); got != 5 {
		t.Fatalf("TotalEvictable = %d, want 5", got)
	}
}

func TestActiveRatioLimit(t *testing.T) {
	if r := ActiveRatioLimit(256); r != 1 {
		t.Fatalf("tiny node ratio = %v, want floor 1", r)
	}
	// 16 GiB → √160 ≈ 12.6
	frames := 16 << 30 / mem.PageSize
	r := ActiveRatioLimit(frames)
	if r < 12 || r > 13 {
		t.Fatalf("16GiB ratio = %v, want ≈12.6", r)
	}
	// Monotone in size.
	if ActiveRatioLimit(frames*4) <= r {
		t.Fatal("ratio not monotone")
	}
}

// Property: any access sequence leaves the page in exactly one valid state
// and on exactly one list, with flags consistent with the list.
func TestStateMachineConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		v := NewVec(0)
		pg := anonPage()
		v.Add(pg)
		for _, op := range ops {
			switch op % 5 {
			case 0, 1:
				v.MarkAccessed(pg)
			case 2:
				pg.Accessed = true
				v.Age(pg)
			case 3:
				if pg.OnList() && v.KindOf(pg).IsPromote() {
					v.DecayPromote(pg)
				}
			case 4:
				if pg.OnList() && v.KindOf(pg).IsActive() {
					v.Deactivate(pg)
				}
			}
			// Invariants: page on exactly one list, matching its flags.
			if !pg.OnList() {
				return false
			}
			k := v.KindOf(pg) // panics on inconsistency
			if k == Unevictable {
				return false
			}
			// Promote and Active flags are mutually exclusive.
			if pg.Flags.Has(mem.FlagPromote) && pg.Flags.Has(mem.FlagActive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pages are conserved across arbitrary aging — nothing is lost or
// duplicated by the state machine.
func TestPageConservationProperty(t *testing.T) {
	f := func(accessPattern []uint16, n uint8) bool {
		v := NewVec(0)
		count := int(n%50) + 1
		pages := make([]*mem.Page, count)
		for i := range pages {
			if i%3 == 0 {
				pages[i] = filePage()
			} else {
				pages[i] = anonPage()
			}
			v.Add(pages[i])
		}
		for _, a := range accessPattern {
			v.MarkAccessed(pages[int(a)%count])
		}
		total := 0
		for k := Kind(0); k < NumKinds; k++ {
			total += v.Len(k)
		}
		return total == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRequeuePromoteRestoresPromoteState(t *testing.T) {
	v := NewVec(0)
	pg := anonPage()
	pg.SetFlags(mem.FlagActive | mem.FlagPromote)
	v.Add(pg)
	v.Isolate(pg)
	// A failed promotion first clears promote state (the drop-to-active
	// path), then the retry decision reverses it.
	ClearPromote(pg)
	RequeuePromote(pg)
	v.Putback(pg)
	if got := state(v, pg); got != "anon_promote+ref" {
		t.Fatalf("requeued page state = %q, want anon_promote+ref", got)
	}
	if _, err := v.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRequeuePromoteNonIsolatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v := NewVec(0)
	pg := anonPage()
	v.Add(pg)
	RequeuePromote(pg)
}

func TestCheckConsistencyCleanAndCorrupt(t *testing.T) {
	v := NewVec(0)
	pages := []*mem.Page{anonPage(), filePage(), anonPage()}
	for _, pg := range pages {
		v.Add(pg)
	}
	frames, err := v.CheckConsistency()
	if err != nil || frames != len(pages) {
		t.Fatalf("clean vec: frames=%d err=%v", frames, err)
	}

	// Flags disagreeing with list membership must be reported.
	pages[0].SetFlags(mem.FlagActive)
	if _, err := v.CheckConsistency(); err == nil {
		t.Fatal("kind mismatch not detected")
	}
	pages[0].ClearFlags(mem.FlagActive)

	// An isolated page riding a list must be reported.
	pages[1].SetFlags(mem.FlagIsolated)
	if _, err := v.CheckConsistency(); err == nil {
		t.Fatal("isolated page on list not detected")
	}
	pages[1].ClearFlags(mem.FlagIsolated)

	// A page from another node must be reported.
	pages[2].Node = 3
	if _, err := v.CheckConsistency(); err == nil {
		t.Fatal("foreign-node page not detected")
	}
}

// TestSnapshotSizeExact: SnapshotSize is the exact length SnapshotState
// writes, so the machine's one Grow covers the whole LRU section.
func TestSnapshotSizeExact(t *testing.T) {
	v := NewVec(0)
	for i := 0; i < 5; i++ {
		v.Add(anonPage())
	}
	for i := 0; i < 3; i++ {
		v.Add(filePage())
	}
	enc := snapcodec.NewEncoder()
	v.SnapshotState(enc)
	if got, want := enc.Len(), v.SnapshotSize(); got != want {
		t.Fatalf("SnapshotState wrote %d bytes, SnapshotSize says %d", got, want)
	}
}
