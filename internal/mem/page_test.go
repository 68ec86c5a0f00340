package mem

import (
	"testing"
	"testing/quick"

	"multiclock/internal/snapcodec"
)

func TestPageFlagsHas(t *testing.T) {
	var f PageFlags
	f |= FlagActive | FlagReferenced
	if !f.Has(FlagActive) || !f.Has(FlagReferenced) {
		t.Fatal("set flags not reported")
	}
	if f.Has(FlagPromote) {
		t.Fatal("unset flag reported")
	}
	if !f.Has(FlagActive | FlagReferenced) {
		t.Fatal("combined Has failed")
	}
	if f.Has(FlagActive | FlagPromote) {
		t.Fatal("Has must require all bits")
	}
}

func TestPageSetClearFlags(t *testing.T) {
	pg := &Page{}
	pg.SetFlags(FlagDirty | FlagActive)
	if !pg.Flags.Has(FlagDirty | FlagActive) {
		t.Fatal("SetFlags")
	}
	pg.ClearFlags(FlagDirty)
	if pg.Flags.Has(FlagDirty) || !pg.Flags.Has(FlagActive) {
		t.Fatal("ClearFlags")
	}
}

func TestTestAndClearAccessed(t *testing.T) {
	pg := &Page{Accessed: true}
	if !pg.TestAndClearAccessed() {
		t.Fatal("first read should see the bit")
	}
	if pg.TestAndClearAccessed() {
		t.Fatal("bit should be cleared after read")
	}
}

func TestPageListPushPop(t *testing.T) {
	l := &PageList{Name: "test"}
	if !l.Empty() || l.Len() != 0 || l.Front() != nil || l.Back() != nil {
		t.Fatal("fresh list not empty")
	}
	a, b, c := &Page{}, &Page{}, &Page{}
	l.PushFront(a) // [a]
	l.PushFront(b) // [b a]
	l.PushBack(c)  // [b a c]
	if l.Len() != 3 || l.Front() != b || l.Back() != c {
		t.Fatal("push shape wrong")
	}
	if got := l.PopBack(); got != c {
		t.Fatal("PopBack")
	}
	if got := l.PopFront(); got != b {
		t.Fatal("PopFront")
	}
	if got := l.PopBack(); got != a {
		t.Fatal("PopBack last")
	}
	if !l.Empty() || l.PopBack() != nil || l.PopFront() != nil {
		t.Fatal("list should be empty")
	}
}

func TestPageListRemoveMiddle(t *testing.T) {
	l := &PageList{Name: "test"}
	pages := make([]*Page, 5)
	for i := range pages {
		pages[i] = &Page{}
		l.PushBack(pages[i])
	}
	l.Remove(pages[2])
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if pages[2].OnList() {
		t.Fatal("removed page still claims membership")
	}
	// Remaining order preserved.
	want := []*Page{pages[0], pages[1], pages[3], pages[4]}
	i := 0
	l.Each(func(pg *Page) {
		if pg != want[i] {
			t.Fatalf("order broken at %d", i)
		}
		i++
	})
}

func TestPageListMoveToFront(t *testing.T) {
	l := &PageList{Name: "test"}
	a, b, c := &Page{}, &Page{}, &Page{}
	l.PushBack(a)
	l.PushBack(b)
	l.PushBack(c)
	l.MoveToFront(c)
	if l.Front() != c || l.Back() != b || l.Len() != 3 {
		t.Fatal("MoveToFront shape wrong")
	}
}

func TestPageListDoubleInsertPanics(t *testing.T) {
	l := &PageList{Name: "a"}
	m := &PageList{Name: "b"}
	pg := &Page{}
	l.PushBack(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	m.PushBack(pg)
}

func TestPageListForeignRemovePanics(t *testing.T) {
	l := &PageList{Name: "a"}
	m := &PageList{Name: "b"}
	pg := &Page{}
	l.PushBack(pg)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign remove did not panic")
		}
	}()
	m.Remove(pg)
}

func TestEachSafeAllowsRemoval(t *testing.T) {
	l := &PageList{Name: "test"}
	for i := 0; i < 10; i++ {
		l.PushBack(&Page{})
	}
	n := 0
	l.EachSafe(func(pg *Page) {
		l.Remove(pg)
		n++
	})
	if n != 10 || !l.Empty() {
		t.Fatalf("EachSafe visited %d, list len %d", n, l.Len())
	}
}

// Property: any sequence of pushes and pops preserves the page set and the
// deque ordering semantics, modelled against a slice.
func TestPageListDequeProperty(t *testing.T) {
	type op struct {
		Kind uint8
	}
	f := func(ops []op) bool {
		l := &PageList{Name: "prop"}
		var model []*Page
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				pg := &Page{}
				l.PushFront(pg)
				model = append([]*Page{pg}, model...)
			case 1:
				pg := &Page{}
				l.PushBack(pg)
				model = append(model, pg)
			case 2:
				got := l.PopFront()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				got := l.PopBack()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
			if l.Len() != len(model) {
				return false
			}
		}
		// Final order agrees.
		i := 0
		ok := true
		l.Each(func(pg *Page) {
			if i >= len(model) || model[i] != pg {
				ok = false
			}
			i++
		})
		return ok && i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTierString(t *testing.T) {
	if TierDRAM.String() != "DRAM" || TierPM.String() != "PM" {
		t.Fatal("tier names")
	}
	if Tier(9).String() != "Tier(9)" {
		t.Fatal("unknown tier name")
	}
}

func TestEncodePageRecordSize(t *testing.T) {
	enc := snapcodec.NewEncoder()
	EncodePage(enc, &Page{Seq: 1, Node: 1, Frame: 2})
	if enc.Len() != PageRecordSize {
		t.Fatalf("EncodePage wrote %d bytes, PageRecordSize is %d", enc.Len(), PageRecordSize)
	}
}
