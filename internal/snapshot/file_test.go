package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
)

// sample builds a container with a few sections in canonical order.
func sample() *File {
	f := NewFile()
	f.AddSection(SecConfig, []byte("cfg-payload"))
	f.AddSection(SecClock, []byte{1, 2, 3, 4})
	f.AddSection(SecMem, nil)
	return f
}

func TestFileRoundTrip(t *testing.T) {
	f := sample()
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g.Version != Version {
		t.Fatalf("version %d, want %d", g.Version, Version)
	}
	want := []string{SecConfig, SecClock, SecMem}
	got := g.Sections()
	if len(got) != len(want) {
		t.Fatalf("sections %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("section order %v, want %v", got, want)
		}
		p, ok := g.Section(name)
		q, _ := f.Section(name)
		if !ok || string(p) != string(q) {
			t.Fatalf("section %q payload %q, want %q", name, p, q)
		}
		if g.Hash(name) != f.Hash(name) {
			t.Fatalf("section %q hash mismatch", name)
		}
	}
}

func TestFileBadMagic(t *testing.T) {
	data := sample().Encode()
	data[0] ^= 0xff
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("not a snapshot at all, but long enough")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestFileTruncationAtEveryPrefix: no prefix of a valid container may decode
// successfully, and none may panic — every cut is a typed error.
func TestFileTruncationAtEveryPrefix(t *testing.T) {
	data := sample().Encode()
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
		var ce *CorruptError
		if !errors.Is(err, ErrTruncatedFile) && !errors.Is(err, ErrBadMagic) && !errors.As(err, &ce) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

// TestFileBitFlips: flipping any single byte must fail the whole-file
// checksum (or a section checksum), never decode cleanly.
func TestFileBitFlips(t *testing.T) {
	orig := sample().Encode()
	for i := 0; i < len(orig); i++ {
		data := append([]byte(nil), orig...)
		data[i] ^= 0x40
		if _, err := Decode(data); err == nil {
			t.Fatalf("byte %d flipped, still decoded", i)
		}
	}
}

func TestFileVersionSkew(t *testing.T) {
	f := sample()
	f.Version = Version + 7
	data := f.Encode()
	_, err := Decode(data)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want VersionError", err)
	}
	if ve.Got != Version+7 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

func TestFileWholeFileChecksum(t *testing.T) {
	data := sample().Encode()
	// Corrupt only the trailing checksum; the body is intact.
	binary.LittleEndian.PutUint64(data[len(data)-8:], 0xdeadbeef)
	_, err := Decode(data)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "file" {
		t.Fatalf("err = %v, want whole-file CorruptError", err)
	}
}

func TestFileDuplicateSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddSection did not panic")
		}
	}()
	f := NewFile()
	f.AddSection(SecMem, nil)
	f.AddSection(SecMem, nil)
}

func TestFnvMatchesStdlib(t *testing.T) {
	data := make([]byte, 4099)
	for i := range data {
		data[i] = byte(i*131 + i>>3)
	}
	for _, b := range [][]byte{nil, data[:1], data[:17], data} {
		h := fnv.New64a()
		h.Write(b)
		if got, want := fnvSum(b), h.Sum64(); got != want {
			t.Fatalf("fnvSum over %d bytes = %x, hash/fnv %x", len(b), got, want)
		}
		h1, h2 := fnvAdd2(fnvAdd(fnvOffset64, data[:5]), fnvOffset64, b)
		if h1 != fnvAdd(fnvAdd(fnvOffset64, data[:5]), b) || h2 != fnvSum(b) {
			t.Fatalf("fnvAdd2 over %d bytes disagrees with two fnvAdd chains", len(b))
		}
	}
}

// seal frames sections by hand (name, payload, stored sum) and appends a
// valid whole-file checksum, so each section-level check can be reached.
func seal(sections ...any) []byte {
	le := binary.LittleEndian
	buf := append([]byte(Magic), le.AppendUint32(nil, Version)...)
	buf = le.AppendUint32(buf, uint32(len(sections)/3))
	for i := 0; i+2 < len(sections); i += 3 {
		name, payload, sum := sections[i].(string), sections[i+1].([]byte), sections[i+2].(uint64)
		buf = le.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = le.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
		buf = le.AppendUint64(buf, sum)
	}
	return le.AppendUint64(buf, fnvSum(buf))
}

// TestDecodeSectionChecksUnderValidFileSum: with the whole-file checksum
// intact, a bad section sum, a repeated section and a framing cut are each
// caught, in section order.
func TestDecodeSectionChecksUnderValidFileSum(t *testing.T) {
	a, b := []byte("alpha"), []byte("beta")
	var ce *CorruptError
	_, err := Decode(seal(SecClock, a, fnvSum(a), SecMem, b, fnvSum(a)))
	if !errors.As(err, &ce) || ce.Section != SecMem {
		t.Fatalf("bad mem sum: err = %v, want CorruptError{mem}", err)
	}
	_, err = Decode(seal(SecClock, a, fnvSum(a), SecClock, a, fnvSum(a)))
	if !errors.As(err, &ce) || ce.Section != SecClock {
		t.Fatalf("repeated section: err = %v, want CorruptError{clock}", err)
	}
	// The count claims one more section than the body frames: the first
	// section's bad sum is reported before the truncation.
	data := seal(SecClock, a, fnvSum(b), SecMem, b, fnvSum(b))
	data = data[:len(data)-8]
	binary.LittleEndian.PutUint32(data[len(Magic)+4:], 3)
	data = binary.LittleEndian.AppendUint64(data, fnvSum(data))
	if _, err = Decode(data); !errors.As(err, &ce) || ce.Section != SecClock {
		t.Fatalf("bad clock sum before a cut: err = %v, want CorruptError{clock}", err)
	}
	data = seal(SecClock, a, fnvSum(a), SecMem, b, fnvSum(b))
	data = data[:len(data)-8]
	binary.LittleEndian.PutUint32(data[len(Magic)+4:], 3)
	data = binary.LittleEndian.AppendUint64(data, fnvSum(data))
	if _, err = Decode(data); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("framing cut: err = %v, want ErrTruncatedFile", err)
	}
	f, err := Decode(seal(SecClock, a, fnvSum(a), SecMem, b, fnvSum(b)))
	if err != nil || f.Hash(SecMem) != fnvSum(b) {
		t.Fatalf("valid container: err = %v", err)
	}
}
