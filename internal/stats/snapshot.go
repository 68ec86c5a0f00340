package stats

import (
	"fmt"
	"math"

	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for Histogram. Samples are written in their exact
// in-memory order along with the incrementally accumulated sum — float
// addition order matters bit-for-bit — and the sorted flag, so a restored
// histogram answers every query with the identical result.

// SnapshotState encodes the histogram.
func (h *Histogram) SnapshotState(enc *snapcodec.Encoder) {
	enc.Grow(8 + 8*len(h.samples) + 8 + 1)
	enc.Int(len(h.samples))
	for _, v := range h.samples {
		enc.U64(math.Float64bits(v))
	}
	enc.U64(math.Float64bits(h.sum))
	enc.Bool(h.sorted)
}

// RestoreState decodes into an empty histogram.
func (h *Histogram) RestoreState(dec *snapcodec.Decoder) error {
	n := dec.Int()
	if dec.Err() != nil {
		return dec.Err()
	}
	if n < 0 || n > dec.Remaining()/8 {
		return fmt.Errorf("stats: snapshot claims %d samples in %d bytes", n, dec.Remaining())
	}
	h.samples = h.samples[:0]
	h.Reserve(n)
	for i := 0; i < n; i++ {
		h.samples = append(h.samples, math.Float64frombits(dec.U64()))
	}
	h.sum = math.Float64frombits(dec.U64())
	h.sorted = dec.Bool()
	return dec.Err()
}
