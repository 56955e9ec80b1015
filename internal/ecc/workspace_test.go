package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// noisyCodeword returns a random codeword of c with flips random bit
// flips applied (a position may flip more than once).
func noisyCodeword(t *testing.T, c Code, src *rng.Source, flips int) bitvec.Vector {
	t.Helper()
	msg := bitvec.New(c.K())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	w := encode(c, msg)
	for f := 0; f < flips; f++ {
		w.Flip(src.Intn(w.Len()))
	}
	return w
}

// testCodes is every code family, in every variant the decoder
// branches on: plain, expurgated and shortened BCH, the perfect Golay
// code, a repetition code and Blocks over BCH and Golay.
func testCodes() []Code {
	return []Code{
		NewRepetition(3),
		NewGolay(),
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 3),
		NewBlock(NewGolay(), 2),
	}
}

// TestDecodeIntoMatchesDecode sweeps every code family across error
// weights from zero to beyond the radius and checks that DecodeInto on a
// SHARED workspace, reused across calls and codes, matches the one-shot
// decode on a fresh one bit for bit: same corrected count, same ok, same
// output word (received echoed on failure), so buffer-reuse bugs cannot
// hide.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	src := rng.New(2024)
	var ws Workspace
	for _, c := range testCodes() {
		dst := bitvec.New(c.N())
		for flips := 0; flips <= c.T()+2; flips++ {
			for trial := 0; trial < 25; trial++ {
				w := noisyCodeword(t, c, src, flips)
				wantCW, wantCorr, wantOK := decode(c, w)
				gotCorr, gotOK := c.DecodeInto(&ws, w, dst)
				if gotCorr != wantCorr || gotOK != wantOK {
					t.Fatalf("%s flips=%d: shared workspace (%d,%v) != fresh (%d,%v)",
						c, flips, gotCorr, gotOK, wantCorr, wantOK)
				}
				if !dst.Equal(wantCW) {
					t.Fatalf("%s flips=%d ok=%v: output words differ", c, flips, wantOK)
				}
			}
		}
	}
}

// TestReproducerMatchesReproduce pins the Reproducer kernel over stream
// lengths that land below, on and across block boundaries (0, 1, n,
// n+1, 3n bits) against the step-by-step code-offset reconstruction on
// the PadToBlocks layout — with one Reproducer resized across all of
// them so buffer-reuse bugs cannot hide.
func TestReproducerMatchesReproduce(t *testing.T) {
	src := rng.New(77)
	code := MustBCH(BCHConfig{M: 5, T: 3})
	n := code.N()
	var r Reproducer
	for _, bits := range []int{0, 1, n, n + 1, 3 * n, 1} {
		enrolled := bitvec.New(bits)
		for i := 0; i < bits; i++ {
			enrolled.Set(i, src.Bool())
		}
		padded, blocks := PadToBlocks(enrolled, code)
		if blocks != Blocks(code, bits) || padded.Len() != blocks*n {
			t.Fatalf("bits=%d: PadToBlocks gives %d blocks of %d bits, Blocks %d", bits, blocks, padded.Len(), Blocks(code, bits))
		}
		block := NewBlock(code, blocks)
		off := EnrollOffset(block, padded, src)
		r.Resize(code, bits)
		for flips := 0; flips <= code.T()+2; flips++ {
			noisy := enrolled.Clone()
			for f := 0; f < flips && bits > 0; f++ {
				noisy.Flip(src.Intn(bits))
			}
			stream := r.Stream()
			if stream.Len() != padded.Len() || !stream.IsZero() {
				t.Fatalf("bits=%d: Stream is %d bits (zero=%v), want %d zero bits", bits, stream.Len(), stream.IsZero(), padded.Len())
			}
			for i := 0; i < bits; i++ {
				stream.Set(i, noisy.Get(i))
			}
			noisyPadded, _ := PadToBlocks(noisy, code)
			wantRec, _, wantOK := reproduce(block, off, noisyPadded)
			gotRec, gotOK := r.Reproduce(off)
			if gotOK != wantOK {
				t.Fatalf("bits=%d flips=%d: Reproducer ok=%v, reproduce ok=%v", bits, flips, gotOK, wantOK)
			}
			if wantOK && !gotRec.Equal(wantRec) {
				t.Fatalf("bits=%d flips=%d: recovered streams differ", bits, flips)
			}
			if flips <= code.T() && (!gotOK || !gotRec.Equal(padded)) {
				t.Fatalf("bits=%d flips=%d: within the radius, the enrolled stream was not recovered", bits, flips)
			}
			// The stream is left as written; scribble on it so the next
			// Stream call must zero it again.
			stream.SetAll()
		}
		if _, ok := r.Reproduce(bitvec.New(padded.Len() + 1)); ok {
			t.Fatalf("bits=%d: offset longer than the stream decoded", bits)
		}
		if padded.Len() > n {
			if _, ok := r.Reproduce(bitvec.New(padded.Len() - n)); ok {
				t.Fatalf("bits=%d: offset shorter than the stream decoded", bits)
			}
		}
	}
}

// TestReproducerSteadyStateAllocs pins the per-query decode kernel's
// allocation-free steady state, failures and length mismatches included.
func TestReproducerSteadyStateAllocs(t *testing.T) {
	code := MustBCH(BCHConfig{M: 5, T: 3})
	src := rng.New(5)
	var r Reproducer
	r.Resize(code, 2*code.N()+3)
	w := bitvec.New(r.Stream().Len())
	for i := 0; i < w.Len(); i++ {
		w.Set(i, src.Bool())
	}
	short := bitvec.New(w.Len() - 1)
	r.Reproduce(w) // grow the workspace
	if got := testing.AllocsPerRun(50, func() {
		r.Resize(code, 2*code.N()+3)
		r.Stream().Set(0, true)
		r.Reproduce(w)
		r.Reproduce(short)
	}); got > 0 {
		t.Fatalf("Reproducer allocates %.1f/op in steady state", got)
	}
}

// referenceEncode is the independent encoder each family is checked
// against: BCH (alone or per block) by polynomial division; Golay and
// repetition, whose only encoder is EncodeInto, by the one-shot form on
// a fresh workspace.
func referenceEncode(c Code, msg bitvec.Vector) bitvec.Vector {
	switch c := c.(type) {
	case *BCH:
		return polyDivEncode(c, msg)
	case *Block:
		ik := c.inner.K()
		out := bitvec.New(0)
		for i := 0; i < c.blocks; i++ {
			out = out.Concat(referenceEncode(c.inner, msg.Slice(i*ik, (i+1)*ik)))
		}
		return out
	}
	return encode(c, msg)
}

// TestEncodeIntoMatchesEncode sweeps every code family over random
// messages and checks EncodeInto against the reference encoder bit for
// bit — BCH's in-place XOR reduction against polynomial division — with
// a SHARED workspace across calls and codes so buffer-reuse bugs cannot
// hide. Every codeword must also decode to itself and carry its message
// in the systematic positions.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	src := rng.New(4096)
	var ws Workspace
	for _, c := range testCodes() {
		dst := bitvec.New(c.N())
		for trial := 0; trial < 50; trial++ {
			msg := bitvec.New(c.K())
			for i := 0; i < msg.Len(); i++ {
				msg.Set(i, src.Bool())
			}
			c.EncodeInto(&ws, msg, dst)
			if !dst.Equal(referenceEncode(c, msg)) {
				t.Fatalf("%s trial %d: EncodeInto differs from the reference encoder", c, trial)
			}
			if !IsCodeword(c, dst) || !systematic(c, dst).Equal(msg) {
				t.Fatalf("%s trial %d: EncodeInto output is not the systematic codeword of msg", c, trial)
			}
		}
	}
}

// TestOffsetForIntoMatchesReference pins the attack layer's crafted
// offset, on a workspace shared across calls, against response XOR the
// reference encoding.
func TestOffsetForIntoMatchesReference(t *testing.T) {
	src := rng.New(88)
	c := NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 2)
	var ws Workspace
	dst := bitvec.New(c.N())
	for trial := 0; trial < 25; trial++ {
		resp := bitvec.New(c.N())
		for i := 0; i < resp.Len(); i++ {
			resp.Set(i, src.Bool())
		}
		msg := bitvec.New(c.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, src.Bool())
		}
		OffsetForInto(c, resp, msg, &ws, dst)
		if !dst.Equal(resp.Xor(referenceEncode(c, msg))) {
			t.Fatalf("trial %d: OffsetForInto differs from response XOR encode(msg)", trial)
		}
	}
}

// TestEncodeIntoSteadyStateAllocs pins the encode fast path's
// allocation-free steady state (the attack layer calls it once per
// hypothesis arm).
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	c := NewBlock(MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), 2)
	src := rng.New(99)
	msg := bitvec.New(c.K())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	var ws Workspace
	dst := bitvec.New(c.N())
	c.EncodeInto(&ws, msg, dst) // grow the workspace
	if got := testing.AllocsPerRun(50, func() { c.EncodeInto(&ws, msg, dst) }); got > 0 {
		t.Fatalf("EncodeInto allocates %.1f/op in steady state", got)
	}
}
