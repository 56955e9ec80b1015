package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// randomWord returns an n-bit vector with each bit set with probability
// roughly errRate-ish noise applied to a random codeword of c.
func noisyCodeword(t *testing.T, c Code, src *rng.Source, flips int) bitvec.Vector {
	t.Helper()
	msg := bitvec.New(c.K())
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, src.Bool())
	}
	w := c.Encode(msg)
	for f := 0; f < flips; f++ {
		w.Flip(src.Intn(w.Len()))
	}
	return w
}

// TestDecodeIntoMatchesDecode sweeps every code family across error
// weights from zero to beyond the radius and checks that the workspace
// decoder reproduces Decode bit-for-bit: same corrected count, same ok,
// same output word (received echoed on failure), with a SHARED workspace
// across calls so buffer-reuse bugs cannot hide.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	codes := []Code{
		NewRepetition(3),
		NewGolay(),
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 3),
		NewBlock(NewGolay(), 2),
	}
	src := rng.New(2024)
	for _, c := range codes {
		id, ok := c.(IntoDecoder)
		if !ok {
			t.Fatalf("%s does not implement IntoDecoder", c)
		}
		var ws Workspace
		dst := bitvec.New(c.N())
		for flips := 0; flips <= c.T()+2; flips++ {
			for trial := 0; trial < 25; trial++ {
				w := noisyCodeword(t, c, src, flips)
				wantCW, wantCorr, wantOK := c.Decode(w)
				gotCorr, gotOK := id.DecodeInto(&ws, w, dst)
				if gotCorr != wantCorr || gotOK != wantOK {
					t.Fatalf("%s flips=%d: DecodeInto (%d,%v) != Decode (%d,%v)",
						c, flips, gotCorr, gotOK, wantCorr, wantOK)
				}
				// Decode's first return is the corrected word on ok and
				// the received word (per failed block, for Block) on
				// failure; DecodeInto must reproduce it either way.
				if !dst.Equal(wantCW) {
					t.Fatalf("%s flips=%d ok=%v: output words differ", c, flips, wantOK)
				}
			}
		}
	}
}

// TestReproduceIntoMatchesReproduce pins the code-offset scratch paths:
// ReproduceInto on a fixed Block, and the Reproducer kernel over stream
// lengths that land below, on and across block boundaries (0, 1, n,
// n+1, 3n bits), against Reproduce on the PadToBlocks layout — with one
// Reproducer resized across all of them so buffer-reuse bugs cannot
// hide.
func TestReproduceIntoMatchesReproduce(t *testing.T) {
	src := rng.New(77)
	c := NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 2)
	resp := bitvec.New(c.N())
	for i := 0; i < resp.Len(); i++ {
		resp.Set(i, src.Bool())
	}
	o := EnrollOffset(c, resp, src)
	var ws Workspace
	dst := bitvec.New(c.N())
	for flips := 0; flips <= c.T()+2; flips++ {
		noisy := resp.Clone()
		for f := 0; f < flips; f++ {
			noisy.Flip(src.Intn(noisy.Len()))
		}
		wantRec, wantCorr, wantOK := Reproduce(c, o, noisy)
		gotCorr, gotOK := ReproduceInto(c, o, noisy, &ws, dst)
		if gotCorr != wantCorr || gotOK != wantOK {
			t.Fatalf("flips=%d: ReproduceInto (%d,%v) != Reproduce (%d,%v)",
				flips, gotCorr, gotOK, wantCorr, wantOK)
		}
		if wantOK && !dst.Equal(wantRec) {
			t.Fatalf("flips=%d: recovered responses differ", flips)
		}
	}

	code := MustBCH(BCHConfig{M: 5, T: 3})
	n := code.N()
	var r Reproducer
	for _, bits := range []int{0, 1, n, n + 1, 3 * n, 1} {
		enrolled := bitvec.New(bits)
		for i := 0; i < bits; i++ {
			enrolled.Set(i, src.Bool())
		}
		padded, blocks := PadToBlocks(enrolled, code)
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
			wantRec, _, wantOK := Reproduce(block, off, noisyPadded)
			gotRec, gotOK := r.Reproduce(off.W)
			if gotOK != wantOK {
				t.Fatalf("bits=%d flips=%d: Reproducer ok=%v, Reproduce ok=%v", bits, flips, gotOK, wantOK)
			}
			if wantOK && !gotRec.Equal(wantRec) {
				t.Fatalf("bits=%d flips=%d: recovered streams differ", bits, flips)
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

// TestEncodeIntoMatchesEncode sweeps every code family over random
// messages and checks the workspace encoder against Encode bit-for-bit,
// with a SHARED workspace across calls so buffer-reuse bugs cannot hide.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	codes := []Code{
		NewRepetition(3),
		NewGolay(),
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 3),
		NewBlock(NewGolay(), 2),
	}
	src := rng.New(4096)
	for _, c := range codes {
		ie, ok := c.(IntoEncoder)
		if !ok {
			t.Fatalf("%s does not implement IntoEncoder", c)
		}
		var ws Workspace
		dst := bitvec.New(c.N())
		for trial := 0; trial < 50; trial++ {
			msg := bitvec.New(c.K())
			for i := 0; i < msg.Len(); i++ {
				msg.Set(i, src.Bool())
			}
			want := c.Encode(msg)
			ie.EncodeInto(&ws, msg, dst)
			if !dst.Equal(want) {
				t.Fatalf("%s trial %d: EncodeInto differs from Encode", c, trial)
			}
		}
	}
}

// TestOffsetForIntoMatchesOffsetFor pins the attack layer's crafted
// offset fast path against the allocating original.
func TestOffsetForIntoMatchesOffsetFor(t *testing.T) {
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
		want := OffsetFor(c, resp, msg)
		OffsetForInto(c, resp, msg, &ws, dst)
		if !dst.Equal(want.W) {
			t.Fatalf("trial %d: OffsetForInto differs from OffsetFor", trial)
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
