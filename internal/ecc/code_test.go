package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func TestRepetitionBasics(t *testing.T) {
	r := NewRepetition(3)
	if r.N() != 7 || r.K() != 1 || r.T() != 3 {
		t.Fatalf("params (%d,%d,%d)", r.N(), r.K(), r.T())
	}
	one := bitvec.MustFromString("1")
	zero := bitvec.MustFromString("0")
	if !encode(r, one).Equal(bitvec.Ones(7)) {
		t.Fatal("encode(1) != ones")
	}
	if !encode(r, zero).IsZero() {
		t.Fatal("encode(0) != zeros")
	}
	if !r.ContainsAllOnes() {
		t.Fatal("repetition code must contain all-ones")
	}
}

func TestRepetitionMajorityVote(t *testing.T) {
	r := NewRepetition(2) // n = 5
	cases := []struct {
		in        string
		wantBit   bool
		corrected int
	}{
		{"00000", false, 0},
		{"10000", false, 1},
		{"11000", false, 2},
		{"11100", true, 2},
		{"11110", true, 1},
		{"11111", true, 0},
	}
	for _, c := range cases {
		cw, corrected, ok := decode(r, bitvec.MustFromString(c.in))
		if !ok {
			t.Fatalf("%s: majority vote cannot fail", c.in)
		}
		if got := systematic(r, cw).Get(0); got != c.wantBit {
			t.Errorf("%s: bit %v, want %v", c.in, got, c.wantBit)
		}
		if corrected != c.corrected {
			t.Errorf("%s: corrected %d, want %d", c.in, corrected, c.corrected)
		}
	}
}

func TestRepetitionZeroT(t *testing.T) {
	r := NewRepetition(0) // (1,1) identity code
	cw := encode(r, bitvec.MustFromString("1"))
	if cw.Len() != 1 || !cw.Get(0) {
		t.Fatal("identity code broken")
	}
}

func TestBlockComposition(t *testing.T) {
	inner := MustBCH(BCHConfig{M: 4, T: 2})
	blk := NewBlock(inner, 3)
	if blk.N() != 45 || blk.K() != 21 || blk.T() != 2 {
		t.Fatalf("params (%d,%d,%d)", blk.N(), blk.K(), blk.T())
	}
	r := rng.New(7)
	msg := randMsg(r, blk.K())
	cw := encode(blk, msg)
	if !systematic(blk, cw).Equal(msg) {
		t.Fatal("block message extraction failed")
	}

	// t errors in each block: all correct.
	recv := cw.Clone()
	for b := 0; b < 3; b++ {
		recv.Flip(b*15 + 1)
		recv.Flip(b*15 + 7)
	}
	dec, corrected, ok := decode(blk, recv)
	if !ok || corrected != 6 || !dec.Equal(cw) {
		t.Fatalf("spread errors: ok=%v corrected=%d", ok, corrected)
	}

	// t+1 errors concentrated in one block: that block fails even though
	// the total (3) is below blocks*t (6).
	recv2 := cw.Clone()
	recv2.Flip(0)
	recv2.Flip(1)
	recv2.Flip(2)
	if _, _, ok := decode(blk, recv2); ok {
		// A miscorrection to a different codeword is possible; the
		// result must then differ from cw.
		dec2, _, _ := decode(blk, recv2)
		if dec2.Equal(cw) {
			t.Fatal("concentrated t+1 errors decoded to original codeword")
		}
	}
}

func TestBlockPanicsOnZeroBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlock(NewRepetition(1), 0)
}

func TestOffsetRoundTrip(t *testing.T) {
	r := rng.New(11)
	for _, code := range []Code{
		NewRepetition(3),
		MustBCH(BCHConfig{M: 5, T: 3}),
		NewBlock(MustBCH(BCHConfig{M: 4, T: 2}), 2),
	} {
		resp := randMsg(r, code.N())
		off := EnrollOffset(code, resp, r)
		// Noiseless reproduction.
		got, corrected, ok := reproduce(code, off, resp)
		if !ok || corrected != 0 || !got.Equal(resp) {
			t.Fatalf("%s: noiseless reproduce failed", code)
		}
		// Up-to-t noise per block still reproduces.
		noisy := resp.Clone()
		noisy.Flip(0)
		got, corrected, ok = reproduce(code, off, noisy)
		if !ok || corrected != 1 || !got.Equal(resp) {
			t.Fatalf("%s: 1-error reproduce failed (ok=%v c=%d)", code, ok, corrected)
		}
	}
}

func TestOffsetFailsBeyondRadius(t *testing.T) {
	r := rng.New(13)
	code := MustBCH(BCHConfig{M: 5, T: 2})
	resp := randMsg(r, code.N())
	off := EnrollOffset(code, resp, r)
	noisy := resp.Clone()
	flipRandom(r, noisy, code.T()+1)
	got, _, ok := reproduce(code, off, noisy)
	if ok && got.Equal(resp) {
		t.Fatal("reproduced original response from beyond-radius noise")
	}
}

func TestOffsetConsistency(t *testing.T) {
	r := rng.New(17)
	code := MustBCH(BCHConfig{M: 5, T: 2})
	resp := randMsg(r, code.N())
	off := EnrollOffset(code, resp, r)
	if !ConsistentWith(code, off, resp) {
		t.Fatal("true response must be consistent with its offset")
	}
	// The complement is consistent iff all-ones is a codeword: plain BCH
	// contains all-ones, so the complement IS consistent — this is the
	// documented complement ambiguity.
	if !ConsistentWith(code, off, resp.Not()) {
		t.Fatal("plain BCH: complement should be consistent (all-ones codeword)")
	}
	// With the expurgated code the ambiguity disappears.
	ecode := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	eresp := randMsg(r, ecode.N())
	eoff := EnrollOffset(ecode, eresp, r)
	if !ConsistentWith(ecode, eoff, eresp) {
		t.Fatal("expurgated: true response must be consistent")
	}
	if ConsistentWith(ecode, eoff, eresp.Not()) {
		t.Fatal("expurgated: complement must NOT be consistent")
	}
}

func TestOffsetForBindsChosenResponse(t *testing.T) {
	r := rng.New(19)
	code := MustBCH(BCHConfig{M: 4, T: 2})
	target := randMsg(r, code.N())
	msg := randMsg(r, code.K())
	var ws Workspace
	off := bitvec.New(code.N())
	OffsetForInto(code, target, msg, &ws, off)
	got, corrected, ok := reproduce(code, off, target)
	if !ok || corrected != 0 || !got.Equal(target) {
		t.Fatal("crafted offset does not bind target response")
	}
}

func TestConsistentWithLengthMismatch(t *testing.T) {
	code := NewRepetition(1)
	if ConsistentWith(code, bitvec.New(3), bitvec.New(5)) {
		t.Fatal("length mismatch must be inconsistent")
	}
}

func TestBlockString(t *testing.T) {
	blk := NewBlock(NewRepetition(2), 4)
	if blk.String() != "4 x Rep(5,1,2)" {
		t.Fatalf("String = %q", blk.String())
	}
}
