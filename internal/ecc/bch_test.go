package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func randMsg(r *rng.Source, k int) bitvec.Vector {
	m := bitvec.New(k)
	for i := 0; i < k; i++ {
		m.Set(i, r.Bool())
	}
	return m
}

// flipRandom flips exactly count distinct random positions of v in place.
func flipRandom(r *rng.Source, v bitvec.Vector, count int) {
	perm := r.Perm(v.Len())
	for i := 0; i < count; i++ {
		v.Flip(perm[i])
	}
}

func TestBCHParameters(t *testing.T) {
	cases := []struct {
		cfg  BCHConfig
		n, k int
	}{
		{BCHConfig{M: 4, T: 1}, 15, 11},
		{BCHConfig{M: 4, T: 2}, 15, 7},
		{BCHConfig{M: 4, T: 3}, 15, 5},
		{BCHConfig{M: 5, T: 3}, 31, 16},
		{BCHConfig{M: 6, T: 2}, 63, 51},
		{BCHConfig{M: 7, T: 4}, 127, 99},
		{BCHConfig{M: 7, T: 10}, 127, 64},
		{BCHConfig{M: 8, T: 2}, 255, 239},
	}
	for _, c := range cases {
		b, err := NewBCH(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if b.N() != c.n || b.K() != c.k {
			t.Errorf("%+v: got (%d,%d), want (%d,%d)", c.cfg, b.N(), b.K(), c.n, c.k)
		}
	}
}

func TestBCHInvalidConfigs(t *testing.T) {
	bad := []BCHConfig{
		{M: 2, T: 1},
		{M: 17, T: 1},
		{M: 4, T: 0},
		{M: 4, T: 8},              // 2t >= n
		{M: 4, T: 1, Shorten: 11}, // shorten >= k
		{M: 4, T: 1, Shorten: -1},
	}
	for _, cfg := range bad {
		if _, err := NewBCH(cfg); err == nil {
			t.Errorf("%+v: expected error", cfg)
		}
	}
}

func TestBCHEncodeProducesCodeword(t *testing.T) {
	r := rng.New(1)
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 3}, {M: 6, T: 4}, {M: 7, T: 5}} {
		b := MustBCH(cfg)
		for trial := 0; trial < 20; trial++ {
			msg := randMsg(r, b.K())
			cw := encode(b, msg)
			if cw.Len() != b.N() {
				t.Fatalf("%s: codeword length %d", b, cw.Len())
			}
			if !IsCodeword(b, cw) {
				t.Fatalf("%s: encoder output not a codeword", b)
			}
			if !systematic(b, cw).Equal(msg) {
				t.Fatalf("%s: systematic extraction failed", b)
			}
		}
	}
}

func TestBCHCorrectsUpToT(t *testing.T) {
	r := rng.New(2)
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 3}, {M: 6, T: 6}, {M: 7, T: 9}} {
		b := MustBCH(cfg)
		for e := 0; e <= b.T(); e++ {
			for trial := 0; trial < 10; trial++ {
				msg := randMsg(r, b.K())
				cw := encode(b, msg)
				recv := cw.Clone()
				flipRandom(r, recv, e)
				dec, corrected, ok := decode(b, recv)
				if !ok {
					t.Fatalf("%s: decode failed at %d <= t errors", b, e)
				}
				if corrected != e {
					t.Fatalf("%s: corrected %d, want %d", b, corrected, e)
				}
				if !dec.Equal(cw) {
					t.Fatalf("%s: wrong codeword at %d errors", b, e)
				}
			}
		}
	}
}

func TestBCHBeyondTFailsOrMiscorrects(t *testing.T) {
	// Beyond the radius the decoder must not return the original
	// codeword while claiming success with <= t corrections of the
	// actual error positions; it either flags failure or miscorrects to
	// a DIFFERENT codeword. Either way the recovered word differs from
	// the transmitted one — which is the system-level failure the
	// attacks observe.
	r := rng.New(3)
	b := MustBCH(BCHConfig{M: 5, T: 2})
	misses := 0
	for trial := 0; trial < 200; trial++ {
		msg := randMsg(r, b.K())
		cw := encode(b, msg)
		recv := cw.Clone()
		flipRandom(r, recv, b.T()+1)
		dec, _, ok := decode(b, recv)
		if ok && dec.Equal(cw) {
			misses++
		}
	}
	// t+1 errors can occasionally land back inside the radius of the
	// original word only if they don't (they can't: t+1 distinct flips
	// give distance t+1 > t). So a correct recovery is impossible.
	if misses != 0 {
		t.Fatalf("decoder recovered the original codeword from t+1 errors %d times", misses)
	}
}

func TestBCHShortened(t *testing.T) {
	r := rng.New(4)
	b := MustBCH(BCHConfig{M: 6, T: 3, Shorten: 20})
	if b.N() != 43 || b.K() != 63-18-20 {
		t.Fatalf("shortened params (%d,%d)", b.N(), b.K())
	}
	for e := 0; e <= b.T(); e++ {
		msg := randMsg(r, b.K())
		cw := encode(b, msg)
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, corrected, ok := decode(b, recv)
		if !ok || corrected != e || !dec.Equal(cw) {
			t.Fatalf("shortened decode failed at %d errors", e)
		}
		if !systematic(b, dec).Equal(msg) {
			t.Fatal("shortened message extraction failed")
		}
	}
}

func TestBCHAllOnesMembership(t *testing.T) {
	// Narrow-sense full-length BCH contains the all-ones word.
	plain := MustBCH(BCHConfig{M: 5, T: 2})
	if !plain.ContainsAllOnes() {
		t.Error("narrow-sense BCH should contain all-ones")
	}
	// The expurgated (even-weight) subcode cannot: n = 31 is odd.
	exp := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	if exp.ContainsAllOnes() {
		t.Error("expurgated BCH must not contain all-ones")
	}
	if exp.K() != plain.K()-1 {
		t.Errorf("expurgation should cost one message bit: %d vs %d", exp.K(), plain.K())
	}
}

func TestBCHExpurgatedParityDetection(t *testing.T) {
	// All codewords of the expurgated code have even weight.
	r := rng.New(5)
	b := MustBCH(BCHConfig{M: 5, T: 2, Expurgate: true})
	for trial := 0; trial < 50; trial++ {
		cw := encode(b, randMsg(r, b.K()))
		if cw.Weight()%2 != 0 {
			t.Fatalf("expurgated codeword has odd weight %d", cw.Weight())
		}
	}
	// Still corrects t errors.
	for e := 0; e <= b.T(); e++ {
		cw := encode(b, randMsg(r, b.K()))
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, _, ok := decode(b, recv)
		if !ok || !dec.Equal(cw) {
			t.Fatalf("expurgated decode failed at %d errors", e)
		}
	}
}

func TestBCHZeroWordIsCodeword(t *testing.T) {
	for _, cfg := range []BCHConfig{{M: 4, T: 2}, {M: 5, T: 2, Expurgate: true}, {M: 6, T: 3, Shorten: 10}} {
		b := MustBCH(cfg)
		if !IsCodeword(b, bitvec.New(b.N())) {
			t.Errorf("%s: zero word not a codeword", b)
		}
	}
}

func TestBCHLinearityProperty(t *testing.T) {
	b := MustBCH(BCHConfig{M: 5, T: 3})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m1, m2 := randMsg(r, b.K()), randMsg(r, b.K())
		return encode(b, m1).Xor(encode(b, m2)).Equal(encode(b, m1.Xor(m2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBCHDecodeRoundTripProperty(t *testing.T) {
	b := MustBCH(BCHConfig{M: 6, T: 4})
	f := func(seed uint64, eRaw uint8) bool {
		r := rng.New(seed)
		e := int(eRaw) % (b.T() + 1)
		cw := encode(b, randMsg(r, b.K()))
		recv := cw.Clone()
		flipRandom(r, recv, e)
		dec, corrected, ok := decode(b, recv)
		return ok && corrected == e && dec.Equal(cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBCHMinimumDistance(t *testing.T) {
	// Exhaustively verify d >= 2t+1 for the small BCH(15,5,3) code by
	// enumerating all 32 codewords.
	b := MustBCH(BCHConfig{M: 4, T: 3})
	var words []bitvec.Vector
	for m := 0; m < 1<<b.K(); m++ {
		msg := bitvec.New(b.K())
		for i := 0; i < b.K(); i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		words = append(words, encode(b, msg))
	}
	minD := b.N() + 1
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			if d := words[i].HammingDistance(words[j]); d < minD {
				minD = d
			}
		}
	}
	if minD < 2*b.T()+1 {
		t.Fatalf("minimum distance %d < %d", minD, 2*b.T()+1)
	}
}

func BenchmarkBCHEncode127(b *testing.B) {
	code := MustBCH(BCHConfig{M: 7, T: 10})
	msg := randMsg(rng.New(1), code.K())
	var ws Workspace
	cw := bitvec.New(code.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.EncodeInto(&ws, msg, cw)
	}
}

func BenchmarkBCHDecode127(b *testing.B) {
	code := MustBCH(BCHConfig{M: 7, T: 10})
	r := rng.New(1)
	cw := encode(code, randMsg(r, code.K()))
	recv := cw.Clone()
	flipRandom(r, recv, code.T())
	var ws Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = code.DecodeInto(&ws, recv, cw)
	}
}
