package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// TestGolayBMatrixProperties pins the defining algebra of the extended
// Golay generator: B is symmetric and self-inverse over GF(2).
func TestGolayBMatrixProperties(t *testing.T) {
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if golayB[i]>>uint(j)&1 != golayB[j]>>uint(i)&1 {
				t.Fatalf("B not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// B*B = I: row i of B times B equals the unit vector u_i.
	for i := 0; i < 12; i++ {
		if mulB(golayB[i]) != 1<<uint(i) {
			t.Fatalf("B*B != I at row %d: %012b", i, mulB(golayB[i]))
		}
	}
}

// TestGolayWeightDistribution checks minimum distance 7 on the
// punctured code by exhaustive enumeration of all 4096 codewords.
func TestGolayWeightDistribution(t *testing.T) {
	g := NewGolay()
	minW := 24
	counts := map[int]int{}
	for m := 0; m < 1<<12; m++ {
		msg := bitvec.New(12)
		for i := 0; i < 12; i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		w := encode(g, msg).Weight()
		counts[w]++
		if w != 0 && w < minW {
			minW = w
		}
	}
	if minW != 7 {
		t.Fatalf("minimum nonzero weight %d, want 7", minW)
	}
	// The (23,12,7) weight distribution: A7 = 253, A8 = 506.
	if counts[7] != 253 || counts[8] != 506 {
		t.Fatalf("A7=%d A8=%d, want 253/506", counts[7], counts[8])
	}
}

func TestGolayCorrectsAllThreeErrorPatterns(t *testing.T) {
	// Exhaustive over all C(23,1)+C(23,2)+C(23,3) = 2047 patterns on a
	// sample of messages — the perfect code must correct every one.
	g := NewGolay()
	r := rng.New(1)
	for trial := 0; trial < 5; trial++ {
		msg := randMsg(r, 12)
		cw := encode(g, msg)
		check := func(positions ...int) {
			recv := cw.Clone()
			for _, p := range positions {
				recv.Flip(p)
			}
			dec, corrected, ok := decode(g, recv)
			if !ok || !dec.Equal(cw) || corrected != len(positions) {
				t.Fatalf("pattern %v: ok=%v corrected=%d equal=%v",
					positions, ok, corrected, dec.Equal(cw))
			}
		}
		check() // zero errors
		for a := 0; a < 23; a++ {
			check(a)
			for b := a + 1; b < 23; b++ {
				check(a, b)
				for c := b + 1; c < 23; c++ {
					check(a, b, c)
				}
			}
		}
	}
}

func TestGolayPerfectCodeMiscorrects(t *testing.T) {
	// Beyond t=3 a perfect code never signals failure; it miscorrects
	// to a DIFFERENT codeword (weight-4 patterns sit at distance 3 from
	// some other codeword).
	g := NewGolay()
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		cw := encode(g, randMsg(r, 12))
		recv := cw.Clone()
		flipRandom(r, recv, 4)
		dec, _, ok := decode(g, recv)
		if !ok {
			t.Fatal("perfect code reported failure")
		}
		if dec.Equal(cw) {
			t.Fatal("4 errors decoded back to the original codeword")
		}
		if !IsCodeword(g, dec) {
			t.Fatal("decode output is not a codeword")
		}
	}
}

func TestGolayMessageRoundTrip(t *testing.T) {
	g := NewGolay()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		msg := randMsg(r, 12)
		return systematic(g, encode(g, msg)).Equal(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGolayContainsAllOnes(t *testing.T) {
	if !NewGolay().ContainsAllOnes() {
		t.Fatal("the perfect Golay code is complement-closed; all-ones must be a codeword")
	}
}

func TestGolayLinearity(t *testing.T) {
	g := NewGolay()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m1, m2 := randMsg(r, 12), randMsg(r, 12)
		return encode(g, m1).Xor(encode(g, m2)).Equal(encode(g, m1.Xor(m2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGolayInCodeOffset(t *testing.T) {
	// The Golay code drops into the code-offset construction like any
	// other Code.
	r := rng.New(3)
	g := NewGolay()
	resp := randMsg(r, 23)
	off := EnrollOffset(g, resp, r)
	noisy := resp.Clone()
	flipRandom(r, noisy, 3)
	got, corrected, ok := reproduce(g, off, noisy)
	if !ok || corrected != 3 || !got.Equal(resp) {
		t.Fatalf("code-offset reproduce failed: ok=%v corrected=%d", ok, corrected)
	}
}

func BenchmarkGolayDecode(b *testing.B) {
	g := NewGolay()
	r := rng.New(1)
	cw := encode(g, randMsg(r, 12))
	recv := cw.Clone()
	flipRandom(r, recv, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.DecodeInto(nil, recv, cw)
	}
}
