package ecc

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// FuzzDecodeInto feeds arbitrary N-bit words to every code family's one
// decoder. The helper offset is attacker-written NVM, so w XOR response
// — the decoder's input — is an arbitrary word: the decoder must never
// panic, never write its input, and on ok return a codeword within
// distance `corrected` of the input and within T of it in every block.
// A workspace shared across inputs and codes must give the result of a
// fresh one.
func FuzzDecodeInto(f *testing.F) {
	codes := []Code{
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5}),
		NewGolay(),
		NewRepetition(3),
		NewBlock(MustBCH(BCHConfig{M: 5, T: 3}), 3),
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x80, 0x00, 0x10})
	// Codewords of the 3-block BCH with errors at, and one beyond, the
	// radius in block 0.
	src := rng.New(1)
	for _, flips := range []int{3, 4} {
		cw := encode(codes[5], randMsg(src, codes[5].K()))
		flipRandom(src, cw, flips)
		f.Add(cw.Bytes())
	}
	var shared Workspace
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codes {
			n := c.N()
			buf := make([]byte, (n+7)/8)
			copy(buf, data)
			recv, err := bitvec.FromBytes(buf, n)
			if err != nil {
				t.Fatal(err)
			}
			orig := recv.Clone()
			dst := bitvec.New(n)
			corrected, ok := c.DecodeInto(&shared, recv, dst)
			if !recv.Equal(orig) {
				t.Fatalf("%s: DecodeInto wrote its input", c)
			}
			wantCW, wantCorr, wantOK := decode(c, recv)
			if corrected != wantCorr || ok != wantOK || !dst.Equal(wantCW) {
				t.Fatalf("%s: shared workspace (%d,%v) != fresh (%d,%v) or words differ",
					c, corrected, ok, wantCorr, wantOK)
			}
			if !ok {
				if _, isBlock := c.(*Block); !isBlock && !dst.Equal(recv) {
					t.Fatalf("%s: failed decode does not echo the received word", c)
				}
				continue
			}
			if !IsCodeword(c, dst) {
				t.Fatalf("%s: decoded word is not a codeword", c)
			}
			if d := dst.HammingDistance(recv); d > corrected {
				t.Fatalf("%s: decoded word at distance %d, corrected %d", c, d, corrected)
			}
			in := n
			if b, isBlock := c.(*Block); isBlock {
				in = b.inner.N()
			}
			for at := 0; at < n; at += in {
				if d := dst.Slice(at, at+in).HammingDistance(recv.Slice(at, at+in)); d > c.T() {
					t.Fatalf("%s: block at bit %d corrected %d > T=%d errors", c, at, d, c.T())
				}
			}
		}
	})
}
