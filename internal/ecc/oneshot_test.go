package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// The allocating one-shot forms of the workspace API, for tests only:
// each runs on a fresh Workspace and fresh buffers, so comparing them
// against a shared-Workspace call catches buffer-reuse bugs.

// encode is c.EncodeInto into a fresh codeword.
func encode(c Code, msg bitvec.Vector) bitvec.Vector {
	var ws Workspace
	cw := bitvec.New(c.N())
	c.EncodeInto(&ws, msg, cw)
	return cw
}

// decode is c.DecodeInto into a fresh word: the corrected codeword on
// ok, the received word (per failed block, for a Block) otherwise.
func decode(c Code, received bitvec.Vector) (bitvec.Vector, int, bool) {
	var ws Workspace
	out := bitvec.New(c.N())
	corrected, ok := c.DecodeInto(&ws, received, out)
	return out, corrected, ok
}

// reproduce is the code-offset reconstruction written out step by step,
// the reference the Reproducer kernel is checked against: decode
// w XOR response to the enrolled codeword c and return w XOR c.
func reproduce(c Code, w, response bitvec.Vector) (recovered bitvec.Vector, corrected int, ok bool) {
	cw, corrected, ok := decode(c, w.Xor(response))
	if !ok {
		return bitvec.Vector{}, corrected, false
	}
	return w.Xor(cw), corrected, true
}

// systematic extracts the message bits of a codeword of any code in
// this package: every family encodes systematically.
func systematic(c Code, codeword bitvec.Vector) bitvec.Vector {
	switch c := c.(type) {
	case *BCH:
		return codeword.Slice(c.n-c.k, c.n)
	case *Golay:
		return codeword.Slice(0, 12)
	case *Repetition:
		return codeword.Slice(0, 1)
	case *Block:
		in := c.inner.N()
		out := bitvec.New(0)
		for i := 0; i < c.blocks; i++ {
			out = out.Concat(systematic(c.inner, codeword.Slice(i*in, (i+1)*in)))
		}
		return out
	}
	panic("ecc: systematic: unknown code " + c.String())
}

// polyDivEncode is BCH systematic encoding by textbook polynomial
// division: the independent reference EncodeInto's in-place XOR
// reduction is checked against bit for bit. The message occupies
// coefficient positions n-k..n-1 of the transmitted word and the parity,
// the remainder of x^(fullN-fullK) * u(x) modulo g(x), occupies
// positions 0..n-k-1.
func polyDivEncode(b *BCH, msg bitvec.Vector) bitvec.Vector {
	checkLen("message", msg.Len(), b.k)
	parityLen := b.fullN - (b.k + b.shorten) // = deg g
	// Build x^(deg g) * u(x) over the full length; shortened positions
	// (the top b.shorten message slots) are implicitly zero.
	shifted := make(galois.Poly, b.fullN)
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			shifted[parityLen+i] = 1
		}
	}
	_, rem := b.field.PolyDivMod(shifted, b.gen)
	out := bitvec.New(b.n)
	for i := 0; i < parityLen && i < len(rem); i++ {
		if rem[i] != 0 {
			out.Set(i, true)
		}
	}
	for i := 0; i < b.k; i++ {
		if msg.Get(i) {
			out.Set(parityLen+i, true)
		}
	}
	return out
}
