package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/rng"
)

// The code-offset construction (Dodis et al., the paper's reference [2])
// is the canonical secure sketch: at enrollment the device draws a random
// codeword c and publishes w = response XOR c as helper data; at
// reconstruction (Reproducer) it computes w XOR response', decodes the result back to
// c, and recovers the enrolled response as w XOR c. The helper word w is
// exactly the "ECC redundancy" block of the paper's figures 4 and 7 — and
// the object the attacks overwrite.

// EnrollOffset draws a uniformly random codeword using src and returns
// the helper offset w = response XOR codeword for the given enrollment
// response. The response length must equal c.N().
func EnrollOffset(c Code, response bitvec.Vector, src *rng.Source) bitvec.Vector {
	checkLen("response", response.Len(), c.N())
	msg := bitvec.New(c.K())
	for i := 0; i < c.K(); i++ {
		msg.Set(i, src.Bool())
	}
	var ws Workspace
	w := bitvec.New(c.N())
	OffsetForInto(c, response, msg, &ws, w)
	return w
}

// OffsetForInto writes into dst (length c.N()) the helper offset that
// binds the given target response to the specific codeword encode(msg).
// Attacks use this to craft helper data for a hypothesized response,
// once per hypothesis arm, so with a reused Workspace it does not
// allocate.
func OffsetForInto(c Code, response, msg bitvec.Vector, ws *Workspace, dst bitvec.Vector) {
	checkLen("response", response.Len(), c.N())
	c.EncodeInto(ws, msg, dst)
	response.XorInto(dst, dst)
}

// ConsistentWith reports whether candidate could be the enrolled response
// for the helper offset w: w XOR candidate must be a codeword. This is
// the offline check an attacker runs on the two remaining key candidates
// of the sequential-pairing attack; it succeeds for both candidates
// exactly when the code contains the all-ones word.
func ConsistentWith(c Code, w, candidate bitvec.Vector) bool {
	if candidate.Len() != c.N() || w.Len() != c.N() {
		return false
	}
	return IsCodeword(c, w.Xor(candidate))
}
