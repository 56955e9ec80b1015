package ecc

import (
	"fmt"

	"repro/internal/bitvec"
)

// Block composes an inner code over several independent blocks, matching
// the paper's remark that "incoming bits are clustered in blocks, which
// are all error-corrected independently" and that "extension to multiple
// blocks is fairly straightforward". EncodeInto/DecodeInto operate on
// the concatenation; the composite fails as soon as any single block
// fails.
type Block struct {
	inner  Code
	blocks int
}

// NewBlock wraps inner over the given number of blocks. It panics if
// blocks < 1, a construction-time programming error, and rejects a Block
// inner code (nesting would re-enter the per-block workspace buffers).
func NewBlock(inner Code, blocks int) *Block {
	if blocks < 1 {
		panic("ecc: block count must be at least 1")
	}
	if _, nested := inner.(*Block); nested {
		panic("ecc: Block cannot nest another Block")
	}
	return &Block{inner: inner, blocks: blocks}
}

// Blocks returns how many code blocks a bits-long response stream
// occupies: whole blocks, at least one. It is the one layout rule of
// every construction's stream, enrolled (PadToBlocks), reconstructed
// (Reproducer) and crafted by the attacks.
func Blocks(code Code, bits int) int {
	return max((bits+code.N()-1)/code.N(), 1)
}

// PadToBlocks zero-pads v to the Blocks layout and returns it with the
// block count, ready for NewBlock.
func PadToBlocks(v bitvec.Vector, code Code) (bitvec.Vector, int) {
	blocks := Blocks(code, v.Len())
	return v.Concat(bitvec.New(blocks*code.N() - v.Len())), blocks
}

// N returns blocks * inner.N().
func (b *Block) N() int { return b.blocks * b.inner.N() }

// K returns blocks * inner.K().
func (b *Block) K() int { return b.blocks * b.inner.K() }

// T returns the per-block correction radius. Note this is NOT a global
// radius: t+1 errors concentrated in one block fail while blocks*t errors
// spread evenly succeed. The attacks exploit exactly this distinction, so
// the semantics are per-block by design.
func (b *Block) T() int { return b.inner.T() }

// EncodeInto encodes block by block: each K-bit message slice is
// extracted into a workspace buffer, encoded by the inner code, and
// written back into dst word-level.
func (b *Block) EncodeInto(ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("message", msg.Len(), b.K())
	checkLen("encode buffer", dst.Len(), b.N())
	ik, in := b.inner.K(), b.inner.N()
	m := ws.vec(&ws.blockMsg, ik)
	out := ws.vec(&ws.blockOut, in)
	for i := 0; i < b.blocks; i++ {
		msg.SliceInto(i*ik, (i+1)*ik, m)
		b.inner.EncodeInto(ws, m, out)
		dst.PutAt(i*in, out)
	}
}

// DecodeInto decodes each block independently: each inner block is
// sliced into a workspace buffer, decoded by the inner code, and
// written back into dst word-level. corrected sums over blocks; ok is
// the conjunction of per-block outcomes. A failed block contributes
// its received bits to dst and decoding continues, so the total
// correction count stays meaningful.
func (b *Block) DecodeInto(ws *Workspace, received, dst bitvec.Vector) (int, bool) {
	checkLen("received word", received.Len(), b.N())
	checkLen("decode buffer", dst.Len(), b.N())
	in := b.inner.N()
	recv := ws.vec(&ws.blockRecv, in)
	out := ws.vec(&ws.blockOut, in)
	total := 0
	allOK := true
	for i := 0; i < b.blocks; i++ {
		received.SliceInto(i*in, (i+1)*in, recv)
		corrected, ok := b.inner.DecodeInto(ws, recv, out)
		dst.PutAt(i*in, out)
		total += corrected
		allOK = allOK && ok
	}
	return total, allOK
}

// ContainsAllOnes holds iff the inner code contains all-ones (the
// composite all-ones word is all blocks at all-ones).
func (b *Block) ContainsAllOnes() bool { return b.inner.ContainsAllOnes() }

// String implements fmt.Stringer.
func (b *Block) String() string {
	return fmt.Sprintf("%d x %s", b.blocks, b.inner)
}
