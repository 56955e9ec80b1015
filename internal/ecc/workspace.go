package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// Workspace is caller-owned scratch state for the allocation-free decode
// path. A zero Workspace is ready to use; buffers grow on first use and
// are reused afterwards, so a steady-state Reproduce/Decode cycle over a
// fixed code performs no heap allocations. A Workspace serves one decode
// call at a time: it is not safe for concurrent use, and a Block must
// not nest another Block as its inner code (the per-block buffers would
// be reentered). Devices keep one Workspace per oracle and clone none of
// it on Fork — every field is rebuilt from scratch deterministically.
type Workspace struct {
	// code-offset buffer: offset XOR response, full composite length.
	xorBuf bitvec.Vector
	// per-block buffers of a Block decode.
	blockRecv, blockOut bitvec.Vector
	// per-block message buffer of a Block encode.
	blockMsg bitvec.Vector
	// BCH encoder state: the shifted-message polynomial reduced in place.
	encBuf []galois.Elem
	// BCH decoder state: syndromes, the three rotating Berlekamp-Massey
	// polynomial buffers, the Chien-search per-coefficient running terms,
	// and the root list.
	synd      []galois.Elem
	bmC       galois.Poly
	bmPrev    galois.Poly
	bmSpare   galois.Poly
	chien     []galois.Elem
	positions []int
}

// vec returns *v resized to n bits, reallocating only on length change.
// Contents are unspecified; callers overwrite the buffer fully.
func (ws *Workspace) vec(v *bitvec.Vector, n int) bitvec.Vector {
	if v.Len() != n {
		*v = bitvec.New(n)
	}
	return *v
}

// elems returns buf resized to n elements, zeroed.
func elems(buf []galois.Elem, n int) []galois.Elem {
	if cap(buf) < n {
		return make([]galois.Elem, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// IntoDecoder is the optional fast path of a Code: decode an N-bit word
// into a caller-owned destination using workspace scratch. The contract
// mirrors Decode exactly — bit-identical corrected output and identical
// (corrected, ok) — with dst holding the corrected codeword on ok and
// the received word on !ok (what Decode returns as its first value
// either way). All codes in this package implement it; Block uses it
// per inner block when available and falls back to Decode otherwise.
type IntoDecoder interface {
	Code
	DecodeInto(ws *Workspace, received, dst bitvec.Vector) (corrected int, ok bool)
}

// IntoEncoder is the optional encoding fast path of a Code: encode a
// K-bit message into a caller-owned N-bit destination using workspace
// scratch, bit-identical to Encode with no steady-state allocations. All
// codes in this package implement it; Block uses it per inner block when
// available and falls back to Encode otherwise.
type IntoEncoder interface {
	Code
	EncodeInto(ws *Workspace, msg, dst bitvec.Vector)
}

// EncodeTo encodes msg into dst (length c.N()) through the code's
// EncodeInto fast path when it has one, copying an Encode result
// otherwise. The workspace-reusing primitive behind OffsetForInto.
func EncodeTo(c Code, ws *Workspace, msg, dst bitvec.Vector) {
	checkLen("encode buffer", dst.Len(), c.N())
	if ie, fast := c.(IntoEncoder); fast {
		ie.EncodeInto(ws, msg, dst)
		return
	}
	c.Encode(msg).CopyInto(dst)
}

// ReproduceInto is Reproduce with caller-owned scratch: dst (length
// c.N()) receives the recovered response on ok=true and holds
// unspecified scratch on ok=false. Output is bit-identical to Reproduce
// on the same inputs.
func ReproduceInto(c Code, o Offset, response bitvec.Vector, ws *Workspace, dst bitvec.Vector) (corrected int, ok bool) {
	checkLen("response", response.Len(), c.N())
	checkLen("offset", o.W.Len(), c.N())
	checkLen("reproduce buffer", dst.Len(), c.N())
	buf := ws.vec(&ws.xorBuf, c.N())
	o.W.XorInto(response, buf)
	if id, fast := c.(IntoDecoder); fast {
		corrected, ok = id.DecodeInto(ws, buf, dst)
	} else {
		var cw bitvec.Vector
		cw, corrected, ok = c.Decode(buf)
		if ok {
			cw.CopyInto(dst)
		}
	}
	if !ok {
		return corrected, false
	}
	o.W.XorInto(dst, dst)
	return corrected, true
}

// Reproducer is the code-offset decode kernel of a reconstruction: a
// code laid over a response stream of a given bit length in the
// PadToBlocks layout (whole blocks, at least one), the zero-padded
// stream buffer the response bits are written into, and the decode
// scratch. Every construction's per-query decode runs through one.
// Ready after Resize; not safe for concurrent use.
type Reproducer struct {
	block     *Block
	stream    bitvec.Vector
	recovered bitvec.Vector
	ws        Workspace
}

// Resize lays code over a bits-long response stream, rebuilding the
// block code and buffers only when the layout changes.
func (r *Reproducer) Resize(code Code, bits int) {
	n := code.N()
	blocks := max((bits+n-1)/n, 1)
	if r.block == nil || r.block.inner != code || r.block.blocks != blocks {
		r.block = NewBlock(code, blocks)
	}
	if r.stream.Len() != blocks*n {
		r.stream = bitvec.New(blocks * n)
		r.recovered = bitvec.New(blocks * n)
	}
}

// Stream zeroes the padded stream buffer and returns it for the
// caller to write the response bits into.
func (r *Reproducer) Stream() bitvec.Vector {
	r.stream.Zero()
	return r.stream
}

// Reproduce decodes the stream against the helper offset w. ok is
// false when w's length differs from the padded stream's or decoding
// fails; on ok the recovered stream is returned, Reproducer-owned and
// valid until the next call.
func (r *Reproducer) Reproduce(w bitvec.Vector) (recovered bitvec.Vector, ok bool) {
	if w.Len() != r.stream.Len() {
		return bitvec.Vector{}, false
	}
	if _, ok = ReproduceInto(r.block, Offset{W: w}, r.stream, &r.ws, r.recovered); !ok {
		return bitvec.Vector{}, false
	}
	return r.recovered, true
}
