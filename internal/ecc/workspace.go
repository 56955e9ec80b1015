package ecc

import (
	"repro/internal/bitvec"
	"repro/internal/galois"
)

// Workspace is caller-owned scratch state for a Code's EncodeInto and
// DecodeInto. A zero Workspace is ready to use; buffers grow on first
// use and are reused afterwards, so a steady-state encode or decode
// over a fixed code performs no heap allocations. A Workspace serves
// one call at a time: it is not safe for concurrent use, and a Block
// must not nest another Block as its inner code (the per-block buffers
// would be reentered). Devices keep one Workspace per oracle and clone none of
// it on Fork — every field is rebuilt from scratch deterministically.
type Workspace struct {
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

// Reproducer is the code-offset decode kernel of a reconstruction: a
// code laid over a response stream of a given bit length in the Blocks
// layout (whole blocks, at least one), the zero-padded
// stream buffer the response bits are written into, and the decode
// scratch. Every construction's per-query decode runs through one.
// Ready after Resize; not safe for concurrent use.
type Reproducer struct {
	block     *Block
	stream    bitvec.Vector
	received  bitvec.Vector // offset XOR stream, the decoder's input
	recovered bitvec.Vector
	ws        Workspace
}

// Resize lays code over a bits-long response stream, rebuilding the
// block code and buffers only when the layout changes.
func (r *Reproducer) Resize(code Code, bits int) {
	blocks := Blocks(code, bits)
	if r.block == nil || r.block.inner != code || r.block.blocks != blocks {
		r.block = NewBlock(code, blocks)
	}
	if n := blocks * code.N(); r.stream.Len() != n {
		r.stream = bitvec.New(n)
		r.received = bitvec.New(n)
		r.recovered = bitvec.New(n)
	}
}

// Stream zeroes the padded stream buffer and returns it for the
// caller to write the response bits into.
func (r *Reproducer) Stream() bitvec.Vector {
	r.stream.Zero()
	return r.stream
}

// Reproduce decodes the stream against the helper offset w: it decodes
// w XOR stream back to the enrolled codeword c and returns w XOR c, the
// enrolled stream. ok is false when w's length differs from the padded
// stream's or decoding fails; on ok the recovered stream is returned,
// Reproducer-owned and valid until the next call.
func (r *Reproducer) Reproduce(w bitvec.Vector) (recovered bitvec.Vector, ok bool) {
	if w.Len() != r.stream.Len() {
		return bitvec.Vector{}, false
	}
	w.XorInto(r.stream, r.received)
	if _, ok = r.block.DecodeInto(&r.ws, r.received, r.recovered); !ok {
		return bitvec.Vector{}, false
	}
	w.XorInto(r.recovered, r.recovered)
	return r.recovered, true
}
