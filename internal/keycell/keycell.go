// Package keycell is the persistent key cell of the baseline trees, the
// NV-Tree and the wBTree: the field of a log entry, a node entry or a leaf's
// routing bound that holds one key. Each tree is written once over a Codec
// and picks it by its key type parameter (For), so no tree code branches on
// the key kind; the kind is written down only as the Mode word a tree's
// metadata block keeps and checks at open.
//
// A fixed key sits inline in an 8-byte cell, ^0 standing for +infinity. A
// variable-size key lives in an SCM block of its own; its 24-byte cell holds
// the block's PPtr and the key length, a length of ^0 standing for
// +infinity. The block is allocated through the cell that owns it, so the
// allocator's recovery either publishes it there or takes it back.
package keycell

import (
	"bytes"
	"cmp"

	"fptree/internal/scm"
)

// Key is a key kind a cell can hold.
type Key interface{ uint64 | []byte }

// Codec reads and writes the key cells at SCM offsets. Every method that
// writes persists what it wrote before it returns.
type Codec[K Key] interface {
	// Mode is the key-mode word of a tree's metadata block.
	Mode() uint64
	// Size is the cell's width in bytes.
	Size() uint64
	// Inf is what Bound reads from a +infinity cell.
	Inf() K
	Compare(a, b K) int
	// Covers reports whether the routing bound (Inf allowed) is at or above k.
	Covers(bound, k K) bool
	// Succ is the least key above k.
	Succ(k K) K
	// NewSet returns a test that reports true the first time it sees a key.
	NewSet(hint int) func(K) bool
	// DRAMBytes estimates the DRAM a separator array holds.
	DRAMBytes(seps []K) uint64

	// Key reads the key of a cell that is not +infinity.
	Key(p *scm.Pool, cell uint64) K
	// Bound reads a cell that may be +infinity, as Inf.
	Bound(p *scm.Pool, cell uint64) K
	IsInf(p *scm.Pool, cell uint64) bool
	Equal(p *scm.Pool, cell uint64, k K) bool
	// CompareAt compares the cell's key with k; +infinity is above every key.
	CompareAt(p *scm.Pool, cell uint64, k K) int
	// Write stores k in the cell, allocating a variable-size key's block.
	Write(p *scm.Pool, cell uint64, k K) error
	WriteInf(p *scm.Pool, cell uint64)
	// Stage and Attach are Write split around the caller's own persist:
	// Stage writes the cell's inline word (the key or its length) without
	// persisting it, Attach then allocates and fills the key's block.
	Stage(p *scm.Pool, cell uint64, k K)
	Attach(p *scm.Pool, cell uint64, k K) error
	// Copy moves src's key into dst: a variable-size key's block changes
	// owner, it is not copied.
	Copy(p *scm.Pool, dst, src uint64)
	// Adopt is Copy when the caller has already read src's key k.
	Adopt(p *scm.Pool, dst, src uint64, k K)
	// Free releases the cell's key block, if it has one.
	Free(p *scm.Pool, cell uint64)
}

// For returns the codec of key type K.
func For[K Key]() Codec[K] {
	var c any = varCell{}
	if _, fixed := any(*new(K)).(uint64); fixed {
		c = fixedCell{}
	}
	return c.(Codec[K])
}

const inf = ^uint64(0)

// newSet is NewSet over a comparable DRAM image of the key.
func newSet[T comparable](hint int) func(T) bool {
	seen := make(map[T]bool, hint)
	return func(k T) bool {
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
}

// fixedCell is the codec of 8-byte keys.
type fixedCell struct{}

func (fixedCell) Mode() uint64                          { return 0 }
func (fixedCell) Size() uint64                          { return 8 }
func (fixedCell) Inf() uint64                           { return inf }
func (fixedCell) Compare(a, b uint64) int               { return cmp.Compare(a, b) }
func (fixedCell) Covers(bound, k uint64) bool           { return bound >= k }
func (fixedCell) Succ(k uint64) uint64                  { return k + 1 }
func (fixedCell) NewSet(hint int) func(uint64) bool     { return newSet[uint64](hint) }
func (fixedCell) DRAMBytes(seps []uint64) uint64        { return uint64(cap(seps)) * 8 }
func (fixedCell) Key(p *scm.Pool, cell uint64) uint64   { return p.ReadU64(cell) }
func (fixedCell) Bound(p *scm.Pool, cell uint64) uint64 { return p.ReadU64(cell) }
func (fixedCell) IsInf(p *scm.Pool, cell uint64) bool   { return p.ReadU64(cell) == inf }

func (fixedCell) Equal(p *scm.Pool, cell uint64, k uint64) bool { return p.ReadU64(cell) == k }

func (f fixedCell) CompareAt(p *scm.Pool, cell uint64, k uint64) int {
	if f.IsInf(p, cell) {
		return 1
	}
	return cmp.Compare(p.ReadU64(cell), k)
}

func (fixedCell) Write(p *scm.Pool, cell uint64, k uint64) error {
	p.WriteU64(cell, k)
	p.Persist(cell, 8)
	return nil
}

func (f fixedCell) WriteInf(p *scm.Pool, cell uint64)          { f.Write(p, cell, inf) }
func (fixedCell) Stage(p *scm.Pool, cell uint64, k uint64)     { p.WriteU64(cell, k) }
func (fixedCell) Attach(*scm.Pool, uint64, uint64) error       { return nil }
func (f fixedCell) Copy(p *scm.Pool, dst, src uint64)          { f.Write(p, dst, p.ReadU64(src)) }
func (f fixedCell) Adopt(p *scm.Pool, dst, _ uint64, k uint64) { f.Write(p, dst, k) }
func (fixedCell) Free(*scm.Pool, uint64)                       {}

// varCell is the codec of variable-size keys.
type varCell struct{}

// lenOff is the offset of the key length in a varCell.
const lenOff = scm.PPtrSize

func (varCell) Mode() uint64                { return 1 }
func (varCell) Size() uint64                { return scm.PPtrSize + 8 }
func (varCell) Inf() []byte                 { return nil }
func (varCell) Compare(a, b []byte) int     { return bytes.Compare(a, b) }
func (varCell) Covers(bound, k []byte) bool { return bound == nil || bytes.Compare(bound, k) >= 0 }
func (varCell) Succ(k []byte) []byte        { return append(append([]byte(nil), k...), 0) }

func (varCell) NewSet(hint int) func([]byte) bool {
	seen := newSet[string](hint)
	return func(k []byte) bool { return seen(string(k)) }
}

func (varCell) DRAMBytes(seps [][]byte) uint64 {
	var n uint64
	for _, s := range seps {
		n += uint64(len(s)) + 24
	}
	return n
}

func (varCell) Key(p *scm.Pool, cell uint64) []byte {
	pk := p.ReadPPtr(cell)
	return p.ReadBytes(pk.Offset, p.ReadU64(cell+lenOff))
}

func (varCell) Bound(p *scm.Pool, cell uint64) []byte {
	klen := p.ReadU64(cell + lenOff)
	if klen == inf {
		return nil
	}
	return p.ReadBytes(p.ReadPPtr(cell).Offset, klen)
}

func (varCell) IsInf(p *scm.Pool, cell uint64) bool { return p.ReadU64(cell+lenOff) == inf }

func (varCell) Equal(p *scm.Pool, cell uint64, k []byte) bool {
	if p.ReadU64(cell+lenOff) != uint64(len(k)) {
		return false
	}
	return p.EqualBytes(p.ReadPPtr(cell).Offset, k)
}

func (v varCell) CompareAt(p *scm.Pool, cell uint64, k []byte) int {
	if v.IsInf(p, cell) {
		return 1
	}
	return bytes.Compare(v.Key(p, cell), k)
}

func (v varCell) Write(p *scm.Pool, cell uint64, k []byte) error {
	v.Stage(p, cell, k)
	p.Persist(cell+lenOff, 8)
	return v.Attach(p, cell, k)
}

func (varCell) WriteInf(p *scm.Pool, cell uint64) {
	p.WritePPtr(cell, scm.PPtr{})
	p.WriteU64(cell+lenOff, inf)
	p.Persist(cell, scm.PPtrSize+8)
}

func (varCell) Stage(p *scm.Pool, cell uint64, k []byte) { p.WriteU64(cell+lenOff, uint64(len(k))) }

func (varCell) Attach(p *scm.Pool, cell uint64, k []byte) error {
	pk, err := p.Alloc(cell, uint64(len(k)))
	if err != nil {
		return err
	}
	p.WriteBytes(pk.Offset, k)
	p.Persist(pk.Offset, uint64(len(k)))
	return nil
}

func (varCell) Copy(p *scm.Pool, dst, src uint64) {
	p.WritePPtr(dst, p.ReadPPtr(src))
	p.WriteU64(dst+lenOff, p.ReadU64(src+lenOff))
	p.Persist(dst, scm.PPtrSize+8)
}

func (v varCell) Adopt(p *scm.Pool, dst, src uint64, _ []byte) { v.Copy(p, dst, src) }

func (varCell) Free(p *scm.Pool, cell uint64) { p.Free(cell, p.ReadU64(cell+lenOff)) }
