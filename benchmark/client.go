package main

import (
	"bytes"
	"encoding/binary"

	"fptree/internal/core"
)

type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opUpdate
	opDelete
	opScan // ScanN(k, scanLen)
	opIter // Iterator stepped scanLen times
	numKinds
)

var kindNames = [numKinds]string{"get", "insert", "update", "delete", "scan", "iter"}

// opClass groups kinds into the latency families the end-to-end metrics name.
type opClass uint8

const (
	clRead opClass = iota
	clWrite
	clScan
	numClasses
)

var classOf = [numKinds]opClass{clRead, clWrite, clWrite, clWrite, clScan, clScan}

const scanLen = 100

// stepper is one closed-loop client. The harness times exec alone: prepare
// draws the next op and formats its key and value, commit checks the reply
// against the client's model and advances the model.
type stepper interface {
	prepare()
	exec() opKind
	commit() bool
	current() (kind opKind, id uint64, stamp uint32)
}

// mix is an op mix in percent; the shares sum to 100.
type mix struct{ get, insert, update, del, scan int }

// shape is how ids become keys and (id, stamp) pairs become values. A value
// always names its key and the write that produced it, so a wrong, stale or
// misplaced value cannot pass for the right one.
type shape struct {
	keyLen, valLen int
	key            func(gid uint64, buf []byte)
}

const hexDigits = "0123456789abcdef"

func putHex16(buf []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		buf[i] = hexDigits[v&15]
		v >>= 4
	}
}

// scatteredHexKey: 16 hex digits of a bijective scramble of the id — id order
// is not key order, so FIFO deletes and fresh inserts land all over the tree.
func scatteredHexKey(salt uint64) func(uint64, []byte) {
	return func(gid uint64, buf []byte) { putHex16(buf, mix64(gid^salt)) }
}

// orderedHexKey: key order is id order, so neighbouring zipfian ranks share a
// leaf (idx-hot).
func orderedHexKey(gid uint64, buf []byte) { putHex16(buf, gid+1) }

// orderedFixedKey: 8-byte big-endian keys increasing with the id, with
// seed-dependent low bits; a range read from id g returns ids g, g+1, ….
func orderedFixedKey(salt uint64) func(uint64, []byte) {
	return func(gid uint64, buf []byte) {
		binary.BigEndian.PutUint64(buf, (gid+1)<<20|mix64(gid^salt)&(1<<20-1))
	}
}

func fillVal(buf []byte, gid uint64, stamp uint32) {
	if len(buf) == 8 {
		binary.LittleEndian.PutUint64(buf, uint64(stamp)<<32|gid&0xffffffff)
		return
	}
	putHex16(buf, gid)
	putHex16(buf[16:], uint64(stamp))
}

// winClient owns a private partition of the id space (ids ≡ c mod nc) and
// keeps an exact model of it: the live ids are the window [head, tail) of its
// local ids, inserts extend the tail, deletes retire the head (FIFO, so the
// size is steady) and stamps holds the last acked write per live id.
type winClient struct {
	tgt   target
	r     rng
	z     *zipf // scrambled zipfian over the live window; nil: uniform
	mix   mix
	sh    shape
	c, nc uint64
	total uint64 // ids preloaded across all clients (bounds range reads)

	head, tail       uint64
	minLive, maxLive uint64
	stamps           []uint32 // ring indexed by local id
	mask             uint64

	kind     opKind
	lid      uint64
	stamp    uint32
	iterNext bool
	err      error
	found    bool
	got      []byte
	kvs      []core.KV
	iterBuf  []core.KV

	key, val, want, fkey []byte
}

// newWinClient builds client c of nc over perClient preloaded ids each.
func newWinClient(tgt target, seed uint64, c, nc int, perClient uint64, m mix, sh shape) *winClient {
	ring := uint64(1)
	for ring < 2*perClient+1024 {
		ring <<= 1
	}
	return &winClient{
		tgt: tgt, r: rng{s: seed}, mix: m, sh: sh, c: uint64(c), nc: uint64(nc), total: perClient * uint64(nc),
		tail: perClient, minLive: perClient / 2, maxLive: perClient + perClient/2 + 512,
		stamps: make([]uint32, ring), mask: ring - 1,
		key: make([]byte, sh.keyLen), val: make([]byte, sh.valLen), want: make([]byte, sh.valLen), fkey: make([]byte, sh.keyLen),
		iterBuf: make([]core.KV, 0, scanLen),
	}
}

func (w *winClient) gid(lid uint64) uint64 { return lid*w.nc + w.c }

func (w *winClient) pick(size uint64) uint64 {
	if w.z == nil {
		return w.r.intn(size)
	}
	return mix64(w.z.rank(w.r.float())) % size
}

func (w *winClient) prepare() {
	p, m := int(w.r.intn(100)), w.mix
	switch {
	case p < m.get:
		w.kind = opGet
	case p < m.get+m.insert:
		w.kind = opInsert
	case p < m.get+m.insert+m.update:
		w.kind = opUpdate
	case p < m.get+m.insert+m.update+m.del:
		w.kind = opDelete
	default:
		w.kind = opScan
		if w.iterNext {
			w.kind = opIter
		}
		w.iterNext = !w.iterNext
	}
	size := w.tail - w.head
	if w.kind == opDelete && size <= w.minLive {
		w.kind = opInsert
	} else if w.kind == opInsert && size >= w.maxLive {
		w.kind = opDelete
	}
	switch w.kind {
	case opInsert:
		w.lid, w.stamp = w.tail, 1
	case opDelete:
		w.lid = w.head
	default:
		w.lid = w.head + w.pick(size)
		w.stamp = w.stamps[w.lid&w.mask]
		if w.kind == opUpdate {
			w.stamp++
		}
	}
	w.sh.key(w.gid(w.lid), w.key)
	if w.kind == opInsert || w.kind == opUpdate {
		fillVal(w.val, w.gid(w.lid), w.stamp)
	}
}

func (w *winClient) exec() opKind {
	switch w.kind {
	case opGet:
		w.got, w.found, w.err = w.tgt.get(w.key)
	case opInsert:
		w.err = w.tgt.put(w.key, w.val, true)
	case opUpdate:
		w.err = w.tgt.put(w.key, w.val, false)
	case opDelete:
		w.found, w.err = w.tgt.del(w.key)
	case opScan:
		w.kvs = w.tgt.(ranger).scanN(binary.BigEndian.Uint64(w.key), scanLen)
	case opIter:
		w.kvs = w.tgt.(ranger).iterN(binary.BigEndian.Uint64(w.key), scanLen, w.iterBuf)
	}
	return w.kind
}

func (w *winClient) commit() bool {
	switch w.kind {
	case opGet:
		return w.err == nil && w.found && w.matches(w.got, w.gid(w.lid), w.stamp)
	case opInsert:
		w.stamps[w.lid&w.mask] = w.stamp
		w.tail++
		return w.err == nil
	case opUpdate:
		w.stamps[w.lid&w.mask] = w.stamp
		return w.err == nil
	case opDelete:
		w.head++
		return w.err == nil && w.found
	}
	return w.checkRange()
}

func (w *winClient) matches(got []byte, gid uint64, stamp uint32) bool {
	fillVal(w.want, gid, stamp)
	return bytes.Equal(got, w.want)
}

// checkRange verifies a range read taken while the tree is read-only: exactly
// the next scanLen ids in key order, each with its preload value.
func (w *winClient) checkRange() bool {
	g := w.gid(w.lid)
	n := w.total - g
	if n > scanLen {
		n = scanLen
	}
	if uint64(len(w.kvs)) != n {
		return false
	}
	for j, kv := range w.kvs {
		w.sh.key(g+uint64(j), w.fkey)
		if kv.Key != binary.BigEndian.Uint64(w.fkey) || kv.Value != uint64(g+uint64(j))&0xffffffff {
			return false
		}
	}
	return true
}

func (w *winClient) current() (opKind, uint64, uint32) { return w.kind, w.gid(w.lid), w.stamp }

func (w *winClient) live() uint64 { return w.tail - w.head }

// audit reads back every live id, and the most recently retired ones, through
// tgt and compares them with the model. It returns checks made and failed.
func (w *winClient) audit(tgt target) (attempted, failed uint64) {
	for lid := w.head; lid < w.tail; lid++ {
		w.sh.key(w.gid(lid), w.key)
		got, found, err := tgt.get(w.key)
		attempted++
		if err != nil || !found || !w.matches(got, w.gid(lid), w.stamps[lid&w.mask]) {
			failed++
		}
	}
	retired := w.head
	if retired > 1000 {
		retired = 1000
	}
	for lid := w.head - retired; lid < w.head; lid++ {
		w.sh.key(w.gid(lid), w.key)
		_, found, err := tgt.get(w.key)
		attempted++
		if err != nil || found {
			failed++
		}
	}
	return attempted, failed
}

// hotClient shares every key with the other clients (idx-hot). A value names
// its writer and that writer's sequence number; stamp 0 is the preload.
type hotClient struct {
	tgt  target
	r    rng
	z    *zipf
	n    uint64
	me   uint32
	seq  uint32
	last []uint32 // my last acked stamp per key; 0 = never wrote it

	kind  opKind
	kid   uint64
	stamp uint32
	err   error
	found bool
	got   []byte

	key, val []byte
}

const hotSeqBits = 28

func newHotClient(tgt target, seed uint64, c int, n uint64, z *zipf) *hotClient {
	return &hotClient{tgt: tgt, r: rng{s: seed}, z: z, n: n, me: uint32(c), last: make([]uint32, n),
		key: make([]byte, 16), val: make([]byte, 8)}
}

func (h *hotClient) prepare() {
	h.kid = h.z.rank(h.r.float())
	h.kind = opGet
	if h.r.next()&1 == 1 {
		h.kind = opUpdate
		h.seq++
		h.stamp = (h.me+1)<<hotSeqBits | h.seq
		fillVal(h.val, h.kid, h.stamp)
	}
	orderedHexKey(h.kid, h.key)
}

func (h *hotClient) exec() opKind {
	if h.kind == opGet {
		h.got, h.found, h.err = h.tgt.get(h.key)
	} else {
		h.err = h.tgt.put(h.key, h.val, false)
	}
	return h.kind
}

func (h *hotClient) commit() bool {
	if h.kind == opUpdate {
		h.last[h.kid] = h.stamp
		return h.err == nil
	}
	if h.err != nil || !h.found || len(h.got) != 8 {
		return false
	}
	word := binary.LittleEndian.Uint64(h.got)
	stamp := uint32(word >> 32)
	if word&0xffffffff != h.kid {
		return false
	}
	switch stamp >> hotSeqBits {
	case 0: // preload: only legal if I never acked a write to this key
		return stamp == 0 && h.last[h.kid] == 0
	case h.me + 1: // my own write: must be my latest
		return stamp == h.last[h.kid]
	}
	return true // another writer's value; the final audit pins it down
}

func (h *hotClient) current() (opKind, uint64, uint32) { return h.kind, h.kid, h.stamp }

// auditHot checks every key after recovery: the stored (writer, sequence)
// must be that writer's last acked write to the key.
func auditHot(clients []*hotClient, tgt target) (attempted, failed uint64) {
	key := make([]byte, 16)
	for kid := uint64(0); kid < clients[0].n; kid++ {
		orderedHexKey(kid, key)
		got, found, err := tgt.get(key)
		attempted++
		if err != nil || !found || len(got) != 8 {
			failed++
			continue
		}
		word := binary.LittleEndian.Uint64(got)
		stamp := uint32(word >> 32)
		ok := word&0xffffffff == kid
		if writer := stamp >> hotSeqBits; writer == 0 {
			for _, c := range clients {
				ok = ok && stamp == 0 && c.last[kid] == 0
			}
		} else {
			ok = ok && int(writer) <= len(clients) && clients[writer-1].last[kid] == stamp
		}
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

// resolve settles an op that died mid-flight in an injected crash, against
// the recovered store: it must be wholly applied or wholly absent. The model
// adopts whichever happened.
func (w *winClient) resolve() bool {
	got, found, err := w.tgt.get(w.key)
	if err != nil {
		return false
	}
	gid, old := w.gid(w.lid), w.stamps[w.lid&w.mask]
	switch w.kind {
	case opInsert:
		if !found {
			return true
		}
		w.stamps[w.lid&w.mask] = w.stamp
		w.tail++
		return w.matches(got, gid, w.stamp)
	case opUpdate:
		if found && w.matches(got, gid, w.stamp) {
			w.stamps[w.lid&w.mask] = w.stamp
			return true
		}
		return found && w.matches(got, gid, old)
	case opDelete:
		if !found {
			w.head++
			return true
		}
		return w.matches(got, gid, old)
	}
	return true
}
