package obs

import "sync/atomic"

// A StripedCounter has 1<<stripeBits independent slots. Two goroutines
// working on unrelated keys meet on a slot one time in sixteen, which is
// enough to take the counters out of a two-goroutine profile while a whole
// Stats block of them still fits in L1.
const (
	stripeBits     = 4
	counterStripes = 1 << stripeBits
)

// StripedCounter is a monotonically increasing counter whose adds are spread
// over line-padded slots by a caller-supplied key (an SCM line index, a leaf
// offset), so goroutines working on different data never write the same
// cache line. The total is the sum of the slots: which slot an add lands in
// changes where the count is kept, never what is counted.
type StripedCounter struct {
	slots [counterStripes]struct {
		n atomic.Uint64
		_ [56]byte // slots are 64 bytes apart, so no two share a line
	}
}

// slotOf hashes key to a slot index, so regularly spaced keys (block
// offsets, all multiples of the block size) still spread over the slots.
func slotOf(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> (64 - stripeBits) }

// Add increments the slot selected by key by n.
func (c *StripedCounter) Add(key, n uint64) { c.slots[slotOf(key)].n.Add(n) }

// Load returns the sum of all slots. Under concurrent adds the sum lies
// between the counter's value when the first slot was read and its value
// when the last one was.
func (c *StripedCounter) Load() uint64 {
	var sum uint64
	for i := range c.slots {
		sum += c.slots[i].n.Load()
	}
	return sum
}
