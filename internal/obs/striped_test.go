package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestStripedCounterSumsAllSlots checks that the total is independent of
// which keys the adds used, that regularly spaced keys spread over the
// slots, and that slots are a cache line apart.
func TestStripedCounterSumsAllSlots(t *testing.T) {
	var c StripedCounter
	var want uint64
	used := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		key := i * 2048 // block offsets: all multiples of the block size
		c.Add(key, i)
		want += i
		used[slotOf(key)] = true
	}
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	if len(used) != counterStripes {
		t.Fatalf("keys at a 2 KiB stride reached %d of %d slots", len(used), counterStripes)
	}
	if got := unsafe.Sizeof(c.slots[0]); got != 64 {
		t.Fatalf("slot size %d, want one 64-byte line", got)
	}
}

func TestStripedCounterConcurrentAdds(t *testing.T) {
	var c StripedCounter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				c.Add(w<<12+i, 1)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("Load = %d, want %d", got, workers*per)
	}
}
