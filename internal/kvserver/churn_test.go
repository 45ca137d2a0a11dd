package kvserver

import (
	"bytes"
	"fmt"
	"testing"

	"fptree/internal/scm"
)

// TestGroupedChurnReusesArena fills the grouped tree engines with keys and
// drains them, several times over. A kvserver leaf group (GroupSize leaves
// of 8640 bytes) is larger than the allocator's largest size class, so a
// group released when it empties would be dropped for good (LargeFrees) and
// every refill would carve new groups. The arena must stop growing after
// the first fill, and no block may be dropped.
func TestGroupedChurnReusesArena(t *testing.T) {
	const keys, cycles = 3000, 4
	val := bytes.Repeat([]byte("v"), 32)
	for _, e := range Engines {
		if e.Name != "fptreec" && e.Name != "fptree" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			pool := scm.NewPool(32<<20, scm.LatencyConfig{CacheBytes: -1})
			st, err := e.Create(pool)
			if err != nil {
				t.Fatal(err)
			}
			var peak uint64
			for c := 0; c < cycles; c++ {
				for i := 0; i < keys; i++ {
					if err := st.Set([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
						t.Fatalf("cycle %d: set %d: %v", c, i, err)
					}
				}
				for i := 0; i < keys; i++ {
					if ok, err := st.Delete([]byte(fmt.Sprintf("key-%06d", i))); !ok || err != nil {
						t.Fatalf("cycle %d: delete %d = %v, %v", c, i, ok, err)
					}
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				used := pool.AllocatedBytes()
				if c == 0 {
					peak = used
				} else if used != peak {
					t.Fatalf("cycle %d: arena grew from %d to %d bytes", c, peak, used)
				}
				if n := pool.LargeFrees(); n != 0 {
					t.Fatalf("cycle %d: %d freed blocks dropped", c, n)
				}
			}
		})
	}
}
