package kvserver

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fptree/internal/scm"
)

// arenaFullSizes are the arenas TestArenaFullServed fills: 98 sizes a cache
// line apart, so the arena runs out at a different point of the engines'
// split sequences at each. The served NV-Tree's fill repeats every 98 lines,
// and at one size of each period its arena runs out between a split's leaf
// allocations and the key block of the new leaf's bound.
var arenaFullSizes = func() []int64 {
	var sizes []int64
	for s := int64(128 << 10); s < 128<<10+98*scm.LineSize; s += scm.LineSize {
		sizes = append(sizes, s)
	}
	return sizes
}()

// TestArenaFullServed fills every persistent row of the engine table until a
// Set fails with scm.ErrOutOfMemory, on each of arenaFullSizes. The failed
// Set must leave the store as it was: every acked key reads back, the failed
// key is absent and the invariants hold. Deletes then either succeed or fail
// with ErrOutOfMemory and leave their key readable (an NV-Tree tombstone
// carries its own key copy). After a crash, the row's Open recovers exactly
// the acked keys. On the first size the full store is also served: a SET
// over the wire gets SERVER_ERROR and the same connection then serves a GET.
func TestArenaFullServed(t *testing.T) {
	for _, e := range Engines {
		if e.Open == nil {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			for i, size := range arenaFullSizes {
				fillServed(t, e, size, i == 0)
			}
		})
	}
}

func fillServed(t *testing.T, e Engine, size int64, wire bool) {
	t.Helper()
	pool := scm.NewPool(size, scm.LatencyConfig{CacheBytes: -1})
	st, err := e.Create(pool)
	if err != nil {
		t.Fatalf("%d-byte arena: %v", size, err)
	}
	oracle := map[string]string{}
	var acked []string
	var full string
	for i := 0; full == ""; i++ {
		k, v := fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%d", i)
		switch err := st.Set([]byte(k), []byte(v)); {
		case errors.Is(err, scm.ErrOutOfMemory):
			full = k
		case err != nil:
			t.Fatalf("%d-byte arena: set %s: %v", size, k, err)
		default:
			oracle[k] = v
			acked = append(acked, k)
		}
	}
	check := func(st Store, when string) {
		t.Helper()
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%d-byte arena, %s: %v", size, when, err)
		}
		if st.Len() != len(oracle) {
			t.Fatalf("%d-byte arena, %s: Len = %d, want %d", size, when, st.Len(), len(oracle))
		}
		for _, k := range acked {
			v, ok := st.Get([]byte(k))
			if want, live := oracle[k]; ok != live || string(v) != want {
				t.Fatalf("%d-byte arena, %s: get(%s) = %q,%v, want %q,%v", size, when, k, v, ok, want, live)
			}
		}
		if _, ok := st.Get([]byte(full)); ok {
			t.Fatalf("%d-byte arena, %s: the failed set of %s is visible", size, when, full)
		}
	}
	check(st, "full")

	if wire {
		srv, addr, err := Serve("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set([]byte(full), []byte("v")); err == nil || !strings.Contains(err.Error(), "SERVER_ERROR") {
			t.Fatalf("SET on a full arena = %v, want a SERVER_ERROR reply", err)
		}
		if v, ok, err := c.GetAppend(nil, []byte(acked[0])); err != nil || !ok || string(v) != oracle[acked[0]] {
			t.Fatalf("GET after the failed SET = %q,%v,%v", v, ok, err)
		}
		c.Close()
		srv.Close()
	}

	for i := 0; i < len(acked); i += 7 {
		switch found, err := st.Delete([]byte(acked[i])); {
		case errors.Is(err, scm.ErrOutOfMemory):
		case err != nil || !found:
			t.Fatalf("%d-byte arena: delete %s = %v,%v", size, acked[i], found, err)
		default:
			delete(oracle, acked[i])
		}
	}
	check(st, "after deletes")

	pool.Crash()
	st, err = e.Open(pool)
	if err != nil {
		t.Fatalf("%d-byte arena: recovery: %v", size, err)
	}
	check(st, "recovered")
}
