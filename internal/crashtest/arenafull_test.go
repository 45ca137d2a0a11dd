package crashtest

import (
	"errors"
	"fmt"
	"testing"

	"fptree/internal/scm"
)

// TestArenaFull fills arenas of many sizes until an insert fails with
// scm.ErrOutOfMemory, on every rig of both key kinds. Whatever structure
// modification the arena ran out in — a leaf or node split, a separator's or
// bound's key block, a log entry's key copy — the failed insert must leave
// the tree as it was: invariants green (no micro-log left armed), every
// acked key readable, the failed key absent, and the same after a crash and
// recovery.
func TestArenaFull(t *testing.T) {
	t.Run("fixed", func(t *testing.T) { arenaFullSweep(t, Fixed, fixedRigs()) })
	t.Run("var", func(t *testing.T) { arenaFullSweep(t, Var, varRigs()) })
}

// The sweep's arena sizes: the arena runs out at a different point of the
// structure-modification sequence at each.
const (
	arenaFullMin  = 64 << 10
	arenaFullMax  = 128 << 10
	arenaFullStep = 1024
)

func arenaFullSweep[K, V any](t *testing.T, ks Keys[K, V], rigs []rigSpec[K, V]) {
	for _, s := range rigs {
		t.Run(s.name, func(t *testing.T) {
			for size := int64(arenaFullMin); size <= arenaFullMax; size += arenaFullStep {
				if err := fillArena(ks, s, size); err != nil {
					t.Fatalf("%d-byte arena: %v", size, err)
				}
			}
		})
	}
}

// fillArena inserts key numbers 1, 2, ... into a fresh tree on a size-byte
// arena until the arena is full, then checks the tree live and recovered.
func fillArena[K, V any](ks Keys[K, V], s rigSpec[K, V], size int64) error {
	pool := scm.NewPool(size, scm.LatencyConfig{CacheBytes: -1})
	b, err := s.create(pool)
	if err != nil {
		return err
	}
	r := &rig[K, V]{s, b, pool}
	o := NewOracle(ks)
	var probe []K
	for n := uint64(1); ; n++ {
		k, v := ks.key(n), ks.value(n, s.valSize)
		probe = append(probe, k)
		err := r.tree.Insert(k, v)
		if errors.Is(err, scm.ErrOutOfMemory) {
			break
		}
		if err != nil {
			return fmt.Errorf("insert %d: %v", n, err)
		}
		o.put(k, v)
	}
	check := func(when string) error {
		if err := r.check(); err != nil {
			return fmt.Errorf("%s, %d keys acked: %v", when, len(o.m), err)
		}
		if err := o.Diff(r.tree, probe, r.scan); err != nil {
			return fmt.Errorf("%s, %d keys acked: %v", when, len(o.m), err)
		}
		return nil
	}
	if err := check("full"); err != nil {
		return err
	}
	pool.Crash()
	if err := r.reopen(); err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	return check("recovered")
}
