// Package tatp is the database integration of Section 6.4: a single-level,
// dictionary-encoded columnar storage prototype whose dictionary index is
// the persistent tree under test, driven by the read-only transactions of
// the Telecom Application Transaction Processing (TATP) benchmark.
//
// The columnar data (subscriber, access-info and call-forwarding columns)
// lives in SCM as large arrays; the index maps subscriber ids to row
// numbers. Loading inserts sequential subscriber ids — the highly skewed
// insertion pattern that Section 6.4 reports as pathological for the
// NV-Tree's rebuild scheme. Restart recovers the index (rebuilding its DRAM
// part) and sanity-scans the SCM-resident columns, as the paper describes.
package tatp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fptree/internal/scm"
)

// Index is the dictionary index under test: subscriber id -> row number.
// Implementations must be safe for concurrent reads; writes happen only
// during the single-threaded load phase.
type Index interface {
	Insert(k, v uint64) error
	Find(k uint64) (uint64, bool)
}

// DB is the prototype database.
type DB struct {
	pool *scm.Pool
	idx  Index
	n    int // subscribers

	// Column offsets in SCM. Subscriber: sub_nbr, bits, msc_location.
	// AccessInfo: 4 rows per subscriber (ai_type 1..4), data1..4 packed.
	// CallForwarding: 4 rows per subscriber keyed by sf_type, start_time.
	colSubNbr uint64
	colBits   uint64
	colMscLoc uint64
	colAIData uint64
	colCFDest uint64
	colCFTime uint64

	// mu serializes access for non-thread-safe indexes; RLock-only during
	// the measured read-only phase, so concurrent indexes still scale.
	mu sync.RWMutex
}

const (
	aiPerSub = 4
	cfPerSub = 4
)

// Load populates the database with n subscribers and builds the dictionary
// index by inserting the sequentially generated subscriber ids. The column
// data lives in its own SCM arena (colPool), separate from the index's
// arena, mirroring the paper's prototype where multiple database structures
// share SCM.
func Load(colPool *scm.Pool, idx Index, n int) (*DB, error) {
	db := &DB{pool: colPool, idx: idx, n: n}
	// A root-anchored catalog block owns the six column arrays, so every
	// allocation follows the leak-prevention protocol.
	meta, err := colPool.AllocRoot(6 * 16)
	if err != nil {
		return nil, fmt.Errorf("tatp: allocating catalog: %w", err)
	}
	var offs [6]uint64
	sizes := []uint64{8 * uint64(n), 8 * uint64(n), 8 * uint64(n),
		8 * uint64(n) * aiPerSub, 8 * uint64(n) * cfPerSub, 8 * uint64(n) * cfPerSub}
	for i, sz := range sizes {
		ptr, err := colPool.Alloc(meta.Offset+uint64(i)*16, sz)
		if err != nil {
			return nil, err
		}
		offs[i] = ptr.Offset
	}
	db.colSubNbr, db.colBits, db.colMscLoc = offs[0], offs[1], offs[2]
	db.colAIData, db.colCFDest, db.colCFTime = offs[3], offs[4], offs[5]

	rng := rand.New(rand.NewSource(42))
	for row := 0; row < n; row++ {
		sid := uint64(row + 1) // sequential ids: the skewed insert pattern
		db.pool.WriteU64(db.colSubNbr+uint64(row)*8, sid*7919)
		db.pool.WriteU64(db.colBits+uint64(row)*8, rng.Uint64())
		db.pool.WriteU64(db.colMscLoc+uint64(row)*8, rng.Uint64()%1e9)
		for t := 0; t < aiPerSub; t++ {
			db.pool.WriteU64(db.colAIData+uint64(row*aiPerSub+t)*8, rng.Uint64())
		}
		for t := 0; t < cfPerSub; t++ {
			db.pool.WriteU64(db.colCFDest+uint64(row*cfPerSub+t)*8, rng.Uint64()%1e8)
			db.pool.WriteU64(db.colCFTime+uint64(row*cfPerSub+t)*8, uint64(rng.Intn(24)))
		}
		if err := db.idx.Insert(sid, uint64(row)); err != nil {
			return nil, err
		}
	}
	// Make the column data durable in one sweep (bulk load).
	for i, sz := range sizes {
		db.pool.Persist(offs[i], sz)
	}
	return db, nil
}

// GetSubscriberData is TATP's GET_SUBSCRIBER_DATA: one index lookup plus the
// subscriber row.
func (db *DB) GetSubscriberData(sid uint64) (uint64, uint64, uint64, bool) {
	row, ok := db.idx.Find(sid)
	if !ok {
		return 0, 0, 0, false
	}
	return db.pool.ReadU64(db.colSubNbr + row*8),
		db.pool.ReadU64(db.colBits + row*8),
		db.pool.ReadU64(db.colMscLoc + row*8), true
}

// GetNewDestination is TATP's GET_NEW_DESTINATION: index lookup plus a
// call-forwarding probe.
func (db *DB) GetNewDestination(sid uint64, sfType, startTime int) (uint64, bool) {
	row, ok := db.idx.Find(sid)
	if !ok {
		return 0, false
	}
	i := row*cfPerSub + uint64(sfType%cfPerSub)
	if db.pool.ReadU64(db.colCFTime+i*8) > uint64(startTime) {
		return 0, false // no active forwarding
	}
	return db.pool.ReadU64(db.colCFDest + i*8), true
}

// GetAccessData is TATP's GET_ACCESS_DATA: index lookup plus an access-info
// row.
func (db *DB) GetAccessData(sid uint64, aiType int) (uint64, bool) {
	row, ok := db.idx.Find(sid)
	if !ok {
		return 0, false
	}
	return db.pool.ReadU64(db.colAIData + (row*aiPerSub+uint64(aiType%aiPerSub))*8), true
}

// RunReadOnly executes the TATP read-only transaction mix (GET_SUBSCRIBER_
// DATA : GET_NEW_DESTINATION : GET_ACCESS_DATA at the standard 35:10:35
// weights, normalized) with the given number of clients for total
// transactions, returning transactions per second.
func (db *DB) RunReadOnly(clients, total int) float64 {
	var wg sync.WaitGroup
	per := total / clients
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				sid := rng.Uint64()%uint64(db.n) + 1
				db.mu.RLock()
				switch w := rng.Intn(80); {
				case w < 35:
					db.GetSubscriberData(sid)
				case w < 45:
					db.GetNewDestination(sid, rng.Intn(4), rng.Intn(24))
				default:
					db.GetAccessData(sid, rng.Intn(4))
				}
				db.mu.RUnlock()
			}
		}(int64(c))
	}
	wg.Wait()
	return float64(per*clients) / time.Since(start).Seconds()
}

// Verify spot-checks the index against the column data.
func (db *DB) Verify(samples int) error {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < samples; i++ {
		sid := rng.Uint64()%uint64(db.n) + 1
		nbr, _, _, ok := db.GetSubscriberData(sid)
		if !ok {
			return fmt.Errorf("tatp: subscriber %d missing", sid)
		}
		if nbr != sid*7919 {
			return fmt.Errorf("tatp: subscriber %d has sub_nbr %d", sid, nbr)
		}
	}
	return nil
}

// Restart simulates a crash and measures recovery: the pool reverts to its
// durable state, recoverIdx rebuilds the index's transient part, and the
// SCM-resident columns get a sanity scan, as the paper's restart procedure
// describes. The recovered DB is returned with the new index installed.
func (db *DB) Restart(recoverIdx func() (Index, error)) (time.Duration, error) {
	db.pool.Crash()
	start := time.Now()
	idx, err := recoverIdx()
	if err != nil {
		return 0, err
	}
	db.idx = idx
	// Sanity-scan the columns (checksum read of SCM-resident data).
	var sum uint64
	for row := 0; row < db.n; row += 64 {
		sum += db.pool.ReadU64(db.colSubNbr + uint64(row)*8)
	}
	_ = sum
	elapsed := time.Since(start)
	return elapsed, db.Verify(100)
}
