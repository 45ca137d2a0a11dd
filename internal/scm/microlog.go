package scm

// MicroLog is a micro-log: a few persistent-pointer cells that share one
// cache line, so back-to-back writes to a log can be persisted together and
// Reset nulls every cell with one flush. The owner fixes the cell count when
// it names the log; Reset writes and persists exactly those cells.
type MicroLog struct {
	pool  *Pool
	off   uint64
	cells int
}

// MicroLog returns the micro-log of cells cells at off. off must be 16-byte
// aligned and the cells must fit in its cache line.
func (p *Pool) MicroLog(off uint64, cells int) MicroLog { return MicroLog{p, off, cells} }

// P returns cell i.
func (l MicroLog) P(i int) PPtr { return l.pool.ReadPPtr(l.Off(i)) }

// Off returns the offset of cell i, so the cell can serve as the allocator's
// owning reference in Alloc and Free.
func (l MicroLog) Off(i int) uint64 { return l.off + uint64(i)*PPtrSize }

// Set durably stores v in cell i.
func (l MicroLog) Set(i int, v PPtr) {
	l.pool.WritePPtr(l.Off(i), v)
	l.pool.Persist(l.Off(i), PPtrSize)
}

// Reset durably nulls every cell with one persist.
func (l MicroLog) Reset() {
	for i := 0; i < l.cells; i++ {
		l.pool.WritePPtr(l.Off(i), PPtr{})
	}
	l.pool.Persist(l.off, uint64(l.cells)*PPtrSize)
}
