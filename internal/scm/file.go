package scm

// File-backed arenas: the durable view of a Pool lives in a real file, so the
// tree's persistent state survives an actual process death (kill -9), not
// just the emulated Crash(). The paper's persistence primitives map onto the
// file as follows:
//
//   - flushLine (the CLFLUSH/CLWB equivalent every Persist performs) copies
//     the dirty cache line into the arena file's shared mapping. From that
//     moment the line lives in the kernel page cache, which survives process
//     death — the page cache plays the role of the SCM media, exactly like
//     the battery-backed buffers the paper's emulation platform assumes.
//   - Fence keeps its ordering-only role: the line copies are synchronous, so
//     by the time a Persist returns, its lines are already "in the media".
//   - Sync (msync/fdatasync) extends durability from process death to
//     machine power failure. Close syncs; callers wanting power-fail
//     durability at a finer grain call Sync themselves (memkv's -sync flag).
//
// The 8-byte-atomicity contract is unchanged: recovery code only ever relies
// on aligned 8-byte words appearing atomically, and both the mapping copy
// and the page cache preserve that (pages are only ever written whole).
//
// The file format is identical to Save's image: the raw durable view with
// the arena header at offset 0. On platforms without mmap support the
// durable view stays a heap slice and Sync rewrites the file, so kill -9
// durability degrades to Sync/Close granularity there (see mmap_stub.go).

import (
	"fmt"
	"io"
	"os"
	"time"
)

// OffClean is the byte offset of the 8-byte clean-shutdown marker word in
// the arena header. Exported so callers diffing durable images can mask the
// one word that legitimately differs between a crashed and a closed arena.
const OffClean = offClean

// fileBacking is the file behind a file-backed pool.
type fileBacking struct {
	f      *os.File
	path   string
	mapped bool // durable view is a shared mapping of the file
}

// OpenFile opens (or creates) a file-backed arena with create-or-recover
// semantics:
//
//   - A missing or empty file is formatted as a fresh arena of the given
//     capacity; recovered is false.
//   - An existing image is validated and reopened cold (capacity is ignored:
//     the file's size wins); recovered is true and the caller must run the
//     recovery pipeline (Pool.Recover plus data-structure recovery) before
//     serving — recovery never depends on the clean-shutdown marker.
//
// On reopen the clean-shutdown marker is consumed (readable via
// WasCleanShutdown) and immediately re-armed to "dirty", so a later
// inspection of the file tells whether the previous process closed cleanly.
func OpenFile(path string, capacity int64, cfg LatencyConfig) (p *Pool, recovered bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	size := st.Size()
	fresh := size == 0
	if fresh {
		size = roundCapacity(capacity)
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, false, err
		}
	} else if size < LineSize || size%LineSize != 0 {
		f.Close()
		return nil, false, fmt.Errorf("scm: %s: not an arena image (size %d)", path, size)
	}

	var durable []byte
	mapped := false
	if mmapSupported {
		durable, err = mmapFile(f, size)
		if err != nil {
			f.Close()
			return nil, false, fmt.Errorf("scm: mmap %s: %w", path, err)
		}
		mapped = true
	} else {
		durable = make([]byte, size)
		if !fresh {
			if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), durable); err != nil {
				f.Close()
				return nil, false, fmt.Errorf("scm: read %s: %w", path, err)
			}
		}
	}

	p = newPoolRaw(durable, cfg)
	p.back = &fileBacking{f: f, path: path, mapped: mapped}
	if fresh {
		p.id = poolIDs.Add(1)
		p.formatHeader()
		if err := p.Sync(); err != nil {
			p.teardownBacking()
			return nil, false, err
		}
		return p, false, nil
	}
	if err := p.validateImage(path); err != nil {
		p.teardownBacking()
		return nil, false, err
	}
	p.loadAllocState()
	p.wasClean = p.ReadU64(offClean) != 0
	// Re-arm the marker: from here on, only a completed Close writes it back,
	// so any other exit (crash, kill -9) leaves the image marked dirty.
	p.WriteU64(offClean, 0)
	p.Persist(offClean, 8)
	if err := p.Sync(); err != nil {
		p.teardownBacking()
		return nil, false, err
	}
	return p, true, nil
}

// FileBacked reports whether the pool's durable view is an arena file.
func (p *Pool) FileBacked() bool { return p.back != nil }

// Path returns the arena file path of a file-backed pool ("" otherwise).
func (p *Pool) Path() string {
	if p.back == nil {
		return ""
	}
	return p.back.path
}

// WasCleanShutdown reports whether the arena image carried the
// clean-shutdown marker when it was reopened by OpenFile. It is purely
// informational — recovery always runs in full — but lets operators
// distinguish a crash restart from a normal one. False for fresh arenas and
// non-file-backed pools.
func (p *Pool) WasCleanShutdown() bool { return p.wasClean }

// Sync makes the durable view power-fail durable: msync on mapped arenas, a
// rewrite+fdatasync on the fallback path. A no-op for non-file-backed pools.
// Note that process-death durability does not need Sync — flushed lines live
// in the kernel page cache — so the hot path never calls it.
func (p *Pool) Sync() error {
	if p.back == nil {
		return nil
	}
	start := time.Now()
	var err error
	if p.back.mapped {
		err = msyncFile(p.durable)
	} else {
		if _, werr := p.back.f.WriteAt(p.durable, 0); werr != nil {
			err = werr
		} else {
			err = p.back.f.Sync()
		}
	}
	p.stats.Syncs.Add(1)
	p.stats.SyncNanos.Add(uint64(time.Since(start).Nanoseconds()))
	return err
}

// Close durably sets the clean-shutdown marker, syncs the arena file and
// releases the mapping and file handle. The pool must be quiescent; after
// Close it is unusable. A no-op for non-file-backed pools, so generic
// teardown paths can call it unconditionally.
func (p *Pool) Close() error {
	if p.back == nil {
		return nil
	}
	p.WriteU64(offClean, 1)
	p.Persist(offClean, 8)
	err := p.Sync()
	if terr := p.teardownBacking(); err == nil {
		err = terr
	}
	return err
}

// teardownBacking unmaps and closes the arena file without syncing.
func (p *Pool) teardownBacking() error {
	var err error
	if p.back.mapped {
		err = munmapFile(p.durable)
	}
	if cerr := p.back.f.Close(); err == nil {
		err = cerr
	}
	p.back = nil
	p.durable = nil
	return err
}
