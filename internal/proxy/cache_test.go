package proxy

import (
	"sync"
	"testing"

	"slice/internal/attr"
	"slice/internal/fhandle"
)

// TestDrainNeverLosesAnUpdate: soft-state loss (drain) racing I/O
// completions (update). Every update the cache accepted must come out in
// some drain's entries or still be resident at the end — never neither,
// which is what a write-back followed by a separate clear allowed: a
// size recorded between the two went down with the cleared map.
func TestDrainNeverLosesAnUpdate(t *testing.T) {
	const files, writers, writes = 8, 4, 2000
	c := newAttrCache()
	handle := func(f int) fhandle.Handle {
		return fhandle.Handle{Volume: 1, FileID: uint64(100 + f), Gen: 1, Type: uint8(attr.TypeReg)}
	}

	// Each writer grows its own files' sizes through a sequence of sizes;
	// applied[w][f] is the largest size the cache accepted from it. On a
	// miss it does what the WRITE-reply path does: re-observes (here a
	// size-0 file, so nothing but its own updates can raise the size) and
	// tries again.
	var applied [writers][files]uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				f := i % files
				fh := handle(f*writers + w)
				size := uint64(i)
				for !c.update(fh, func(e *attrEntry) { e.at.Size = size }) {
					c.observe(fh, attr.Attr{Type: attr.TypeReg, FileID: fh.FileID})
				}
				applied[w][f] = size
			}
		}(w)
	}

	// The drainer loses the soft state over and over, keeping the largest
	// size it was handed for each file.
	drained := make(map[uint64]uint64)
	keep := func(entries []attrEntry) {
		for _, e := range entries {
			if e.at.Size > drained[e.fh.FileID] {
				drained[e.fh.FileID] = e.at.Size
			}
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		keep(c.drain())
	}
	keep(c.drain()) // whatever is still resident

	for w := 0; w < writers; w++ {
		for f := 0; f < files; f++ {
			fh := handle(f*writers + w)
			if got, want := drained[fh.FileID], applied[w][f]; got != want {
				t.Errorf("file %d: the cache accepted size %d, its drains surfaced at most %d", fh.FileID, want, got)
			}
		}
	}
}
