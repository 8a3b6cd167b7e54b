package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// modelObject is an independent restatement of the storage-object
// durability spec: content at byte granularity, durability at block
// granularity (NFS V3 unstable-write semantics).
type modelObject struct {
	data    []byte
	durable map[int]bool // block index -> survives a crash
	size    int
}

func newModelObject() *modelObject {
	return &modelObject{durable: make(map[int]bool)}
}

func (m *modelObject) extend(n int) {
	if len(m.data) < n {
		m.data = append(m.data, make([]byte, n-len(m.data))...)
	}
}

func (m *modelObject) write(off int, p []byte, stable bool) {
	m.extend(off + len(p))
	copy(m.data[off:], p)
	for b := off / BlockSize; b <= (off+len(p)-1)/BlockSize; b++ {
		m.durable[b] = stable
	}
	if off+len(p) > m.size {
		m.size = off + len(p)
	}
}

func (m *modelObject) commit() {
	for b := range m.durable {
		m.durable[b] = true
	}
}

func (m *modelObject) truncate(size int) {
	if size < m.size {
		lastBlock := (size + BlockSize - 1) / BlockSize
		for b := range m.durable {
			if b >= lastBlock {
				delete(m.durable, b)
			}
		}
		// Dropped blocks and the zeroed tail of the kept partial block
		// both read as zero afterwards, even if the object regrows.
		for i := size; i < len(m.data); i++ {
			m.data[i] = 0
		}
	}
	m.size = size
	m.extend(size)
}

func (m *modelObject) crash() {
	maxEnd := 0
	for b, d := range m.durable {
		if !d {
			// Volatile block: contents lost, reads as a hole.
			m.extend((b + 1) * BlockSize)
			for i := b * BlockSize; i < (b+1)*BlockSize; i++ {
				m.data[i] = 0
			}
			delete(m.durable, b)
			continue
		}
		if end := (b + 1) * BlockSize; end > maxEnd {
			maxEnd = end
		}
	}
	if m.size > maxEnd {
		m.size = maxEnd
	}
}

// read returns the expected bytes and EOF flag for a read at off.
func (m *modelObject) read(off, n int) ([]byte, bool) {
	if off >= m.size {
		return nil, true
	}
	if off+n > m.size {
		n = m.size - off
	}
	m.extend(off + n)
	return m.data[off : off+n], off+n >= m.size
}

// TestObjectStoreOracle drives the object store with random operations
// mirrored against the model, including crash/commit semantics.
func TestObjectStoreOracle(t *testing.T) {
	for _, seed := range []int64{1, 42, 777, 90210} {
		rng := rand.New(rand.NewSource(seed))
		s := NewObjectStore()
		const objects = 4
		models := make(map[ObjectID]*modelObject)

		var trace []string
		logf := func(format string, args ...interface{}) {
			trace = append(trace, fmt.Sprintf(format, args...))
			if len(trace) > 40 {
				trace = trace[1:]
			}
		}
		fail := func(format string, args ...interface{}) {
			t.Fatalf("%s\ntrace:\n  %s", fmt.Sprintf(format, args...), strings.Join(trace, "\n  "))
		}
		for step := 0; step < 16000; step++ {
			id := ObjectID(rng.Intn(objects) + 1)
			m := models[id]
			switch rng.Intn(12) {
			case 0, 1, 2, 3: // write
				off := rng.Intn(4 * BlockSize)
				n := rng.Intn(2*BlockSize) + 1
				data := make([]byte, n)
				rng.Read(data)
				stable := rng.Intn(3) == 0
				logf("step %d: write id=%d off=%d n=%d stable=%v", step, id, off, n, stable)
				if err := s.WriteAt(id, int64(off), data, stable); err != nil {
					t.Fatalf("seed %d step %d write: %v", seed, step, err)
				}
				if m == nil {
					m = newModelObject()
					models[id] = m
				}
				m.write(off, data, stable)
				// Every block the write touched, whole: a claimed block
				// carries another object's bytes wherever the store
				// failed to clear it, and a read of the written range
				// alone would never see them.
				lo := off / BlockSize * BlockSize
				hi := (off + n + BlockSize - 1) / BlockSize * BlockSize
				buf := make([]byte, hi-lo)
				got, _, err := s.ReadAt(id, int64(lo), buf)
				if err != nil {
					t.Fatalf("seed %d step %d read-back: %v", seed, step, err)
				}
				if want, _ := m.read(lo, hi-lo); !bytes.Equal(buf[:got], want) {
					fail("seed %d step %d: blocks [%d,%d) differ from the model after the write", seed, step, lo, hi)
				}

			case 4, 5, 6, 7: // read and compare
				if m == nil {
					if _, _, err := s.ReadAt(id, 0, make([]byte, 8)); err == nil {
						t.Fatalf("seed %d step %d: read of missing object succeeded", seed, step)
					}
					continue
				}
				off := rng.Intn(m.size + 10)
				buf := make([]byte, rng.Intn(BlockSize)+1)
				n, eof, err := s.ReadAt(id, int64(off), buf)
				if err != nil {
					t.Fatalf("seed %d step %d read: %v", seed, step, err)
				}
				want, wantEOF := m.read(off, len(buf))
				if n != len(want) {
					t.Fatalf("seed %d step %d: read %d bytes at %d, want %d (size %d)",
						seed, step, n, off, len(want), m.size)
				}
				if !bytes.Equal(buf[:n], want) {
					fail("seed %d step %d: content mismatch at %d id %d", seed, step, off, id)
				}
				if eof != wantEOF {
					t.Fatalf("seed %d step %d: eof=%v want %v", seed, step, eof, wantEOF)
				}

			case 8: // commit
				logf("step %d: commit id=%d", step, id)
				s.Commit(id)
				if m != nil {
					m.commit()
				}

			case 9: // truncate
				if m == nil {
					continue
				}
				size := rng.Intn(m.size + BlockSize)
				logf("step %d: truncate id=%d size=%d", step, id, size)
				if err := s.Truncate(id, int64(size)); err != nil {
					t.Fatal(err)
				}
				m.truncate(size)

			case 10: // remove
				logf("step %d: remove id=%d", step, id)
				s.Remove(id)
				delete(models, id)

			case 11: // crash
				logf("step %d: crash", step)
				s.Crash()
				for _, mm := range models {
					mm.crash()
				}
			}
			if len(s.free) > maxFreeBlocks {
				t.Fatalf("seed %d step %d: free list holds %d blocks, bound %d", seed, step, len(s.free), maxFreeBlocks)
			}
			// Sizes must agree continuously.
			if m = models[id]; m != nil {
				if size, ok := s.Size(id); !ok || int(size) != m.size {
					t.Fatalf("seed %d step %d: size %d (ok=%v), model %d",
						seed, step, size, ok, m.size)
				}
			}
		}
	}
}
