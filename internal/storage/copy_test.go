package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestCopyColdMatchesCopy holds copyCold to copy at every destination
// alignment 0‥63 from a 64-byte boundary and at the lengths where its
// split changes: none, short of a 16-byte head, short of one 64-byte
// step, one step, either side of coldCopyMin, a whole block and a block
// with an odd tail. Guard bytes on both sides of the destination catch a
// store past either end.
func TestCopyColdMatchesCopy(t *testing.T) {
	const guard = 64
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, BlockSize+64+5)
	rng.Read(src)
	buf := make([]byte, guard+64+BlockSize+guard)
	// base is the first 64-byte boundary past the leading guard.
	base := guard + int(-uintptr(unsafe.Pointer(&buf[guard]))&63)
	for _, n := range []int{0, 1, 15, 63, 64, coldCopyMin - 1, coldCopyMin, coldCopyMin + 1, BlockSize, BlockSize - 37} {
		for align := 0; align < 64; align++ {
			for i := range buf {
				buf[i] = 0xEE
			}
			so := (align * 7) % 64 // the source's alignment varies too
			dst := buf[base+align : base+align+n]
			if got := copyCold(dst, src[so:so+n+5]); got != n {
				t.Fatalf("n=%d align=%d: copied %d bytes", n, align, got)
			}
			if !bytes.Equal(dst, src[so:so+n]) {
				t.Fatalf("n=%d align=%d: destination differs from the source", n, align)
			}
			for i, b := range buf {
				if (i < base+align || i >= base+align+n) && b != 0xEE {
					t.Fatalf("n=%d align=%d: guard byte at %d overwritten", n, align, i-(base+align))
				}
			}
		}
	}
	// A shorter source bounds the copy, as it bounds copy.
	dst := make([]byte, BlockSize)
	if got := copyCold(dst, src[:coldCopyMin+3]); got != coldCopyMin+3 {
		t.Fatalf("copied %d bytes from a %d-byte source", got, coldCopyMin+3)
	}
}

// TestConcurrentRecycledWrites: goroutines sharing one store write, read
// back and remove objects of their own, so each claims blocks another one
// last wrote and fills them through copyCold. Every read must see its own
// writer's bytes, and under -race the kernel's reported reads and writes
// (copy_race.go) must order with the store's mutex like any other access.
func TestConcurrentRecycledWrites(t *testing.T) {
	const (
		writers = 4
		rounds  = 50
		size    = 4 * BlockSize
	)
	s := NewObjectStore()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(w + 1)}, size)
			got := make([]byte, size)
			for r := 0; r < rounds; r++ {
				id := ObjectID(w*rounds + r + 1)
				if err := s.WriteAt(id, 3, p, false); err != nil {
					t.Error(err)
					return
				}
				s.Commit(id)
				if n, _, err := s.ReadAt(id, 3, got); err != nil || n != size || !bytes.Equal(got, p) {
					t.Errorf("writer %d round %d: read %d, %v, or bytes not its own", w, r, n, err)
					return
				}
				s.Remove(id)
			}
		}(w)
	}
	wg.Wait()
}
