package storage

import "unsafe"

// copyCold is copy for a destination that is cold in cache: a block just
// taken from the free list (ObjectStore.claim). A store to a line that is
// not in cache first reads it from memory (read-for-ownership) only to
// overwrite it; copyNT's streaming stores skip that read. Below coldCopyMin bytes plain copy runs. Above
// it, copy takes the head up to dst's first 16-byte boundary and the tail
// past the last whole 64-byte step, and copyNT the rest (through
// copyStream, which shows it to the race detector).
func copyCold(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n < coldCopyMin {
		return copy(dst, src)
	}
	dst, src = dst[:n], src[:n]
	h := int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst))) & 15)
	end := h + (n-h)&^63
	copy(dst[:h], src)
	copyStream(dst[h:end], src[h:end])
	copy(dst[end:], src[end:])
	return n
}

//go:noescape
func copyNT(dst, src []byte)
