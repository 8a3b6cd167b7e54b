//go:build amd64 && race

package storage

import (
	"runtime"
	"unsafe"
)

// copyStream runs copyNT with its reads and writes reported to the race
// detector, which cannot see the loads and stores of an assembly body.
func copyStream(dst, src []byte) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(src)), len(dst))
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(dst)), len(dst))
	copyNT(dst, src)
}
