//go:build !amd64

package checksum

// haveAVX2 is false off amd64: Sum runs the portable loop alone.
const haveAVX2 = false

// sumBlocksAVX2 is never called off amd64.
func sumBlocksAVX2(p []byte) uint64 { panic("checksum: no vector kernel on this architecture") }
