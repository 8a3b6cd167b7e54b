//go:build amd64 && !race

package storage

// copyStream is copyNT: without the race detector there is nothing to
// report (copy_race.go).
func copyStream(dst, src []byte) { copyNT(dst, src) }
