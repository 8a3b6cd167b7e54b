//go:build !amd64

package storage

// copyCold is plain copy off amd64: there is no streaming-store kernel.
func copyCold(dst, src []byte) int { return copy(dst, src) }

// storeFence is a no-op: plain copies need no fence.
func storeFence() {}
