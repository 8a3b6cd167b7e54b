package storage

// coldCopyMin is the shortest write copyCold hands to the streaming
// kernel: the first power of two past the measured crossover, below which
// the SFENCE that ends every call (a drain of the write-combining buffers
// to memory, ≈ 200 ns) costs more than the read-for-ownership misses the
// kernel saves. Copying into one 8 KiB block picked at random from a
// 512 MiB arena on a 2.1 GHz Xeon, median of five: 768 B take 187 ns by
// copy and 265 ns by the kernel, 896 B 271 and 276, 1 KiB 318 and 269,
// 1.5 KiB 410 and 300. A whole block, what a bulk write puts into every
// block it claims, is far past it.
const coldCopyMin = 1024
