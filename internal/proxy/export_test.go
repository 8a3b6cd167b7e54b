package proxy

// SpreadReadsInFlight is the sum of the read-load counters: spread reads
// this µproxy has charged to a replica member and not yet released.
func (p *Proxy) SpreadReadsInFlight() int64 {
	var n int64
	for i := range p.loads {
		n += p.loads[i].Load()
	}
	return n
}
