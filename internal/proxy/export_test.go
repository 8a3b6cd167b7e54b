package proxy

import (
	"slice/internal/attr"
	"slice/internal/fhandle"
)

// AttrShardCap is how many entries one attribute-cache shard holds.
const AttrShardCap = attrShardCap

// ObserveAttr folds at into the attribute cache as a directory server's
// reply does, writing back a dirty entry the insert evicts.
func (p *Proxy) ObserveAttr(fh fhandle.Handle, at attr.Attr) { p.observeAttr(fh, at) }

// ShardMates returns n handles, fh's but for their FileIDs, that share
// fh's attribute-cache shard.
func ShardMates(fh fhandle.Handle, n int) []fhandle.Handle {
	var mates []fhandle.Handle
	for h := fh; len(mates) < n; {
		h.FileID++
		if shardIndex(keyHash(h.Ident())) == shardIndex(keyHash(fh.Ident())) {
			mates = append(mates, h)
		}
	}
	return mates
}

// Closing reports whether Close has begun.
func (p *Proxy) Closing() bool { return p.orchestrating.Load()&closing != 0 }
