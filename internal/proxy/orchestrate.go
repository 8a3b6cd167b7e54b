package proxy

import (
	"slice/internal/attr"
	"slice/internal/coord"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// This file implements the operations the µproxy coordinates itself:
// REMOVE and truncating SETATTR (which must clear data on multiple storage
// sites), and COMMIT (which must make a multi-site write set durable).
// Each follows the intention-logging protocol of §3.3.2: declare an
// intention with the coordinator, perform the operation, then send an
// asynchronous completion. If the µproxy dies mid-operation, the
// coordinator times out, probes, and finishes the idempotent tail itself.
// Each runs on the goroutine that delivered its call or reply, under
// orchestrate, as a directory server's handler runs its peer calls.

// caller returns the coord.Caller of the RPCs the µproxy originates for
// span sp: the zero site is the coordinator, any other a data site whose
// call counts as initiated, and each is attributed to sp as a hop of its
// kind.
func (p *Proxy) caller(sp *obs.Span) coord.Caller {
	return func(site netsim.Addr, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
		hop := obs.HopCoord
		if !site.IsZero() {
			hop = p.hopForSite(site)
			p.st.initiated.Add(1)
		}
		return p.obsCall(sp, hop, site, prog, vers, proc, args)
	}
}

// applyAll performs a at every data site of its file under an intention
// logged with size: coord.Apply completes the intention only when every
// site confirmed, and otherwise leaves it to the coordinator's probe. It
// skips the storage nodes when the cached size says the file lies wholly
// below the threshold. id is 0 when no intention was logged (no
// coordinator, or it could not be reached).
func (p *Proxy) applyAll(sp *obs.Span, a coord.Action, size uint64) (id, verf uint64, ok bool) {
	call := p.caller(sp)
	if p.cfg.Coord != nil {
		id = coord.CallIntend(call, a.Op, a.FH, size)
	}
	at, cached := p.attrs.get(a.FH)
	sites := p.cfg.IO.DataSites(a.FH, cached && at.Size < p.cfg.IO.Threshold)
	verf, ok = coord.Apply(call, p.cfg.CapKey, a, sites, func() { coord.CallComplete(call, id) })
	return id, verf, ok
}

// observeAttr folds authoritative attributes into the cache; if the
// insert evicted a dirty entry, its attributes are written back once the
// shard lock is released, so a slow directory server never stalls
// unrelated cache traffic.
func (p *Proxy) observeAttr(fh fhandle.Handle, at attr.Attr) {
	if e, dirty := p.attrs.observe(fh, at); dirty {
		p.orchestrate(func() { p.push(nil, e) })
	}
}

// fetchAttr asks fh's directory server for the file's attributes and
// folds them into the cache. The status is the server's: after a remove,
// ESTALE says the last link went with it.
func (p *Proxy) fetchAttr(sp *obs.Span, fh fhandle.Handle) (nfsproto.Status, error) {
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcGetAttr, FH: fh}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return 0, err
	}
	var res nfsproto.GetAttrRes
	if err := p.nfsCall(sp, obs.HopDirsrv, addr, nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: fh}, &res); err != nil {
		return 0, err
	}
	if res.Status == nfsproto.OK {
		p.observeAttr(fh, res.Attr)
	}
	return res.Status, nil
}

// resolveChild finds the handle bound to (dir, name) with a LOOKUP of the
// µproxy's own to the responsible directory server — every time: a
// binding remembered from earlier traffic can be changed through another
// fleet member without this one seeing it, and a REMOVE orchestrated on a
// stale handle clears the wrong file's data and strands the right one's.
func (p *Proxy) resolveChild(dir fhandle.Handle, name string) (fhandle.Handle, bool) {
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcLookup, FH: dir, Name: name, HasName: true}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return fhandle.Handle{}, false
	}
	var res nfsproto.LookupRes
	if err := p.nfsCall(nil, obs.HopDirsrv, addr, nfsproto.ProcLookup, &nfsproto.LookupArgs{Dir: dir, Name: name}, &res); err != nil {
		return fhandle.Handle{}, false
	}
	if res.Status != nfsproto.OK {
		return fhandle.Handle{}, false
	}
	if res.Attr.Present {
		p.observeAttr(res.FH, res.Attr.Attr)
	}
	return res.FH, true
}

// routeRemove resolves the victim's handle with a LOOKUP of the µproxy's
// own, then forwards REMOVE to the directory server with an onOK hook that
// clears the victim's data across the storage sites under an intention,
// then forgets its soft state. It owns d: every path forwards or frees it.
func (p *Proxy) routeRemove(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	child, known := p.resolveChild(pd.info.FH, pd.info.Name)
	p.skip(&pd.clk) // the LOOKUP's wait is no stage's cost

	// The hook runs before the span is closed, so its RPCs are attributed
	// to the request's span via pd.
	pd.onOK = func() {
		if !known || child.Type == uint8(attr.TypeDir) {
			return
		}
		// Clear data only when the last link went away. The attribute
		// cache is soft state and its link count may be stale (e.g. a
		// LINK the µproxy never saw), so ask the directory server: after
		// a remove, a live attribute cell means other names remain;
		// ESTALE means the file is gone and its data must be cleared.
		if st, err := p.fetchAttr(pd.span, child); err == nil && st == nfsproto.OK {
			return // still linked: keep the data
		}
		p.applyAll(pd.span, coord.Action{Op: coord.OpRemove, FH: child}, 0)
		p.attrs.forget(child)
	}
	return p.forward(d, key, pd)
}

// routeSetAttr forwards SETATTR; truncating updates additionally clear
// data beyond the new size on every data site, under an intention.
func (p *Proxy) routeSetAttr(d []byte, key pendKey, pd *pendingReq) netsim.Verdict {
	var args nfsproto.SetAttrArgs
	if err := args.Decode(xdr.NewDecoder(netsim.Payload(d)[oncrpc.CallHeader:])); err != nil {
		p.dropPending(pd)
		return p.consumeDrop(d)
	}
	if args.Sattr.SetSize {
		fh, size := args.FH, args.Sattr.Size
		pd.onOK = func() {
			p.applyAll(pd.span, coord.Action{Op: coord.OpTruncate, FH: fh, Size: size}, size)
			// The directory server applied the new size itself; an
			// entry the cache holds follows it.
			now := p.wallTime(p.now())
			p.attrs.update(fh, func(e *attrEntry) {
				e.at.Size, e.srvSize = size, size
				e.at.Mtime = now
				e.at.Ctime = now
			})
		}
	}
	return p.forward(d, key, pd)
}

// absorbCommit answers COMMIT without forwarding it: the µproxy pushes the
// file's dirty attributes to the directory server, declares a commit
// intention, commits every involved data site, clears the intention, and
// synthesizes the reply. This is the consistent write commitment of §4.2.
// It owns pd, the call's record, which is never published. The span (nil
// when tracing is off) collects every RPC of the chain and is closed — and
// the absorbed op's end-to-end latency recorded, from the first reading of
// the request's clock — just before the reply is injected, so a client
// that acts on the reply finds both.
func (p *Proxy) absorbCommit(key pendKey, pd *pendingReq) {
	p.settle(&pd.clk, pd.span)
	sp, info := pd.span, &pd.info
	fh := info.FH
	p.pushAttrs(sp, fh)

	id, verf, committed := p.applyAll(sp, coord.Action{
		Op: coord.OpCommit, FH: fh, Offset: info.Offset, Count: info.Count,
	}, uint64(info.Count))
	// Only a fully committed write set clears the intention. A partial
	// commit with a durable intention may still be acknowledged — the
	// coordinator's probe finishes the idempotent commit on every site
	// (§4.2), so the acknowledgement never outruns durability. Without
	// an intention there is no such guarantee: fail the commit so the
	// client retains and retries its uncommitted writes.
	if committed {
		if p.dirty != nil {
			// The commit barrier drained the file's window on every
			// member: whatever over-approximated dirtiness the object
			// accumulated (lost records, partial fan-outs) is resolved,
			// and its reads may spread again.
			p.dirty.ForceClear(fh.Ident())
		}
	}

	res := nfsproto.CommitRes{Status: nfsproto.OK, Verf: verf}
	if !committed && id == 0 {
		res = nfsproto.CommitRes{Status: nfsproto.ErrIO}
	} else if at, ok := p.attrs.get(fh); ok {
		res.Attr = nfsproto.Some(at)
	}
	out, err := oncrpc.BuildReply(p.cfg.Virtual, key.client, key.xid, oncrpc.AcceptSuccess, res.Encode)
	end := p.now()
	if p.hists != nil {
		p.hists.e2e[nfsproto.ProcCommit].Record(uint64(end - pd.clk.start))
	}
	if sp != nil {
		p.tracer.Finish(sp, p.wall0+end)
	}
	putPending(pd)
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.absorbed.Add(1)
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(out)
}

// pushAttrs writes the file's dirty cached attributes back to its
// directory server with SETATTR (§4.1: on commit interception and on
// eviction).
func (p *Proxy) pushAttrs(sp *obs.Span, fh fhandle.Handle) {
	if e, ok := p.attrs.takeDirty(fh); ok && !p.push(sp, e) {
		p.attrs.markDirty(fh)
	}
}

// WritebackAttrs pushes every dirty attribute entry to the directory
// servers. Capacity eviction happens inline at insert time (LRU per
// shard), with dirty evictees written back outside the shard lock; this
// periodic sweep only bounds the drift of entries that stay resident.
// The background flusher calls this at WritebackInterval; tests and the
// commit path call it directly.
func (p *Proxy) WritebackAttrs() {
	for _, e := range p.attrs.allDirty() {
		if !p.push(nil, e) {
			p.attrs.markDirty(e.fh)
		}
	}
}

// push writes one entry's attributes back to its directory server and
// reports whether the server took them. The times always go; the size
// goes only when routed I/O grew the file past what the directory server
// last reported — a write inside the file dirties times alone, so a
// µproxy never pushes a length it did not itself extend.
func (p *Proxy) push(sp *obs.Span, e attrEntry) bool {
	info := nfsproto.RequestInfo{Proc: nfsproto.ProcSetAttr, FH: e.fh}
	addr, err := p.cfg.Names.AddrFor(&info)
	if err != nil {
		return false
	}
	grew := e.at.Size > e.srvSize
	args := nfsproto.SetAttrArgs{FH: e.fh, Sattr: attr.SetAttr{
		SetSize: grew, Size: e.at.Size,
		SetMtime: true, Mtime: e.at.Mtime,
		SetAtime: true, Atime: e.at.Atime,
	}}
	var res nfsproto.SetAttrRes
	if err := p.nfsCall(sp, obs.HopDirsrv, addr, nfsproto.ProcSetAttr, &args, &res); err != nil || res.Status != nfsproto.OK {
		return false
	}
	if grew {
		p.attrs.pushed(e.fh, e.at.Size)
	}
	return true
}
