package proxy

import (
	"time"

	"slice/internal/attr"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// handleResponse pairs a server reply with its pending record, harvests
// and patches attributes, restores the virtual server as the source, and
// forwards the reply to the client. It runs inline on the sender's
// goroutine; only responses with an orchestration hook (which issues
// blocking RPCs) are finished on a helper goroutine.
func (p *Proxy) handleResponse(d []byte, key pendKey) netsim.Verdict {
	t0 := time.Now()
	h, err := netsim.Parse(d)
	if err != nil {
		return p.consumeDrop(d)
	}
	rep, err := oncrpc.ParseReply(netsim.Payload(d))
	if err != nil {
		return p.consumeDrop(d)
	}
	s := p.shardFor(key)
	s.mu.Lock()
	pd := s.pend[key]
	if pd == nil {
		s.mu.Unlock()
		// Soft state was lost (or a duplicate reply). For a single-site
		// request the server's answer IS the virtual server's answer, so
		// let it through untouched — the client's RPC layer matches by
		// xid, or ignores. Not so over a replicated array: a WRITE fans
		// out to the whole group, and one member's stray reply must not
		// ack the client as if every replica applied it (the other
		// members would silently diverge). Drop it instead; the client's
		// retransmission rebuilds the record — and re-marks the dirty
		// set — with a full fan-out.
		if p.dirty != nil {
			if g, ok := p.cfg.IO.Replicas.MemberOf(h.Src); ok && len(g.Members) > 1 {
				return p.consumeDrop(d)
			}
		}
		return netsim.Pass
	}
	if len(pd.targets) > 1 {
		// Mirrored fan-out: count each replica once, even when
		// retransmissions made it reply several times.
		if pd.replied == nil {
			pd.replied = make(map[netsim.Addr]bool, len(pd.targets))
		}
		if pd.replied[h.Src] {
			s.mu.Unlock()
			netsim.FreeBuf(d)
			return netsim.Consumed
		}
		pd.replied[h.Src] = true
	}
	pd.expect--
	if pd.expect > 0 {
		// A mirrored write still awaiting replicas. Remember the first
		// failure so the client sees the worst outcome.
		if rep.Accept == oncrpc.AcceptSuccess && replyStatus(pd.proc, rep.Body) != nfsproto.OK && pd.errReply == nil {
			pd.errReply = append([]byte(nil), rep.Body...)
		}
		s.mu.Unlock()
		p.st.softStateNS.Add(uint64(time.Since(t0)))
		netsim.FreeBuf(d)
		return netsim.Consumed
	}
	delete(s.pend, key)
	s.mu.Unlock()
	// The record is now exclusively owned by this goroutine: lookups and
	// deletion are serialized by the shard lock.
	p.st.softStateNS.Add(uint64(time.Since(t0)))

	// Attribute the forwarded hop now that its last reply arrived; the
	// reply trailer, when the server appended one, splits out its
	// handler time.
	p.recordHop(pd, rep.Body)

	if pd.errReply != nil {
		rep.Body = pd.errReply
	}

	if rep.Accept == oncrpc.AcceptSuccess && pd.onOK != nil &&
		replyStatus(pd.proc, rep.Body) == nfsproto.OK {
		// The hook blocks on µproxy-originated RPCs; run it (and the
		// forwarding that must follow it) off the sender's goroutine.
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			pd.onOK()
			p.finishResponse(d, key, pd, rep)
		}()
		return netsim.Consumed
	}
	p.finishResponse(d, key, pd, rep)
	return netsim.Consumed
}

// settleReplica retires a completed request's replica bookkeeping: a
// spread read releases its load slot; a fanned-out write clears its
// dirty mark only when every replica acknowledged success. A failed or
// partial fan-out leaves the object dirty — the safe over-approximation:
// its reads pin to the primary until a retransmission completes the
// fan-out or a COMMIT barrier force-clears the entry.
func (p *Proxy) settleReplica(pd *pendingReq, rep oncrpc.Reply) {
	if slot := int(pd.readSlot) - 1; slot >= 0 && slot < len(p.loads) {
		p.loads[slot].Add(-1)
	}
	if !pd.dirtyMark {
		return
	}
	// rep.Body already holds the worst outcome (errReply) of the fan-out.
	if rep.Accept == oncrpc.AcceptSuccess && replyStatus(pd.proc, rep.Body) == nfsproto.OK {
		p.dirty.ClearWrite(pd.dirtyKey)
	}
}

// finishResponse dispatches a fully-paired reply to its per-procedure
// handler, then recycles the pending record.
func (p *Proxy) finishResponse(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	if p.dirty != nil {
		p.settleReplica(pd, rep)
	}
	if pd.prog != nfsproto.Program || rep.Accept != oncrpc.AcceptSuccess {
		p.passThrough(d)
	} else {
		switch pd.proc {
		case nfsproto.ProcRead, nfsproto.ProcWrite:
			p.respondIO(d, key, pd, rep)
		case nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir, nfsproto.ProcSymlink:
			p.respondChild(d, key, pd, rep)
		case nfsproto.ProcGetAttr:
			p.respondGetAttr(d, key, pd, rep)
		case nfsproto.ProcLink:
			// Harvest the updated link count: the remove orchestration's
			// fast path depends on the cache tracking links it routed.
			var res nfsproto.LinkRes
			if err := res.Decode(xdr.NewDecoder(rep.Body)); err == nil && res.Status == nfsproto.OK {
				if res.Attr.Present {
					p.observeAttr(pd.info.FH, res.Attr.Attr)
				}
				if pd.info.HasName2 {
					p.names.put(pd.info.FH2, pd.info.Name2, pd.info.FH)
				}
			}
			p.passThrough(d)
		case nfsproto.ProcRename:
			p.names.drop(pd.info.FH, pd.info.Name)
			if pd.info.HasName2 {
				p.names.drop(pd.info.FH2, pd.info.Name2)
			}
			p.passThrough(d)
		case nfsproto.ProcRmdir:
			p.names.drop(pd.info.FH, pd.info.Name)
			p.passThrough(d)
		default:
			p.passThrough(d)
		}
	}
	p.endObs(pd)
	putPending(pd)
}

// replyStatus peeks at the leading NFS status of a reply body.
func replyStatus(proc nfsproto.Proc, body []byte) nfsproto.Status {
	if proc == nfsproto.ProcNull {
		return nfsproto.OK
	}
	d := xdr.NewDecoder(body)
	st, err := d.Uint32()
	if err != nil {
		return nfsproto.ErrServerFault
	}
	return nfsproto.Status(st)
}

// passThrough restores the virtual server address as the packet source
// with an incremental checksum fix, and delivers it to the client.
// Ownership of d transfers to the network.
func (p *Proxy) passThrough(d []byte) {
	t0 := time.Now()
	netsim.RewriteSrc(d, p.cfg.Virtual)
	p.st.rewriteNS.Add(uint64(time.Since(t0)))
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(d)
}

// respondIO patches a complete attribute set into a storage-node or
// small-file-server reply and updates the attribute cache to reflect the
// I/O (§4.1). A READ reply arrives with a placeholder attribute block in
// place, so the cached attributes and the corrected EOF flag are written
// over it in the received datagram (patchRead). Everything else is
// re-encoded, because the optional attribute block changes the body
// length: WRITE replies, which carry none, and READ replies the µproxy
// holds no attributes for, whose placeholder must be cut out.
func (p *Proxy) respondIO(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	t0 := time.Now()
	fh := pd.info.FH
	now := attr.FromGo(t0)

	var body func(*xdr.Encoder)
	switch pd.proc {
	case nfsproto.ProcRead:
		// Only a successful read is an access, and only to a file whose
		// attributes are cached: see attrCache.access. What follows the
		// READ result in the body is nothing or the server's trace trailer
		// and is known by its length, never by the trailer's magic alone
		// (file data may end in those bytes); any other shape is re-encoded.
		if count, end, patchable := nfsproto.PeekReadRes(rep.Body); patchable {
			trailer := len(rep.Body) - end
			if trailer == oncrpc.ReplyTraceLen {
				_, _, patchable = oncrpc.PeekReplyTrace(rep.Body)
			} else {
				patchable = trailer == 0
			}
			if patchable {
				if at, ok := p.attrs.access(fh, now); ok {
					p.st.softStateNS.Add(uint64(time.Since(t0)))
					p.patchRead(d, pd, trailer, &at, pd.info.Offset+uint64(count) >= at.Size)
					return
				}
			}
		}
		var res nfsproto.ReadRes
		if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
			p.st.dropped.Add(1)
			netsim.FreeBuf(d)
			return
		}
		// The data server's attributes are its local view of one object,
		// never the file's: they stop here.
		res.Attr = nfsproto.OptAttr{}
		at, ok := p.attrs.get(fh)
		if !ok && res.Status == nfsproto.OK && res.EOF {
			// EOF from a storage or small-file server reflects only its
			// local region of a striped file; with no cached size to
			// correct against (soft state was lost), fetch authoritative
			// attributes rather than surface a false EOF mid-file.
			var ga nfsproto.GetAttrRes
			gaInfo := nfsproto.RequestInfo{Proc: nfsproto.ProcGetAttr, FH: fh}
			if addr, err := p.cfg.Names.AddrFor(&gaInfo); err == nil {
				if err := p.nfsCall(pd.span, obs.HopDirsrv, addr, nfsproto.ProcGetAttr, &nfsproto.GetAttrArgs{FH: fh}, &ga); err == nil && ga.Status == nfsproto.OK {
					p.observeAttr(fh, ga.Attr)
					at, ok = p.attrs.get(fh)
				}
			}
		}
		if ok {
			res.Attr = nfsproto.Some(at)
			// EOF from a data server reflects only its local object;
			// correct it against the authoritative size.
			if res.Status == nfsproto.OK {
				res.EOF = pd.info.Offset+uint64(res.Count) >= at.Size
			}
		}
		body = res.Encode

	case nfsproto.ProcWrite:
		var res nfsproto.WriteRes
		if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
			p.st.dropped.Add(1)
			netsim.FreeBuf(d)
			return
		}
		if res.Status == nfsproto.OK {
			end := pd.info.Offset + uint64(res.Count)
			p.updateAttr(fh, func(a *attr.Attr) {
				if end > a.Size {
					a.Size = end
					a.Used = (end + 8191) &^ 8191
				}
				a.Mtime = now
				a.Ctime = now
			})
		}
		if at, ok := p.attrs.get(fh); ok {
			res.Attr = nfsproto.Some(at)
		}
		body = res.Encode

	default:
		p.passThrough(d)
		return
	}
	p.st.softStateNS.Add(uint64(time.Since(t0)))
	p.respondEncoded(key, body)
	netsim.FreeBuf(d)
}

// patchRead turns a data server's READ reply into the virtual server's
// without touching the data: it overwrites the placeholder attribute
// block with at and sets the EOF flag in the received datagram, cuts off
// the trailer bytes the server's trace trailer occupies after the READ
// result (0 when it sent none), restores the virtual server as the source —
// each with a differential checksum repair, so the cost follows the ~100
// bytes changed, not the 32 KiB carried — and injects the same buffer.
// The result is byte for byte the datagram a decode, re-encode and Build
// would have produced. Ownership of d transfers to the network.
func (p *Proxy) patchRead(d []byte, pd *pendingReq, trailer int, at *attr.Attr, eof bool) {
	t0 := time.Now()
	const body = netsim.HeaderSize + oncrpc.ReplyHeader
	if trailer > 0 {
		d, _ = netsim.TrimTail(d, trailer) // cannot fail: respondIO measured it inside the body
	}
	at.Encode(xdr.NewEncoderBuf(pd.attrBuf[:0]))
	var eofWord [4]byte
	if eof {
		eofWord[3] = 1
	}
	// The offsets are even and inside the body PeekReadRes validated.
	_ = netsim.RewriteBytes(d, body+nfsproto.ReadResAttrOff, pd.attrBuf[:])
	_ = netsim.RewriteBytes(d, body+nfsproto.ReadResEOFOff, eofWord[:])
	netsim.RewriteSrc(d, p.cfg.Virtual)
	p.st.rewriteNS.Add(uint64(time.Since(t0)))
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(d)
}

// respondChild harvests the (name → handle) binding and child attributes
// from LOOKUP/CREATE/MKDIR replies, then forwards the reply with the
// child's attributes patched from the (possibly fresher) attribute cache:
// the µproxy's view of size and timestamps reflects I/O the directory
// server has not yet seen (§4.1). LookupRes and CreateRes share a wire
// layout, so one decode path serves all three procedures.
func (p *Proxy) respondChild(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	t0 := time.Now()
	var res nfsproto.LookupRes
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		p.st.dropped.Add(1)
		netsim.FreeBuf(d)
		return
	}
	if res.Status != nfsproto.OK {
		p.st.softStateNS.Add(uint64(time.Since(t0)))
		p.passThrough(d)
		return
	}
	if pd.info.HasName {
		p.names.put(pd.info.FH, pd.info.Name, res.FH)
	}
	if res.Attr.Present {
		p.observeAttr(res.FH, res.Attr.Attr)
	}
	if res.DirAttr.Present {
		p.observeAttr(pd.info.FH, res.DirAttr.Attr)
	}
	if at, ok := p.attrs.get(res.FH); ok {
		res.Attr = nfsproto.Some(at)
	}
	p.st.softStateNS.Add(uint64(time.Since(t0)))
	p.respondEncoded(key, res.Encode)
	netsim.FreeBuf(d)
}

// respondGetAttr folds a GETATTR reply into the attribute cache, then
// answers the client with the merged attributes (local dirty size/mtime
// win over the directory server's stale view).
func (p *Proxy) respondGetAttr(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	t0 := time.Now()
	var res nfsproto.GetAttrRes
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		p.st.dropped.Add(1)
		netsim.FreeBuf(d)
		return
	}
	if res.Status != nfsproto.OK {
		p.st.softStateNS.Add(uint64(time.Since(t0)))
		p.passThrough(d)
		return
	}
	p.observeAttr(pd.info.FH, res.Attr)
	if at, ok := p.attrs.get(pd.info.FH); ok {
		res.Attr = at
	}
	p.st.softStateNS.Add(uint64(time.Since(t0)))
	p.respondEncoded(key, res.Encode)
	netsim.FreeBuf(d)
}

// respondEncoded builds a fresh reply datagram from the virtual server to
// the client and injects it.
func (p *Proxy) respondEncoded(key pendKey, body func(*xdr.Encoder)) {
	t1 := time.Now()
	payload := oncrpc.EncodeReply(key.xid, oncrpc.AcceptSuccess, body)
	out, err := netsim.Build(p.cfg.Virtual, key.client, payload)
	p.st.rewriteNS.Add(uint64(time.Since(t1)))
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(out)
}
