package proxy

import (
	"slices"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// handleResponse pairs a server reply with its pending record, harvests
// and patches attributes, restores the virtual server as the source, and
// forwards the reply to the client, all on the sender's goroutine — an
// orchestration hook's RPCs included. A reply counts toward its record
// only when its source is on the path the record was last armed for, and
// once per server; the record completes when every server on that path
// has replied. clk is the reply's clock, started
// when Handle took it off the fabric; verify is false when the record
// Handle probed is a READ's, whose reply only patchRead edits (or, if it
// cannot, respondIO verifies before re-encoding).
func (p *Proxy) handleResponse(d []byte, key pendKey, clk lapClock, verify bool) netsim.Verdict {
	parse := netsim.ParseHeader
	if verify {
		parse = netsim.Parse
	}
	h, err := parse(d)
	if err != nil {
		return p.consumeDrop(d)
	}
	rep, err := oncrpc.ParseReply(netsim.Payload(d))
	if err != nil {
		return p.consumeDrop(d)
	}
	p.lap(&clk, stDecode)
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
		p.lap(&clk, stSoftState)
		p.settle(&clk, nil)
		if p.dirty != nil {
			if g, ok := p.cfg.IO.Replicas.MemberOf(h.Src); ok && len(g.Members) > 1 {
				return p.consumeDrop(d)
			}
		}
		return netsim.Pass
	}
	if !verify && !pd.clientVerifies() {
		// The record changed since Handle probed it: verify after all.
		s.mu.Unlock()
		return p.handleResponse(d, key, clk, true)
	}
	// A server a re-route took off the path (a shrink, a transition's
	// commit, a spread read sent elsewhere) must not stand in for the
	// path's own reply, and a retransmission makes a server replay its
	// reply: neither counts.
	i := slices.Index(pd.targets, h.Src)
	if i < 0 || pd.heard&(1<<i) != 0 {
		s.mu.Unlock()
		p.lap(&clk, stSoftState)
		p.settle(&clk, nil)
		return p.consumeDrop(d)
	}
	pd.heard |= 1 << i
	if pd.heard != 1<<len(pd.targets)-1 {
		// A fanned-out write still awaiting targets. Remember the first
		// failure so the client sees the worst outcome.
		if rep.Accept == oncrpc.AcceptSuccess && replyStatus(pd.proc, rep.Body) != nfsproto.OK && pd.errReply == nil {
			pd.errReply = append([]byte(nil), rep.Body...)
		}
		s.mu.Unlock()
		p.lap(&clk, stSoftState)
		p.settle(&clk, nil)
		netsim.FreeBuf(d)
		return netsim.Consumed
	}
	delete(s.pend, key)
	s.mu.Unlock()
	// The record is now exclusively owned by this goroutine: lookups and
	// deletion are serialized by the shard lock. Its last reply arrived
	// when that reply's clock started, which ends the forwarded hop (its
	// header splits out the server's time); from here the request's clock
	// runs on the reply's readings.
	p.recordHop(pd, clk.start, rep.ServerNS)
	clk.start = pd.clk.start
	pd.clk = clk

	if pd.errReply != nil {
		rep.Body = pd.errReply
	}

	if rep.Accept == oncrpc.AcceptSuccess && pd.onOK != nil &&
		replyStatus(pd.proc, rep.Body) == nfsproto.OK {
		// The hook blocks on µproxy-originated RPCs, and its waiting is no
		// stage's cost: the clock skips it. Once Close has begun the reply
		// goes unanswered, as a crashed µproxy's would.
		p.lap(&pd.clk, stSoftState)
		if !p.orchestrate(func() {
			pd.onOK()
			p.skip(&pd.clk)
			p.finishResponse(d, key, pd, rep)
		}) {
			p.dropPending(pd)
			return p.consumeDrop(d)
		}
		return netsim.Consumed
	}
	p.finishResponse(d, key, pd, rep)
	return netsim.Consumed
}

// clientVerifies reports whether pd's reply is left for the client's Recv
// to verify: a READ's, which patchRead edits only differentially (and
// respondIO verifies before it re-encodes one it cannot patch). Every
// other reply is verified on arrival, before the µproxy re-encodes it,
// harvests attributes from it or counts its source.
func (pd *pendingReq) clientVerifies() bool {
	return pd.prog == nfsproto.Program && pd.proc == nfsproto.ProcRead
}

// settleReplica retires a request's replica bookkeeping: a fanned-out
// write clears its dirty mark only when every replica acknowledged
// success. A failed or partial fan-out leaves the object dirty — the safe
// over-approximation: its reads pin to the primary until a retransmission
// completes the fan-out or a COMMIT barrier force-clears the entry. A nil
// rep is a discarded record's, whose write no member accepted: its mark
// goes.
func (p *Proxy) settleReplica(pd *pendingReq, rep *oncrpc.Reply) {
	if !pd.dirtyMark {
		return
	}
	// rep.Body already holds the worst outcome (errReply) of the fan-out.
	if rep == nil || rep.Accept == oncrpc.AcceptSuccess && replyStatus(pd.proc, rep.Body) == nfsproto.OK {
		p.dirty.ClearWrite(pd.dirtyKey)
	}
}

// finishResponse dispatches a fully-paired reply to its per-procedure
// handler, then recycles the pending record.
func (p *Proxy) finishResponse(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	if p.dirty != nil {
		p.settleReplica(pd, &rep)
	}
	if pd.prog != nfsproto.Program || rep.Accept != oncrpc.AcceptSuccess {
		p.passThrough(d, pd)
	} else {
		switch pd.proc {
		case nfsproto.ProcRead, nfsproto.ProcWrite:
			p.respondIO(d, key, pd, rep)
		case nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir, nfsproto.ProcSymlink:
			p.respondChild(d, key, pd, rep)
		case nfsproto.ProcGetAttr:
			p.respondGetAttr(d, key, pd, rep)
		case nfsproto.ProcLink:
			// Harvest the updated link count.
			var res nfsproto.LinkRes
			if err := res.Decode(xdr.NewDecoder(rep.Body)); err == nil && res.Status == nfsproto.OK && res.Attr.Present {
				p.observeAttr(pd.info.FH, res.Attr.Attr)
			}
			p.passThrough(d, pd)
		default:
			p.passThrough(d, pd)
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
// with an incremental checksum fix, and delivers it to the client. The
// restore — six bytes and a checksum delta — closes the reply's soft-state
// lap rather than a rewrite lap of its own (see lapClock). Ownership of d
// transfers to the network.
func (p *Proxy) passThrough(d []byte, pd *pendingReq) {
	netsim.RewriteSrc(d, p.cfg.Virtual)
	p.lap(&pd.clk, stSoftState)
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
	fh := pd.info.FH
	now := p.wallTime(pd.clk.last)

	var body func(*xdr.Encoder)
	switch pd.proc {
	case nfsproto.ProcRead:
		// Only a successful read is an access, and only to a file whose
		// attributes are cached: see attrCache. Any shape but the fixed
		// one is re-encoded.
		if count, ok := nfsproto.PeekReadRes(rep.Body); ok {
			if at, ok := p.attrs.access(fh, now); ok {
				p.lap(&pd.clk, stSoftState)
				p.patchRead(d, pd, &at, pd.info.Offset+uint64(count) >= at.Size)
				return
			}
		}
		// The bytes are about to go into a fresh datagram, whose new
		// checksum would launder any corruption: verify them first.
		if !netsim.VerifyChecksum(d) {
			p.st.dropped.Add(1)
			netsim.FreeBuf(d)
			return
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
			if st, err := p.fetchFor(pd, fh); err == nil && st == nfsproto.OK {
				at, ok = p.attrs.get(fh)
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
			wrote := func(e *attrEntry) {
				if end > e.at.Size {
					e.at.Size = end
					e.at.Used = (end + 8191) &^ 8191
				}
				e.at.Mtime = now
				e.at.Ctime = now
			}
			// The write lands on top of the file's attributes, never on
			// ones made up from it: a µproxy that holds none (a cold fleet
			// member, or any µproxy after losing its soft state) fetches
			// them first, again if a flush empties the cache in between.
			for !p.attrs.update(fh, wrote) {
				st, err := p.fetchFor(pd, fh)
				if err != nil {
					// Unacknowledged, the client retransmits and the
					// storage node's DRC replays the reply; acknowledged
					// with its growth recorded nowhere, the data past the
					// old end of file would be unreachable.
					p.st.dropped.Add(1)
					netsim.FreeBuf(d)
					return
				}
				if st != nfsproto.OK {
					break // the file is gone: nothing to account the write to
				}
			}
		}
		if at, ok := p.attrs.get(fh); ok {
			res.Attr = nfsproto.Some(at)
		}
		body = res.Encode

	default:
		p.passThrough(d, pd)
		return
	}
	p.lap(&pd.clk, stSoftState)
	p.respondEncoded(key, pd, body)
	netsim.FreeBuf(d)
}

// fetchFor is fetchAttr on behalf of the reply pd is finishing. The wait
// is no stage's cost: the clock closes its soft-state lap before the call
// and skips to its return.
func (p *Proxy) fetchFor(pd *pendingReq, fh fhandle.Handle) (nfsproto.Status, error) {
	p.lap(&pd.clk, stSoftState)
	defer p.skip(&pd.clk)
	return p.fetchAttr(pd.span, fh)
}

// peekAttr decodes the attribute block at offset off of a reply body whose
// shape a Peek has validated.
func peekAttr(body []byte, off int) (at attr.Attr) {
	_ = at.Decode(xdr.NewDecoder(body[off : off+attr.EncodedSize])) // cannot fail: the block is whole
	return at
}

// patchAttr is the in-place patch every reply kind shares: it overwrites
// the attribute block at offset off of the received reply d's body with
// at. The edit repairs the checksum differentially, so the cost follows
// the ~100 bytes changed, not the bytes carried, and the result is byte
// for byte the datagram a decode, re-encode and Build would have produced,
// but for the reply header's server time, which stays the server's. The
// buffer is the µproxy's from interception to injection: callers copy out
// everything they observe from it before this first overwrite, and
// nothing refers to it afterwards.
func (p *Proxy) patchAttr(d []byte, pd *pendingReq, off int, at *attr.Attr) {
	at.Encode(xdr.NewEncoderBuf(pd.attrBuf[:0]))
	// The offset is even and inside the body the caller's Peek validated.
	_ = netsim.RewriteBytes(d, netsim.HeaderSize+oncrpc.ReplyHeader+off, pd.attrBuf[:])
}

// injectPatched restores the virtual server as the source of a reply
// patched in place, closes its rewrite lap, and delivers it. Ownership of
// d transfers to the network.
func (p *Proxy) injectPatched(d []byte, pd *pendingReq) {
	netsim.RewriteSrc(d, p.cfg.Virtual)
	p.lap(&pd.clk, stRewrite)
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(d)
}

// injectMerged finishes a name reply in place: the attribute block at
// offset off of its body, which held srv — fh's attributes as the directory
// server sees them, just observed into the cache — becomes what the cache
// now holds for fh, where locally known size and times win.
func (p *Proxy) injectMerged(d []byte, pd *pendingReq, off int, fh fhandle.Handle, srv attr.Attr) {
	at, ok := p.attrs.get(fh)
	if !ok {
		at = srv // flushed in between: the server's attributes stand
	}
	p.lap(&pd.clk, stSoftState)
	p.patchAttr(d, pd, off, &at)
	p.injectPatched(d, pd)
}

// patchRead patches a data server's READ reply in place without touching
// the data: the placeholder attribute block becomes at, and the EOF flag,
// which reflected the server's local object, becomes eof.
func (p *Proxy) patchRead(d []byte, pd *pendingReq, at *attr.Attr, eof bool) {
	p.patchAttr(d, pd, nfsproto.ReadResAttrOff, at)
	var eofWord [4]byte
	if eof {
		eofWord[3] = 1
	}
	_ = netsim.RewriteBytes(d, netsim.HeaderSize+oncrpc.ReplyHeader+nfsproto.ReadResEOFOff, eofWord[:])
	p.injectPatched(d, pd)
}

// respondChild harvests the child's attributes from LOOKUP/CREATE/MKDIR
// replies, then forwards the reply with them patched from the (possibly
// fresher) attribute cache: the µproxy's view of size and timestamps
// reflects I/O the directory server has not yet seen (§4.1). LookupRes and
// CreateRes share a wire layout, so one decode path serves all three
// procedures. The common shape — success, child attributes present — is
// observed straight from the received bytes and patched in place; any
// other is decoded and re-encoded.
func (p *Proxy) respondChild(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	if dirOff, ok := nfsproto.PeekChildRes(rep.Body); ok {
		fh, _ := fhandle.Unmarshal(rep.Body[nfsproto.ChildResFHOff : nfsproto.ChildResFHOff+fhandle.Size]) // cannot fail: the length is right
		srv := peekAttr(rep.Body, nfsproto.ChildResAttrOff)
		p.observeAttr(fh, srv)
		if dirOff > 0 {
			p.observeAttr(pd.info.FH, peekAttr(rep.Body, dirOff))
		}
		p.injectMerged(d, pd, nfsproto.ChildResAttrOff, fh, srv)
		return
	}
	var res nfsproto.LookupRes
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		p.st.dropped.Add(1)
		netsim.FreeBuf(d)
		return
	}
	if res.Status != nfsproto.OK {
		p.passThrough(d, pd)
		return
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
	p.lap(&pd.clk, stSoftState)
	p.respondEncoded(key, pd, res.Encode)
	netsim.FreeBuf(d)
}

// respondGetAttr folds a GETATTR reply into the attribute cache, then
// answers the client with the merged attributes (local dirty size/mtime
// win over the directory server's stale view) — in place when the reply is
// exactly a successful result.
func (p *Proxy) respondGetAttr(d []byte, key pendKey, pd *pendingReq, rep oncrpc.Reply) {
	if nfsproto.PeekGetAttrRes(rep.Body) {
		srv := peekAttr(rep.Body, nfsproto.GetAttrResAttrOff)
		p.observeAttr(pd.info.FH, srv)
		p.injectMerged(d, pd, nfsproto.GetAttrResAttrOff, pd.info.FH, srv)
		return
	}
	var res nfsproto.GetAttrRes
	if err := res.Decode(xdr.NewDecoder(rep.Body)); err != nil {
		p.st.dropped.Add(1)
		netsim.FreeBuf(d)
		return
	}
	if res.Status != nfsproto.OK {
		p.passThrough(d, pd)
		return
	}
	p.observeAttr(pd.info.FH, res.Attr)
	if at, ok := p.attrs.get(pd.info.FH); ok {
		res.Attr = at
	}
	p.lap(&pd.clk, stSoftState)
	p.respondEncoded(key, pd, res.Encode)
	netsim.FreeBuf(d)
}

// respondEncoded encodes a fresh reply datagram from the virtual server to
// the client — the reply's rewrite lap — and injects it.
func (p *Proxy) respondEncoded(key pendKey, pd *pendingReq, body func(*xdr.Encoder)) {
	out, err := oncrpc.BuildReply(p.cfg.Virtual, key.client, key.xid, oncrpc.AcceptSuccess, body)
	p.lap(&pd.clk, stRewrite)
	if err != nil {
		p.st.dropped.Add(1)
		return
	}
	p.st.responses.Add(1)
	_ = p.cfg.Net.Inject(out)
}
