// Package once is at-most-once execution where the mutation is: the table
// in which a role that mutates records the outcome of each non-idempotent
// call it executed, and from which it answers a retransmission of that
// call by rebuilding the reply, never by executing the call again. A role
// that journals its mutations writes each outcome into the record that
// carries its mutation (Done), so replay rebuilds the table and a
// retransmission after a restart gets its first answer, as Lustre's
// last_rcvd reply reconstruction does. oncrpc.Server itself keeps no
// reply: it only drops a retransmission of a call still executing.
package once

import (
	"encoding/binary"
	"time"

	"slice/internal/netsim"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// Span is how long an outcome is kept: oncrpc.Ladder, the most time the
// default client — every client in the product — spends on one call,
// about 1.7 s. A retransmission later than that is from a client that
// has given up on the call.
const Span = oncrpc.Ladder

// Ident is the identity of one call. Its key is what a retransmission
// repeats: the source and the xid, and Step, which is 0 for the call
// itself and names a call a role makes on its behalf otherwise (a
// directory server's peer mutation carries the identity of the client
// operation it serves, one Step each). Its verifier is what a true
// retransmission repeats besides — program, version, procedure and
// argument length — so a different call under the same key, from a new
// client incarnation on a recycled address, is not taken for it.
type Ident struct {
	Src                   netsim.Addr
	Xid, Step             uint32
	Prog, Vers, Proc, Len uint32
}

// IdentOf returns the identity of call from src.
func IdentOf(call *oncrpc.Call, src netsim.Addr) Ident {
	return Ident{Src: src, Xid: call.Xid, Prog: call.Program, Vers: call.Version,
		Proc: call.Proc, Len: uint32(len(call.Body))}
}

// IsZero reports whether id names no call.
func (id Ident) IsZero() bool { return id == Ident{} }

// Sub returns the identity of the step-th call made on id's behalf.
func (id Ident) Sub(step uint32) Ident {
	id.Step = step
	return id
}

// Encode appends id to e.
func (id Ident) Encode(e *xdr.Encoder) {
	b := e.Reserve(8 * 4)
	for i, w := range [8]uint32{id.Src.Host, uint32(id.Src.Port), id.Xid, id.Step, id.Prog, id.Vers, id.Proc, id.Len} {
		binary.BigEndian.PutUint32(b[4*i:], w)
	}
}

// DecodeIdent reads an Ident that Encode wrote.
func DecodeIdent(d *xdr.Decoder) (Ident, error) {
	var w [8]uint32
	for i := range w {
		var err error
		if w[i], err = d.Uint32(); err != nil {
			return Ident{}, err
		}
	}
	return Ident{Src: netsim.Addr{Host: w[0], Port: uint16(w[1])}, Xid: w[2], Step: w[3],
		Prog: w[4], Vers: w[5], Proc: w[6], Len: w[7]}, nil
}

// Outcome is what a call came to: a status and one value — a minted
// file ID, an intention's id — from which, with its current state, the
// role rebuilds the call's reply.
type Outcome struct {
	Status uint32
	Value  uint64
}

// Done is an outcome with the call it answers and when it was recorded
// (Unix nanoseconds): what a journal record carries.
type Done struct {
	Ident
	Outcome
	At int64
}

// DoneSize is the encoded length of a Done.
const DoneSize = 8*4 + 4 + 8 + 8

// Encode appends d to e.
func (d *Done) Encode(e *xdr.Encoder) {
	d.Ident.Encode(e)
	b := e.Reserve(4 + 8 + 8)
	binary.BigEndian.PutUint32(b, d.Status)
	binary.BigEndian.PutUint64(b[4:], d.Value)
	binary.BigEndian.PutUint64(b[12:], uint64(d.At))
}

// DecodeDone reads a Done that Encode wrote.
func DecodeDone(d *xdr.Decoder) (r Done, err error) {
	if r.Ident, err = DecodeIdent(d); err != nil {
		return r, err
	}
	if r.Status, err = d.Uint32(); err != nil {
		return r, err
	}
	if r.Value, err = d.Uint64(); err != nil {
		return r, err
	}
	at, err := d.Uint64()
	r.At = int64(at)
	return r, err
}

// Table is a role's at-most-once table: the outcome of each call it
// executed in the last Span, by the call's identity. The role records an
// outcome under the lock its mutation holds. Nothing in it is a pointer,
// so the collector never scans it. An outcome past its Span is no longer
// found, and is deleted by the first record a Span after the last sweep,
// which walks the table once: the table holds one to two Spans of calls,
// however many, and a lookup or a record is one map operation. The zero
// value is empty and ready; it is not safe for concurrent use.
type Table struct {
	m     map[key]entry
	swept int64 // when expired outcomes were last deleted
	peak  int
}

type key struct {
	src       netsim.Addr
	xid, step uint32
}

type entry struct {
	ver [4]uint32 // prog, vers, proc, len
	Outcome
	at int64
}

func (id *Ident) key() key            { return key{src: id.Src, xid: id.Xid, step: id.Step} }
func (id *Ident) verifier() [4]uint32 { return [4]uint32{id.Prog, id.Vers, id.Proc, id.Len} }

// Find returns the outcome recorded for id within the last Span.
func (t *Table) Find(id Ident) (Outcome, bool) {
	e, ok := t.m[id.key()]
	if !ok || e.ver != id.verifier() || time.Now().UnixNano()-e.at >= int64(Span) {
		return Outcome{}, false
	}
	return e.Outcome, true
}

// Record records o as id's outcome, now, and returns it as a journal
// record carries it.
func (t *Table) Record(id Ident, o Outcome) Done {
	d := Done{Ident: id, Outcome: o, At: time.Now().UnixNano()}
	t.put(d, d.At)
	return d
}

// Put records d as of d.At — a journal's record, replayed — unless it has
// expired.
func (t *Table) Put(d Done) { t.put(d, time.Now().UnixNano()) }

func (t *Table) put(d Done, now int64) {
	if now-d.At >= int64(Span) {
		return
	}
	if t.m == nil {
		t.m, t.swept = make(map[key]entry), now
	}
	if now-t.swept >= int64(Span) {
		for k, e := range t.m {
			if now-e.at >= int64(Span) {
				delete(t.m, k)
			}
		}
		t.swept = now
	}
	t.m[d.key()] = entry{ver: d.verifier(), Outcome: d.Outcome, at: d.At}
	t.peak = max(t.peak, len(t.m))
}

// Each calls fn with every outcome held, for a role's journal compaction:
// Len of them, so the role counts what it emits in O(1). Those expired
// since the last sweep are among them; replay drops them. fn must not
// keep d, which Each reuses, so a walk allocates once, not once per
// outcome.
func (t *Table) Each(fn func(d *Done)) {
	var d Done
	for k, e := range t.m {
		d = Done{Ident: Ident{Src: k.src, Xid: k.xid, Step: k.step, Prog: e.ver[0],
			Vers: e.ver[1], Proc: e.ver[2], Len: e.ver[3]}, Outcome: e.Outcome, At: e.at}
		fn(&d)
	}
}

// Len returns the number of outcomes held: those of the last Span, and
// those expired since the last sweep.
func (t *Table) Len() int { return len(t.m) }

// Peak returns the most outcomes the table has held at once.
func (t *Table) Peak() int { return t.peak }
