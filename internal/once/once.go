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
	"errors"
	"fmt"
	"math"
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

// A journaled Done carries only what replay reads, big-endian:
//
//	 0  source host   4
//	 4  source port   2
//	 6  Step          2
//	 8  xid           4
//	12  procedure     1
//	13  argument len  3
//	16  status        2
//	18  flags         1   flagValue: the value follows
//	19  zero          1
//	20  time          4   Unix seconds, rounded up
//	24  value         8   only under flagValue
//
// Program and version are not journaled: each role's journal holds one
// program's outcomes (a directory server's peer steps carry the identity
// of the NFS call they serve), so DecodeDone takes them from the role.
// The time is rounded up, so replay keeps an outcome at least as long as
// it was recorded for, never shorter.
const (
	// DoneSize is the encoded length of a Done without its value.
	DoneSize = 24
	// ValueSize is what a Done's value adds to it.
	ValueSize = 8

	flagValue = 1

	maxStep   = 1<<16 - 1
	maxProc   = 1<<8 - 1
	maxLen    = 1<<24 - 1
	maxStatus = 1<<16 - 1
)

// ErrDoesNotFit is a Done's refusal of a step, procedure, argument
// length, status or time too large for its field. A field is never
// truncated.
var ErrDoesNotFit = errors.New("once: a call's identity or outcome does not fit its journal form")

// fits reports whether id's key and verifier fit their fields.
func (id *Ident) fits() bool {
	return id.Step <= maxStep && id.Proc <= maxProc && id.Len <= maxLen
}

// fits reports whether d fits its journal form.
func (d *Done) fits() bool {
	return d.Ident.fits() && d.Status <= maxStatus && d.At >= 0 && ceilSecond(d.At) <= math.MaxUint32
}

// ceilSecond returns the whole Unix second at or after ns ≥ 0.
func ceilSecond(ns int64) int64 { return (ns + int64(time.Second) - 1) / int64(time.Second) }

// Encode appends d to e, its value only when it is not zero: DoneSize or
// DoneSize+ValueSize bytes. It refuses, appending nothing, a Done that
// does not fit.
func (d *Done) Encode(e *xdr.Encoder) error { return d.encode(e, d.Value != 0) }

// EncodeValued is Encode with the value always present: for a record
// whose length must not depend on it, a compaction's.
func (d *Done) EncodeValued(e *xdr.Encoder) error { return d.encode(e, true) }

func (d *Done) encode(e *xdr.Encoder, valued bool) error {
	if !d.fits() {
		return ErrDoesNotFit
	}
	n := DoneSize
	if valued {
		n += ValueSize
	}
	b := e.Reserve(n)
	binary.BigEndian.PutUint32(b[0:], d.Src.Host)
	binary.BigEndian.PutUint16(b[4:], d.Src.Port)
	binary.BigEndian.PutUint16(b[6:], uint16(d.Step))
	binary.BigEndian.PutUint32(b[8:], d.Xid)
	binary.BigEndian.PutUint32(b[12:], d.Proc<<24|d.Len)
	binary.BigEndian.PutUint16(b[16:], uint16(d.Status))
	b[18], b[19] = 0, 0
	binary.BigEndian.PutUint32(b[20:], uint32(ceilSecond(d.At)))
	if valued {
		b[18] = flagValue
		binary.BigEndian.PutUint64(b[24:], d.Value)
	}
	return nil
}

// DecodeDone reads a Done that Encode or EncodeValued wrote, of a call
// to program prog, version vers: the role's.
func DecodeDone(d *xdr.Decoder, prog, vers uint32) (r Done, err error) {
	b, err := d.FixedOpaque(DoneSize)
	if err != nil {
		return r, err
	}
	if b[18]&^flagValue != 0 || b[19] != 0 {
		return r, fmt.Errorf("once: a journaled outcome's flags read %#x %#x", b[18], b[19])
	}
	pl := binary.BigEndian.Uint32(b[12:])
	r.Ident = Ident{
		Src:  netsim.Addr{Host: binary.BigEndian.Uint32(b[0:]), Port: binary.BigEndian.Uint16(b[4:])},
		Step: uint32(binary.BigEndian.Uint16(b[6:])), Xid: binary.BigEndian.Uint32(b[8:]),
		Prog: prog, Vers: vers, Proc: pl >> 24, Len: pl & maxLen,
	}
	r.Status = uint32(binary.BigEndian.Uint16(b[16:]))
	r.At = int64(binary.BigEndian.Uint32(b[20:])) * int64(time.Second)
	if b[18]&flagValue != 0 {
		r.Value, err = d.Uint64()
	}
	return r, err
}

// Table is a role's at-most-once table: the outcome of each call it
// executed in the last Span, by the call's identity. A table holds the
// calls of one program, the role's, so it keeps of a call's verifier
// only the procedure and the argument length. The role records an
// outcome under the lock its mutation holds, at the time the mutation
// read, and asks for one at the time its op reads: the table reads no
// clock. Nothing in it is a pointer, so the collector never scans it. An
// outcome past its Span is no longer found, and is deleted by the first
// record a Span after the last sweep, which walks the table once: the
// table holds one to two Spans of calls, however many, and a lookup or a
// record is one map operation. The zero value is empty and ready; it is
// not safe for concurrent use.
type Table struct {
	m map[key]entry
	// base is the Unix time entries count their milliseconds from; a
	// sweep moves it up before they could overflow.
	base  int64
	swept int64 // when expired outcomes were last deleted
	peak  int
}

// key is what a retransmission repeats: source, Step and xid, packed.
type key struct {
	host       uint32
	port, step uint16
	xid        uint32
}

// entry is one outcome: 20 bytes, so a key and its entry take 32.
type entry struct {
	at     int32     // milliseconds after the table's base, rounded up
	ver    uint32    // procedure<<24 | argument length
	value  [2]uint32 // high and low words: a uint64 at 4-byte alignment
	status uint16
}

const (
	// spanMS is Span in whole milliseconds, rounded up.
	spanMS = int64((Span + time.Millisecond - 1) / time.Millisecond)
	// rebaseMS is how far past its base a sweep lets a table run before
	// it moves the base up: far short of an int32's milliseconds.
	rebaseMS = 1 << 30
)

func keyOf(id *Ident) key {
	return key{host: id.Src.Host, port: id.Src.Port, step: uint16(id.Step), xid: id.Xid}
}

func verOf(id *Ident) uint32 { return id.Proc<<24 | id.Len }

// sinceBase returns now in milliseconds after t's base, rounded down.
func (t *Table) sinceBase(now int64) int64 { return (now - t.base) / int64(time.Millisecond) }

// Find returns the outcome recorded for id within the Span before now
// (Unix nanoseconds).
func (t *Table) Find(id Ident, now int64) (Outcome, bool) {
	e, ok := t.m[keyOf(&id)]
	if !ok || e.ver != verOf(&id) || !id.fits() || t.sinceBase(now)-int64(e.at) >= spanMS {
		return Outcome{}, false
	}
	return Outcome{Status: uint32(e.status), Value: uint64(e.value[0])<<32 | uint64(e.value[1])}, true
}

// Record records o as id's outcome at now (Unix nanoseconds: the time
// the mutation read) and returns it as a journal record carries it. It
// refuses, recording nothing, an outcome that does not fit its journal
// form.
func (t *Table) Record(id Ident, o Outcome, now int64) (Done, error) {
	d := Done{Ident: id, Outcome: o, At: now}
	if !d.fits() {
		return Done{}, ErrDoesNotFit
	}
	t.put(&d, now)
	return d, nil
}

// Put records d as of d.At — a journal's record, replayed at now —
// unless it has expired or does not fit.
func (t *Table) Put(d Done, now int64) {
	if now-d.At >= int64(Span) || !d.fits() {
		return
	}
	t.put(&d, now)
}

func (t *Table) put(d *Done, now int64) {
	if t.m == nil {
		t.m, t.base, t.swept = make(map[key]entry), now, now
	}
	if now-t.swept >= int64(Span) {
		t.sweep(now)
	}
	// The time in milliseconds, rounded up (Go's division truncates, so a
	// negative quotient is already rounded up). A time further ahead of
	// now than rounding to a second puts it is a clock that stepped back:
	// it counts as that second.
	ms := d.At - t.base
	at := ms / int64(time.Millisecond)
	if ms%int64(time.Millisecond) > 0 {
		at++
	}
	at = min(at, t.sinceBase(now)+int64(time.Second/time.Millisecond))
	t.m[keyOf(&d.Ident)] = entry{at: int32(at), ver: verOf(&d.Ident),
		value: [2]uint32{uint32(d.Value >> 32), uint32(d.Value)}, status: uint16(d.Status)}
	t.peak = max(t.peak, len(t.m))
}

// sweep deletes the outcomes expired at now and, once the table has run
// rebaseMS past its base, moves the base up to now.
func (t *Table) sweep(now int64) {
	nowMS := t.sinceBase(now)
	var shift int64
	if nowMS >= rebaseMS {
		shift = nowMS
	}
	for k, e := range t.m {
		switch {
		case nowMS-int64(e.at) >= spanMS:
			delete(t.m, k)
		case shift != 0:
			e.at = int32(int64(e.at) - shift)
			t.m[k] = e
		}
	}
	t.base += shift * int64(time.Millisecond)
	t.swept = now
}

// Each calls fn with every outcome held, for a role's journal compaction:
// Len of them, so the role counts what it emits in O(1). Those expired
// since the last sweep are among them; replay drops them. Each Done's
// time is its entry's, at most a millisecond past the one recorded, and
// its program and version are zero: the journal does not carry them. fn
// must not keep d, which Each reuses, so a walk allocates once, not once
// per outcome.
func (t *Table) Each(fn func(d *Done)) {
	var d Done
	for k, e := range t.m {
		d = Done{
			Ident: Ident{Src: netsim.Addr{Host: k.host, Port: k.port}, Xid: k.xid, Step: uint32(k.step),
				Proc: e.ver >> 24, Len: e.ver & maxLen},
			Outcome: Outcome{Status: uint32(e.status), Value: uint64(e.value[0])<<32 | uint64(e.value[1])},
			At:      t.base + int64(e.at)*int64(time.Millisecond),
		}
		fn(&d)
	}
}

// Len returns the number of outcomes held: those of the last Span, and
// those expired since the last sweep.
func (t *Table) Len() int { return len(t.m) }

// Peak returns the most outcomes the table has held at once.
func (t *Table) Peak() int { return t.peak }
