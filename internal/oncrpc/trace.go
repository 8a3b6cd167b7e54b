package oncrpc

import (
	"encoding/binary"

	"slice/internal/xdr"
)

// The optional trace field: a fixed trailer appended after the argument
// or result body of an RPC message, carrying the request's trace id and
// (on replies) the server-side handler time in nanoseconds.
//
// A trailer — rather than a header field — keeps the extension fully
// backward compatible in both directions: XDR decoders consume exactly
// the fields they know, so an old peer that receives a trailing trace
// field simply never reads those bytes, and a new peer detects the field
// by the 8-byte magic at the end of the payload. The magic makes an
// accidental match against ordinary argument bytes a 2^-64 event, which
// is below the datagram checksum's own failure rate.
const (
	// traceMagic spells "SLICTRAC".
	traceMagic uint64 = 0x534C4943_54524143

	// CallTraceLen is the size of the call trailer: magic + trace id.
	CallTraceLen = 16
	// ReplyTraceLen is the size of the reply trailer: magic + trace id +
	// server handler nanoseconds.
	ReplyTraceLen = 24
)

// AppendCallTrace appends the trace trailer to a call payload.
func AppendCallTrace(payload []byte, traceID uint64) []byte {
	var t [CallTraceLen]byte
	binary.BigEndian.PutUint64(t[0:], traceID)
	binary.BigEndian.PutUint64(t[8:], traceMagic)
	return append(payload, t[:]...)
}

// SplitCallTrace detects and strips the trace trailer from a call body
// (the bytes after the call header). It returns the trace id and the
// body with the trailer removed; ok is false when no trailer is present.
func SplitCallTrace(body []byte) (traceID uint64, stripped []byte, ok bool) {
	n := len(body)
	if n < CallTraceLen {
		return 0, body, false
	}
	if binary.BigEndian.Uint64(body[n-8:]) != traceMagic {
		return 0, body, false
	}
	return binary.BigEndian.Uint64(body[n-16:]), body[:n-CallTraceLen], true
}

// AppendReplyTrace appends the trace trailer to a reply payload.
func AppendReplyTrace(payload []byte, traceID, serverNS uint64) []byte {
	e := xdr.NewEncoderBuf(payload)
	putReplyTrace(e, traceID, serverNS)
	return e.Bytes()
}

// putReplyTrace encodes the trace trailer at the end of a reply being
// encoded.
func putReplyTrace(e *xdr.Encoder, traceID, serverNS uint64) {
	e.PutUint64(traceID)
	e.PutUint64(serverNS)
	e.PutUint64(traceMagic)
}

// PeekReplyTrace reads the trace trailer from a reply body without
// modifying it. Interposed elements use it to split a hop's round-trip
// time into server time and wire time; decoders that do not know about
// the field never touch it.
func PeekReplyTrace(body []byte) (traceID, serverNS uint64, ok bool) {
	n := len(body)
	if n < ReplyTraceLen {
		return 0, 0, false
	}
	if binary.BigEndian.Uint64(body[n-8:]) != traceMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(body[n-24:]), binary.BigEndian.Uint64(body[n-16:]), true
}
