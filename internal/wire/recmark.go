// Package wire is the real-socket serving layer: it exposes a running
// Slice ensemble to clients in other processes (or on other machines)
// over TCP with standard ONC-RPC record marking (RFC 1831 §10) or over
// bare UDP datagrams, with an embedded portmapper (RFC 1833) and the
// MOUNT program, so a stock NFSv3-style client can discover, mount, and
// drive the sliced file service over an ordinary network.
//
// Server side, a Gateway assigns each remote peer — an accepted
// connection or a UDP source address — a synthetic client address on the
// netsim fabric and sends its records toward the virtual server, so
// real-wire traffic traverses the interposed µproxy fleet exactly like
// in-fabric traffic. Client side, Dial and DialDatagram return an
// oncrpc.Conn for client.NewWithConn. Unlike UDP, record-marked TCP has
// no 64 KiB datagram ceiling: whole stripe-unit READ/WRITE bodies ride a
// single record, fragmented and reassembled at the marking layer.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"slice/internal/netsim"
)

const (
	// MaxRecord bounds one reassembled RPC record. It comfortably covers
	// the largest READ/WRITE body (xdr.MaxOpaque = 1 MiB) plus headers.
	MaxRecord = 1<<20 + 4096

	// fragSize is the fragment size writers cut records into. 64 KiB keeps
	// any single fragment within the pool's mid classes and exercises
	// multi-fragment reassembly on every jumbo transfer.
	fragSize = 64 << 10

	// lastFrag is the record-marking terminal bit (RFC 1831 §10).
	lastFrag = 0x80000000
)

// ErrRecordTooLarge indicates a record beyond MaxRecord; the connection
// carrying it is unrecoverable (framing cannot be resynchronized).
var ErrRecordTooLarge = errors.New("wire: record exceeds maximum size")

// readRecord reads one record-marked RPC message from r, reassembling
// fragments into a single pooled buffer with hdrRoom bytes reserved at
// the front (for a netsim pseudo header). The caller owns the result and
// returns it with netsim.FreeBuf. A clean EOF before the first byte of a
// record returns io.EOF; EOF mid-record returns io.ErrUnexpectedEOF. The
// fragment mark is read where it lies in r's buffer, so a record costs no
// allocation beyond its pooled buffer.
func readRecord(r *bufio.Reader, hdrRoom int) ([]byte, error) {
	var buf []byte
	total := 0
	for {
		fh, err := r.Peek(4)
		if err != nil {
			netsim.FreeBuf(buf)
			if err == io.EOF && (buf != nil || len(fh) > 0) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		v := binary.BigEndian.Uint32(fh)
		_, _ = r.Discard(4) // cannot fail: Peek buffered them
		last := v&lastFrag != 0
		flen := int(v &^ lastFrag)
		if flen == 0 && !last {
			netsim.FreeBuf(buf)
			return nil, fmt.Errorf("wire: zero-length non-terminal fragment")
		}
		if total+flen > MaxRecord {
			netsim.FreeBuf(buf)
			return nil, ErrRecordTooLarge
		}
		need := hdrRoom + total + flen
		switch {
		case buf == nil:
			buf = netsim.GetBuf(need)
		case need > cap(buf):
			grown := netsim.GetBuf(need)
			copy(grown, buf)
			netsim.FreeBuf(buf)
			buf = grown
		default:
			buf = buf[:need]
		}
		if _, err := io.ReadFull(r, buf[hdrRoom+total:need]); err != nil {
			netsim.FreeBuf(buf)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		total += flen
		if last {
			return buf, nil
		}
	}
}

// writeRecord writes payload to w as one record-marked message, cut into
// fragments of at most fragSize bytes. Callers pass a buffered writer and
// flush once per burst, so consecutive small records coalesce into one
// TCP write. The fragment mark is built in w's own buffer: a local array
// handed to Write would escape to the heap on every record.
func writeRecord(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxRecord {
		return ErrRecordTooLarge
	}
	off := 0
	for {
		n := len(payload) - off
		last := n <= fragSize
		if !last {
			n = fragSize
		}
		v := uint32(n)
		if last {
			v |= lastFrag
		}
		if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), v)); err != nil {
			return err
		}
		if _, err := w.Write(payload[off : off+n]); err != nil {
			return err
		}
		off += n
		if last {
			return nil
		}
	}
}
