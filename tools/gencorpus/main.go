// Command gencorpus regenerates the checked-in fuzz seed corpora under
// each package's testdata/fuzz/<Target>/ directory. The seeds cover the
// interesting wire shapes — valid frames, torn tails, corrupted
// checksums, trace trailers — so plain `go test` (which replays the seed
// corpus without -fuzz) exercises the parsers' edge paths on every CI
// run, and fuzz runs start from structured inputs instead of noise.
//
//	go run ./tools/gencorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/wal"
	"slice/internal/wire"
	"slice/internal/xdr"
)

func main() {
	emitChecksum()
	emitNetsim()
	emitNfsproto()
	emitOncrpc()
	emitWal()
	emitRoute()
	emitWire()
	fmt.Println("gencorpus: seed corpora written")
}

// write stores one corpus entry in Go's fuzz-corpus file encoding.
func write(pkg, target, name string, args ...any) {
	dir := filepath.Join("internal", pkg, "testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := "go test fuzz v1\n"
	for _, a := range args {
		switch v := a.(type) {
		case []byte:
			body += fmt.Sprintf("[]byte(%q)\n", v)
		case uint32:
			body += fmt.Sprintf("uint32(%d)\n", v)
		default:
			log.Fatalf("unsupported corpus arg type %T", a)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

// emitWire seeds FuzzReadRecord with RFC 1831 record-marked streams, the
// marks written by hand (the framing code is unexported): back-to-back
// records, multi-fragment reassembly, an empty record, and the hostile
// shapes — a tail torn inside a mark and inside a body, a zero-length
// non-terminal fragment and one fragment claiming more than MaxRecord.
// (Fragments whose sum overflows MaxRecord need a megabyte of input;
// TestReadRecordHostileFrames covers them.)
func emitWire() {
	const target = "FuzzReadRecord"
	const last = 0x80000000
	frag := func(mark uint32, body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, mark|uint32(len(body))), body...)
	}
	call := bytes.Repeat([]byte("NFS3"), 32)
	whole := frag(last, call)
	write("wire", target, "seed_one_record", whole)
	write("wire", target, "seed_back_to_back", append(append([]byte(nil), whole...), frag(last, []byte("second"))...))
	multi := append(append(frag(0, call[:50]), frag(0, call[50:51])...), frag(last, call[51:])...)
	write("wire", target, "seed_three_fragments", multi)
	write("wire", target, "seed_empty_record", frag(last, nil))
	write("wire", target, "seed_empty_terminal_fragment", append(frag(0, call), frag(last, nil)...))
	write("wire", target, "seed_torn_mark", append(append([]byte(nil), whole...), 0x80, 0x00))
	write("wire", target, "seed_torn_body", multi[:len(multi)-7])
	write("wire", target, "seed_zero_nonterminal", append(frag(0, nil), whole...))
	write("wire", target, "seed_oversize_fragment", binary.BigEndian.AppendUint32(nil, last|(wire.MaxRecord+1)))
}

// emitChecksum seeds FuzzSum, which checks both checksum kernels — Sum,
// vector path included, and the portable loop alone — against the
// byte-pair reference loop at every start alignment 0‥31: lengths around
// the 8-, 64- and 128-byte block edges and the vector threshold, odd
// tails, and all-ones input, where every addition carries.
func emitChecksum() {
	const target = "FuzzSum"
	ramp := make([]byte, 300)
	for i := range ramp {
		ramp[i] = byte(i*37 + 11)
	}
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 65, 127, 128, 129, 255, 256, 257, 300} {
		write("checksum", target, fmt.Sprintf("seed_ramp_%03d", n), ramp[:n])
	}
	ones := bytes.Repeat([]byte{0xFF}, 4099)
	write("checksum", target, "seed_ones_4099", ones)
	write("checksum", target, "seed_ones_0064", ones[:64])
	dgram, err := netsim.Build(netsim.Addr{Host: 10, Port: 2049}, netsim.Addr{Host: 200, Port: 999}, ramp)
	if err != nil {
		log.Fatal(err)
	}
	write("checksum", target, "seed_datagram", dgram)
}

func emitNetsim() {
	const target = "FuzzParseDatagram"
	good, err := netsim.Build(netsim.Addr{Host: 10, Port: 2049}, netsim.Addr{Host: 200, Port: 999},
		[]byte("an NFS-sized payload for the datagram parser"))
	if err != nil {
		log.Fatal(err)
	}
	write("netsim", target, "seed_valid", good)

	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	write("netsim", target, "seed_corrupt_payload", bad)

	short := append([]byte(nil), good[:netsim.HeaderSize+1]...)
	write("netsim", target, "seed_truncated", short)

	header := append([]byte(nil), good[:netsim.HeaderSize]...)
	write("netsim", target, "seed_header_only", header)

	// FuzzDifferentialEdit(payload, flip, edit): flip is the corrupted
	// byte's index (low 24 bits) and xor mask (top 8); edit is the offset
	// (low 16) and length (top 16) of the RewriteUint64/RewriteBytes/
	// TrimTail edits. A READ-reply-sized payload, corrupted in the data, in
	// each header field an edit writes or reads, and in the tail TrimTail
	// cuts; an odd length, which TrimTail refuses.
	const edit = "FuzzDifferentialEdit"
	reply := bytes.Repeat([]byte("data"), 1024+28)
	flip := func(at int, mask byte) uint32 { return uint32(mask)<<24 | uint32(at) }
	span := func(off, n int) uint32 { return uint32(n)<<16 | uint32(off) }
	write("netsim", edit, "seed_data_attr_patch", reply, flip(netsim.HeaderSize+200, 0x80), span(12, 84))
	write("netsim", edit, "seed_inside_patch", reply, flip(netsim.HeaderSize+40, 0x01), span(24, 84))
	write("netsim", edit, "seed_src_field", reply, flip(netsim.OffSrcPort+1, 0x04), span(8, 24))
	write("netsim", edit, "seed_dst_field", reply, flip(netsim.OffDstHost, 0xFF), span(8, 24))
	write("netsim", edit, "seed_checksum_field", reply, flip(netsim.OffChecksum, 0x10), span(16, 24))
	write("netsim", edit, "seed_length_field", reply, flip(netsim.OffLength+3, 0x02), span(0, 0))
	write("netsim", edit, "seed_reserved_field", reply, flip(netsim.OffChecksum+2, 0x01), span(0, 24))
	write("netsim", edit, "seed_cut_tail", reply, flip(netsim.HeaderSize+len(reply)-3, 0x20), span(0, 24))
	write("netsim", edit, "seed_odd_length", reply[:101], flip(netsim.HeaderSize+99, 0x08), span(2, 24))
}

func emitNfsproto() {
	const target = "FuzzParseCall"
	fh := fhandle.Handle{Volume: 1, FileID: 77, Gen: 3, Site: 1, Type: 1}
	msg := func(m nfsproto.Msg) []byte {
		e := xdr.NewEncoder(256)
		m.Encode(e)
		return append([]byte(nil), e.Bytes()...)
	}
	write("nfsproto", target, "seed_lookup",
		uint32(nfsproto.ProcLookup), msg(&nfsproto.LookupArgs{Dir: fh, Name: "deep-name-component"}))
	write("nfsproto", target, "seed_write",
		uint32(nfsproto.ProcWrite), msg(&nfsproto.WriteArgs{FH: fh, Offset: 1 << 20, Count: 4, Data: []byte("data")}))
	write("nfsproto", target, "seed_create",
		uint32(nfsproto.ProcCreate), msg(&nfsproto.CreateArgs{Dir: fh, Name: "f", Exclusive: true}))
	write("nfsproto", target, "seed_rename",
		uint32(nfsproto.ProcRename), msg(&nfsproto.RenameArgs{FromDir: fh, FromName: "a", ToDir: fh, ToName: "b"}))
	lookup := msg(&nfsproto.LookupArgs{Dir: fh, Name: "torn"})
	write("nfsproto", target, "seed_lookup_torn",
		uint32(nfsproto.ProcLookup), lookup[:len(lookup)-3])
	write("nfsproto", target, "seed_commit_empty", uint32(nfsproto.ProcCommit), []byte{})

	// MOUNT and portmapper messages: the kind selector matches
	// FuzzParseMountPortmap's kind%6 switch.
	const mp = "FuzzParseMountPortmap"
	write("nfsproto", mp, "seed_mapping",
		uint32(0), msg(&nfsproto.Mapping{Prog: nfsproto.Program, Vers: nfsproto.Version,
			Prot: nfsproto.IPProtoTCP, Port: 2049}))
	write("nfsproto", mp, "seed_getport", uint32(1), msg(&nfsproto.GetPortRes{Port: 2049}))
	write("nfsproto", mp, "seed_dump",
		uint32(2), msg(&nfsproto.DumpRes{Mappings: []nfsproto.Mapping{
			{Prog: nfsproto.Program, Vers: nfsproto.Version, Prot: nfsproto.IPProtoTCP, Port: 2049},
			{Prog: nfsproto.MountProgram, Vers: nfsproto.MountVersion, Prot: nfsproto.IPProtoTCP, Port: 2049},
		}}))
	write("nfsproto", mp, "seed_mnt_args", uint32(3), msg(&nfsproto.MountPathArgs{Path: "/export/slice"}))
	write("nfsproto", mp, "seed_mnt_res", uint32(4), msg(&nfsproto.MountMntRes{Status: nfsproto.OK, FH: fh}))
	write("nfsproto", mp, "seed_export",
		uint32(5), msg(&nfsproto.ExportRes{Entries: []nfsproto.ExportEntry{
			{Dir: "/export/slice", Groups: []string{"lab"}}}}))
	// A linked list whose more-flag promises an entry the body lacks.
	write("nfsproto", mp, "seed_dump_torn_list", uint32(2), []byte{0, 0, 0, 1})
	mnt := msg(&nfsproto.MountMntRes{Status: nfsproto.OK, FH: fh})
	write("nfsproto", mp, "seed_mnt_res_torn", uint32(4), mnt[:len(mnt)-2])
}

func emitOncrpc() {
	const target = "FuzzParse"
	call := oncrpc.EncodeCall(7, 100003, 3, 6, func(e *xdr.Encoder) { e.PutUint32(42) })
	write("oncrpc", target, "seed_call", call)
	reply := oncrpc.EncodeReply(7, oncrpc.AcceptSuccess, func(e *xdr.Encoder) { e.PutUint32(42) })
	write("oncrpc", target, "seed_reply", reply)

	// Trace trailers: a traced call and a timed reply, plus a trailer
	// whose magic is one bit off (must parse as plain payload).
	traced := oncrpc.AppendCallTrace(append([]byte(nil), call...), 0xABCDEF)
	write("oncrpc", target, "seed_call_traced", traced)
	timed := oncrpc.AppendReplyTrace(append([]byte(nil), reply...), 0xABCDEF, 12345)
	write("oncrpc", target, "seed_reply_traced", timed)
	badmagic := append([]byte(nil), traced...)
	badmagic[len(badmagic)-1] ^= 0x01
	write("oncrpc", target, "seed_trace_badmagic", badmagic)

	write("oncrpc", target, "seed_call_torn", call[:9])
	write("oncrpc", target, "seed_unsupported_vers", []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9})
}

// emitRoute seeds FuzzTableTransition's op-code programs: byte 0 picks
// the logical-site count (12 minus byte 0 mod 9, over four starting
// nodes), every later byte is an op mod 5 (0 begin-grow, 1 commit,
// 2 abort, 3 failover swap, 4 route keys). The seeds walk each structural
// transition the invariants guard: clean grow+commit, abort rollback,
// swap abandoning an open transition, stale commits after close, and
// chained grows at two site counts. (The `ring` names date from when odd
// bytes picked a second table kind; they stay so the seeds keep their
// test IDs.)
func emitRoute() {
	const target = "FuzzTableTransition"
	write("route", target, "seed_modulo_grow_commit", []byte{0, 0, 4, 1, 4})
	write("route", target, "seed_ring_grow_commit", []byte{1, 0, 4, 1, 4})
	write("route", target, "seed_abort_rolls_back", []byte{0, 0, 4, 2, 4})
	write("route", target, "seed_swap_abandons_open", []byte{0, 0, 3, 4, 1, 2})
	write("route", target, "seed_stale_ops_after_close", []byte{1, 0, 1, 1, 2, 1, 2})
	write("route", target, "seed_chained_grows", []byte{0, 0, 1, 0, 1, 0, 2, 0, 1, 4})
	write("route", target, "seed_ring_churn", []byte{1, 0, 2, 0, 1, 3, 0, 1, 3, 4, 0, 2})
}

func emitWal() {
	const target = "FuzzScan"
	store := wal.NewMemStore()
	log1, err := wal.Open(store)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := log1.Append(uint32(i+1), []byte(fmt.Sprintf("intent-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := log1.Sync(); err != nil {
		log.Fatal(err)
	}
	valid, err := store.Contents()
	if err != nil {
		log.Fatal(err)
	}
	write("wal", target, "seed_valid", valid)
	write("wal", target, "seed_torn_tail", valid[:len(valid)-5])

	crc := append([]byte(nil), valid...)
	crc[len(crc)-2] ^= 0xFF
	write("wal", target, "seed_bad_crc", crc)

	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(huge[16:], 1<<31)
	write("wal", target, "seed_len_overflow", huge)
}
