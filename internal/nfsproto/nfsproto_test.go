package nfsproto

import (
	"bytes"
	"reflect"
	"testing"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/xdr"
)

func fh(id uint64) fhandle.Handle {
	return fhandle.Handle{Volume: 1, FileID: id, Type: 1, CellKey: id, Site: 2, Gen: 1}
}

func at() attr.Attr {
	return attr.Attr{Type: attr.TypeReg, Mode: 0o644, Nlink: 1, Size: 10,
		FileID: 9, Mtime: attr.Time{Sec: 5}}
}

// roundTrip encodes a message and decodes it into a fresh instance.
func roundTrip(t *testing.T, in Msg, out Msg) {
	t.Helper()
	e := xdr.NewEncoder(256)
	in.Encode(e)
	if err := out.Decode(xdr.NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("%T decode: %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("%T round trip:\n in: %+v\nout: %+v", in, in, out)
	}
}

func TestAllMessagesRoundTrip(t *testing.T) {
	pairs := []struct{ in, out Msg }{
		{&GetAttrArgs{FH: fh(1)}, &GetAttrArgs{}},
		{&GetAttrRes{Status: OK, Attr: at()}, &GetAttrRes{}},
		{&GetAttrRes{Status: ErrStale}, &GetAttrRes{}},
		{&SetAttrArgs{FH: fh(2), Sattr: attr.SetAttr{SetSize: true, Size: 77}}, &SetAttrArgs{}},
		{&SetAttrRes{Status: OK, Attr: Some(at())}, &SetAttrRes{}},
		{&LookupArgs{Dir: fh(3), Name: "file.c"}, &LookupArgs{}},
		{&LookupRes{Status: OK, FH: fh(4), Attr: Some(at()), DirAttr: Some(at())}, &LookupRes{}},
		{&LookupRes{Status: ErrNoEnt, DirAttr: Some(at())}, &LookupRes{}},
		{&AccessArgs{FH: fh(5), Access: AccessRead | AccessModify}, &AccessArgs{}},
		{&AccessRes{Status: OK, Attr: Some(at()), Access: AccessRead}, &AccessRes{}},
		{&ReadArgs{FH: fh(6), Offset: 1 << 33, Count: 32768}, &ReadArgs{}},
		{&ReadRes{Status: OK, Attr: Some(at()), Count: 4, EOF: true, Data: []byte("data")}, &ReadRes{}},
		{&ReadRes{Status: ErrIO, Attr: OptAttr{}}, &ReadRes{}},
		{&WriteArgs{FH: fh(7), Offset: 8192, Count: 3, Stable: FileSync, Data: []byte("abc")}, &WriteArgs{}},
		{&WriteRes{Status: OK, Count: 3, Committed: FileSync, Verf: 99}, &WriteRes{}},
		{&CreateArgs{Dir: fh(8), Name: "new", Exclusive: true,
			Sattr: attr.SetAttr{SetMode: true, Mode: 0o600}}, &CreateArgs{}},
		{&CreateRes{Status: OK, FH: fh(9), Attr: Some(at()), DirAttr: Some(at())}, &CreateRes{}},
		{&RemoveArgs{Dir: fh(10), Name: "victim"}, &RemoveArgs{}},
		{&RemoveRes{Status: OK, DirAttr: Some(at())}, &RemoveRes{}},
		{&RenameArgs{FromDir: fh(11), FromName: "a", ToDir: fh(12), ToName: "b"}, &RenameArgs{}},
		{&RenameRes{Status: OK, FromDirAttr: Some(at()), ToDirAttr: Some(at())}, &RenameRes{}},
		{&LinkArgs{FH: fh(13), Dir: fh(14), Name: "alias"}, &LinkArgs{}},
		{&LinkRes{Status: OK, Attr: Some(at()), DirAttr: Some(at())}, &LinkRes{}},
		{&ReadDirArgs{Dir: fh(15), Cookie: 3, Count: 1024}, &ReadDirArgs{}},
		{&ReadDirRes{Status: OK, DirAttr: Some(at()), EOF: true, Entries: []DirEntry{
			{FileID: 1, Name: "x", Cookie: 1}, {FileID: 2, Name: "yy", Cookie: 2},
		}}, &ReadDirRes{}},
		{&FsStatArgs{FH: fh(16)}, &FsStatArgs{}},
		{&FsStatRes{Status: OK, Attr: Some(at()), TotalBytes: 1, FreeBytes: 2,
			TotalFiles: 3, FreeFiles: 4}, &FsStatRes{}},
		{&CommitArgs{FH: fh(17), Offset: 5, Count: 6}, &CommitArgs{}},
		{&CommitRes{Status: OK, Attr: Some(at()), Verf: 88}, &CommitRes{}},
	}
	for _, p := range pairs {
		roundTrip(t, p.in, p.out)
	}
}

func TestNewArgsNewResCoverage(t *testing.T) {
	procs := []Proc{ProcGetAttr, ProcSetAttr, ProcLookup, ProcAccess, ProcRead,
		ProcWrite, ProcCreate, ProcMkdir, ProcRemove, ProcRmdir, ProcRename,
		ProcLink, ProcReadDir, ProcFsStat, ProcCommit}
	for _, p := range procs {
		if NewArgs(p) == nil {
			t.Errorf("NewArgs(%v) = nil", p)
		}
		if NewRes(p) == nil {
			t.Errorf("NewRes(%v) = nil", p)
		}
	}
	if NewArgs(ProcNull) != nil || NewArgs(Proc(99)) != nil {
		t.Error("NewArgs invented a message for NULL/unknown")
	}
}

func TestStatusError(t *testing.T) {
	if OK.Error() != nil {
		t.Fatal("OK produced an error")
	}
	err := ErrNoEnt.Error()
	if err == nil || StatusOf(err) != ErrNoEnt {
		t.Fatalf("status error round trip: %v", err)
	}
	if got := err.Error(); got != "nfs: "+ErrNoEnt.String() {
		t.Fatalf("status error text %q", got)
	}
	if StatusOf(nil) != OK {
		t.Fatal("StatusOf(nil)")
	}
	if StatusOf(bytes.ErrTooLarge) != ErrServerFault {
		t.Fatal("foreign error should map to ErrServerFault")
	}
}

func TestProcAndStatusStrings(t *testing.T) {
	if ProcLookup.String() != "LOOKUP" || ProcCommit.String() != "COMMIT" {
		t.Fatal("proc names")
	}
	if Proc(99).String() == "" {
		t.Fatal("unknown proc name empty")
	}
	if ErrNotEmpty.String() != "ENOTEMPTY" || ErrMisrouted.String() != "EMISROUTED" {
		t.Fatal("status names")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Proc]Class{
		ProcRead: ClassIO, ProcWrite: ClassIO, ProcCommit: ClassIO,
		ProcLookup: ClassName, ProcCreate: ClassName, ProcMkdir: ClassName,
		ProcRemove: ClassName, ProcRmdir: ClassName, ProcRename: ClassName,
		ProcLink:    ClassName,
		ProcGetAttr: ClassAttr, ProcSetAttr: ClassAttr, ProcAccess: ClassAttr,
		ProcFsStat:  ClassAttr,
		ProcReadDir: ClassDir,
		ProcNull:    ClassNone,
	}
	names := map[Class]string{ClassIO: "io", ClassName: "name", ClassAttr: "attr", ClassDir: "dir", ClassNone: "none"}
	for p, want := range cases {
		if got := ClassOf(p); got != want || got.String() != names[want] {
			t.Errorf("ClassOf(%v) = %v, want %v (%s)", p, got, want, names[want])
		}
	}
}

func TestReadDirResRejectsHugeCount(t *testing.T) {
	e := xdr.NewEncoder(64)
	e.PutUint32(uint32(OK))
	(&OptAttr{}).Encode(e)
	e.PutUint32(1 << 30) // entry count
	var res ReadDirRes
	if err := res.Decode(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("hostile entry count accepted")
	}
}

func TestTruncatedMessagesError(t *testing.T) {
	msgs := []Msg{&LookupArgs{}, &WriteArgs{}, &ReadRes{}, &CreateRes{}, &RenameArgs{}}
	for _, m := range msgs {
		if err := m.Decode(xdr.NewDecoder([]byte{0, 1})); err == nil {
			t.Errorf("%T decoded from garbage", m)
		}
	}
}

func TestSymlinkMessagesRoundTrip(t *testing.T) {
	roundTrip(t, &SymlinkArgs{Dir: fh(20), Name: "ln", Target: "/a/b/c",
		Sattr: attr.SetAttr{SetMode: true, Mode: 0o777}}, &SymlinkArgs{})
	roundTrip(t, &ReadLinkArgs{FH: fh(21)}, &ReadLinkArgs{})
	roundTrip(t, &ReadLinkRes{Status: OK, Attr: Some(at()), Target: "/x"}, &ReadLinkRes{})
	roundTrip(t, &ReadLinkRes{Status: ErrStale}, &ReadLinkRes{})
	if ClassOf(ProcSymlink) != ClassName || ClassOf(ProcReadLink) != ClassAttr {
		t.Fatal("symlink procedure classes")
	}
	if NewArgs(ProcSymlink) == nil || NewArgs(ProcReadLink) == nil ||
		NewRes(ProcSymlink) == nil || NewRes(ProcReadLink) == nil {
		t.Fatal("symlink message registry")
	}
	if ProcSymlink.String() != "SYMLINK" || ProcReadLink.String() != "READLINK" {
		t.Fatal("symlink procedure names")
	}
}

// TestEncodeReadMatchesReadRes: a READ result whose data is read straight
// into the encoder is byte for byte what ReadRes.Encode produces for the
// same values — every pad length, short reads and the empty read — and
// its fixed offsets are where PeekReadRes and the µproxy's in-place
// patch look.
func TestEncodeReadMatchesReadRes(t *testing.T) {
	src := make([]byte, 70)
	for i := range src {
		src[i] = byte(i + 1)
	}
	for _, max := range []uint32{0, 1, 2, 3, 4, 64, 70} {
		for have := 0; have <= int(max); have += 1 + have/3 {
			for _, eof := range []bool{false, true} {
				e := xdr.NewEncoder(8)
				e.PutUint32(0xFEEDFACE) // EncodeRead appends; it does not own the buffer's start
				EncodeRead(e, at(), max, func(p []byte) (int, bool) {
					if len(p) != int(max) {
						t.Fatalf("fill region is %d bytes, want %d", len(p), max)
					}
					for i := range p {
						p[i] = 0xEE // a short read leaves garbage behind its count
					}
					return copy(p, src[:have]), eof
				})
				want := xdr.NewEncoder(256)
				want.PutUint32(0xFEEDFACE)
				(&ReadRes{Status: OK, Attr: Some(at()), Count: uint32(have), EOF: eof, Data: src[:have]}).Encode(want)
				if !bytes.Equal(e.Bytes(), want.Bytes()) {
					t.Fatalf("max %d have %d eof %v:\n got %x\nwant %x", max, have, eof, e.Bytes(), want.Bytes())
				}
				body := e.Bytes()[4:]
				if count, ok := PeekReadRes(body); !ok || int(count) != have {
					t.Fatalf("PeekReadRes = %d %v, want %d true", count, ok, have)
				}
			}
		}
	}
}

// TestPeekReadResRejects: only a successful READ reply with attributes
// present, and nothing after it, has the fixed layout.
func TestPeekReadResRejects(t *testing.T) {
	enc := func(m *ReadRes) []byte {
		e := xdr.NewEncoder(256)
		m.Encode(e)
		return e.Bytes()
	}
	if _, ok := PeekReadRes(enc(&ReadRes{Status: OK, Count: 4, Data: []byte("data")})); ok {
		t.Fatal("reply without attributes accepted")
	}
	if _, ok := PeekReadRes(enc(&ReadRes{Status: ErrIO, Attr: Some(at())})); ok {
		t.Fatal("error reply accepted")
	}
	full := enc(&ReadRes{Status: OK, Attr: Some(at())})
	if _, ok := PeekReadRes(full); !ok {
		t.Fatal("empty successful read rejected")
	}
	if _, ok := PeekReadRes(full[:len(full)-1]); ok {
		t.Fatal("truncated reply accepted")
	}
	// The result must end where the data says: bytes after it, data cut
	// short of its length, or a count the data does not back are no
	// layout to patch.
	data := enc(&ReadRes{Status: OK, Attr: Some(at()), Count: 5, Data: []byte("12345")})
	if count, ok := PeekReadRes(data); !ok || count != 5 {
		t.Fatalf("five-byte read: %d %v, want 5 true", count, ok)
	}
	if _, ok := PeekReadRes(append(data[:len(data):len(data)], "trailer\x00"...)); ok {
		t.Fatal("reply with trailing bytes accepted")
	}
	if _, ok := PeekReadRes(data[:len(data)-4]); ok {
		t.Fatal("reply shorter than its data accepted")
	}
	if _, ok := PeekReadRes(enc(&ReadRes{Status: OK, Attr: Some(at()), Count: 9, Data: []byte("12345")})); ok {
		t.Fatal("count disagreeing with the opaque length accepted")
	}
}
