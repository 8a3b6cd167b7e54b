// Package nfsproto defines the Slice file access protocol: an NFS-V3-style
// message set with an XDR wire encoding.
//
// Procedure numbers, status codes, and message layouts follow RFC 1813
// closely enough that the µproxy's request classification (§3 of the paper)
// operates on the same fields a real NFS V3 interposer would see: the
// request type, the target file handle, the name argument and its parent
// directory handle, and the logical offset of I/O requests.
//
// Deviations from RFC 1813 are deliberate simplifications documented in
// DESIGN.md: handles are fixed 32-byte tokens rather than variable opaque,
// post-op attributes use a single optional fattr3 (no wcc_data), and the
// unused procedures (MKNOD, READDIRPLUS, FSINFO, PATHCONF) are not
// implemented.
package nfsproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slice/internal/attr"
	"slice/internal/fhandle"
	"slice/internal/xdr"
)

// Program and version identify the file service in RPC call headers.
const (
	Program = 100003 // standard NFS program number
	Version = 3
)

// Proc enumerates protocol procedures. Values match RFC 1813.
type Proc uint32

// Procedures implemented by Slice.
const (
	ProcNull     Proc = 0
	ProcGetAttr  Proc = 1
	ProcSetAttr  Proc = 2
	ProcLookup   Proc = 3
	ProcAccess   Proc = 4
	ProcReadLink Proc = 5
	ProcRead     Proc = 6
	ProcWrite    Proc = 7
	ProcCreate   Proc = 8
	ProcMkdir    Proc = 9
	ProcSymlink  Proc = 10
	ProcRemove   Proc = 12
	ProcRmdir    Proc = 13
	ProcRename   Proc = 14
	ProcLink     Proc = 15
	ProcReadDir  Proc = 16
	ProcFsStat   Proc = 18
	ProcCommit   Proc = 21
)

// String returns the conventional procedure name.
func (p Proc) String() string {
	switch p {
	case ProcNull:
		return "NULL"
	case ProcGetAttr:
		return "GETATTR"
	case ProcSetAttr:
		return "SETATTR"
	case ProcLookup:
		return "LOOKUP"
	case ProcAccess:
		return "ACCESS"
	case ProcReadLink:
		return "READLINK"
	case ProcRead:
		return "READ"
	case ProcWrite:
		return "WRITE"
	case ProcCreate:
		return "CREATE"
	case ProcMkdir:
		return "MKDIR"
	case ProcSymlink:
		return "SYMLINK"
	case ProcRemove:
		return "REMOVE"
	case ProcRmdir:
		return "RMDIR"
	case ProcRename:
		return "RENAME"
	case ProcLink:
		return "LINK"
	case ProcReadDir:
		return "READDIR"
	case ProcFsStat:
		return "FSSTAT"
	case ProcCommit:
		return "COMMIT"
	default:
		return fmt.Sprintf("PROC(%d)", uint32(p))
	}
}

// Idempotent reports whether a retransmitted call of p may simply run
// again: NULL, GETATTR, LOOKUP, ACCESS, READLINK, READ, READDIR and FSSTAT
// change nothing, so a second execution answers as the first would have
// (RFC 1813; Linux nfsd serves them uncached). Every other procedure —
// SETATTR, WRITE, CREATE, MKDIR, SYMLINK, REMOVE, RMDIR, RENAME, LINK,
// COMMIT, and any this package does not know — must answer a
// retransmission as it answered the call, from the outcome the server
// recorded (once.Table).
func (p Proc) Idempotent() bool {
	switch p {
	case ProcNull, ProcGetAttr, ProcLookup, ProcAccess, ProcReadLink, ProcRead, ProcReadDir, ProcFsStat:
		return true
	}
	return false
}

// Status is an NFS V3 status code (nfsstat3).
type Status uint32

// Status codes. Values match RFC 1813.
const (
	OK             Status = 0
	ErrPerm        Status = 1
	ErrNoEnt       Status = 2
	ErrIO          Status = 5
	ErrAccess      Status = 13
	ErrExist       Status = 17
	ErrXDev        Status = 18
	ErrNoDev       Status = 19
	ErrNotDir      Status = 20
	ErrIsDir       Status = 21
	ErrInval       Status = 22
	ErrFBig        Status = 27
	ErrNoSpc       Status = 28
	ErrROFS        Status = 30
	ErrNameTooLong Status = 63
	ErrNotEmpty    Status = 66
	ErrStale       Status = 70
	ErrBadHandle   Status = 10001
	ErrNotSync     Status = 10002
	ErrBadCookie   Status = 10003
	ErrNotSupp     Status = 10004
	ErrServerFault Status = 10006
	ErrJukebox     Status = 10008
	// ErrMisrouted is a Slice extension: a server received a request whose
	// routing key does not map to it, indicating the µproxy holds a stale
	// routing table (§3.3.1). The µproxy refreshes its table and retries.
	ErrMisrouted Status = 10100
)

// String returns the conventional status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrPerm:
		return "EPERM"
	case ErrNoEnt:
		return "ENOENT"
	case ErrIO:
		return "EIO"
	case ErrAccess:
		return "EACCES"
	case ErrExist:
		return "EEXIST"
	case ErrXDev:
		return "EXDEV"
	case ErrNotDir:
		return "ENOTDIR"
	case ErrIsDir:
		return "EISDIR"
	case ErrInval:
		return "EINVAL"
	case ErrFBig:
		return "EFBIG"
	case ErrNoSpc:
		return "ENOSPC"
	case ErrROFS:
		return "EROFS"
	case ErrNameTooLong:
		return "ENAMETOOLONG"
	case ErrNotEmpty:
		return "ENOTEMPTY"
	case ErrStale:
		return "ESTALE"
	case ErrBadHandle:
		return "EBADHANDLE"
	case ErrNotSync:
		return "ENOTSYNC"
	case ErrBadCookie:
		return "EBADCOOKIE"
	case ErrNotSupp:
		return "ENOTSUPP"
	case ErrServerFault:
		return "ESERVERFAULT"
	case ErrJukebox:
		return "EJUKEBOX"
	case ErrMisrouted:
		return "EMISROUTED"
	default:
		return fmt.Sprintf("nfsstat(%d)", uint32(s))
	}
}

// Error converts a non-OK status into a Go error; OK yields nil. Each
// status this package names has one preallocated error, so a failed call
// — the ENOENT LOOKUP ahead of every create — allocates none.
func (s Status) Error() error {
	if s == OK {
		return nil
	}
	if e, ok := statusErrors[s]; ok {
		return e
	}
	return &StatusError{Status: s}
}

// statusErrors holds the one error of each named status (Status.Error).
var statusErrors = func() map[Status]*StatusError {
	m := make(map[Status]*StatusError)
	for _, s := range []Status{ErrPerm, ErrNoEnt, ErrIO, ErrAccess, ErrExist,
		ErrXDev, ErrNoDev, ErrNotDir, ErrIsDir, ErrInval, ErrFBig, ErrNoSpc,
		ErrROFS, ErrNameTooLong, ErrNotEmpty, ErrStale, ErrBadHandle,
		ErrNotSync, ErrBadCookie, ErrNotSupp, ErrServerFault, ErrJukebox,
		ErrMisrouted} {
		m[s] = &StatusError{Status: s}
	}
	return m
}()

// StatusError wraps a protocol status as a Go error. Status.Error shares
// one per status: never modify one.
type StatusError struct{ Status Status }

// Error implements the error interface.
func (e *StatusError) Error() string { return "nfs: " + e.Status.String() }

// StatusOf extracts the protocol status from err: nil maps to OK, a
// StatusError — err itself, or one it wraps — maps to its code, anything
// else to ErrServerFault. An unwrapped StatusError is type-asserted, which
// allocates nothing; only a wrapped one pays for errors.As.
func StatusOf(err error) Status {
	if err == nil {
		return OK
	}
	if se, ok := err.(*StatusError); ok {
		return se.Status
	}
	var se *StatusError // escapes into errors.As: allocated only here
	if errors.As(err, &se) {
		return se.Status
	}
	return ErrServerFault
}

// Stability levels for WRITE (RFC 1813 stable_how).
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)

// Access permission bits for ACCESS (RFC 1813).
const (
	AccessRead    = 0x01
	AccessLookup  = 0x02
	AccessModify  = 0x04
	AccessExtend  = 0x08
	AccessDelete  = 0x10
	AccessExecute = 0x20
)

// MaxName bounds the length of a single name component.
const MaxName = 255

// Msg is a protocol message body (arguments or results).
type Msg interface {
	Encode(e *xdr.Encoder)
	Decode(d *xdr.Decoder) error
}

// OptAttr is an optional post-op attribute block (post_op_attr).
type OptAttr struct {
	Present bool
	Attr    attr.Attr
}

// Some returns a present OptAttr holding a.
func Some(a attr.Attr) OptAttr { return OptAttr{Present: true, Attr: a} }

// Encode appends the optional attribute block to e.
func (o *OptAttr) Encode(e *xdr.Encoder) {
	e.PutBool(o.Present)
	if o.Present {
		o.Attr.Encode(e)
	}
}

// Decode reads the optional attribute block from d.
func (o *OptAttr) Decode(d *xdr.Decoder) error {
	p, err := d.Bool()
	if err != nil {
		return err
	}
	o.Present = p
	if p {
		return o.Attr.Decode(d)
	}
	o.Attr = attr.Attr{}
	return nil
}

// ---------------------------------------------------------------- GETATTR

// GetAttrArgs are the arguments of GETATTR.
type GetAttrArgs struct {
	FH fhandle.Handle
}

// Encode implements Msg.
func (m *GetAttrArgs) Encode(e *xdr.Encoder) { m.FH.Encode(e) }

// Decode implements Msg.
func (m *GetAttrArgs) Decode(d *xdr.Decoder) (err error) {
	m.FH, err = fhandle.Decode(d)
	return err
}

// GetAttrRes are the results of GETATTR.
type GetAttrRes struct {
	Status Status
	Attr   attr.Attr
}

// Encode implements Msg.
func (m *GetAttrRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	if m.Status == OK {
		m.Attr.Encode(e)
	}
}

// Decode implements Msg.
func (m *GetAttrRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if m.Status == OK {
		return m.Attr.Decode(d)
	}
	return nil
}

// GetAttrResAttrOff is the offset of the attribute block within the body
// of a successful GETATTR reply: a status, then the block.
const GetAttrResAttrOff = 4

// PeekGetAttrRes reports whether body is exactly a successful GETATTR
// result.
func PeekGetAttrRes(body []byte) bool {
	return len(body) == GetAttrResAttrOff+attr.EncodedSize && Status(binary.BigEndian.Uint32(body)) == OK
}

// ---------------------------------------------------------------- SETATTR

// SetAttrArgs are the arguments of SETATTR.
type SetAttrArgs struct {
	FH    fhandle.Handle
	Sattr attr.SetAttr
}

// Encode implements Msg.
func (m *SetAttrArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	m.Sattr.Encode(e)
}

// Decode implements Msg.
func (m *SetAttrArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	return m.Sattr.Decode(d)
}

// SetAttrRes are the results of SETATTR.
type SetAttrRes struct {
	Status Status
	Attr   OptAttr
}

// Encode implements Msg.
func (m *SetAttrRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
}

// Decode implements Msg.
func (m *SetAttrRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	return m.Attr.Decode(d)
}

// ---------------------------------------------------------------- LOOKUP

// LookupArgs are the arguments of LOOKUP.
type LookupArgs struct {
	Dir  fhandle.Handle
	Name string
}

// Encode implements Msg.
func (m *LookupArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.PutString(m.Name)
}

// Decode implements Msg.
func (m *LookupArgs) Decode(d *xdr.Decoder) (err error) {
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	m.Name, err = d.String()
	return err
}

// LookupRes are the results of LOOKUP.
type LookupRes struct {
	Status  Status
	FH      fhandle.Handle
	Attr    OptAttr
	DirAttr OptAttr
}

// Encode implements Msg.
func (m *LookupRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	if m.Status == OK {
		m.FH.Encode(e)
		m.Attr.Encode(e)
	}
	m.DirAttr.Encode(e)
}

// Decode implements Msg.
func (m *LookupRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if m.Status == OK {
		if m.FH, err = fhandle.Decode(d); err != nil {
			return err
		}
		if err = m.Attr.Decode(d); err != nil {
			return err
		}
	}
	return m.DirAttr.Decode(d)
}

// Byte offsets within the body of a successful LOOKUP, CREATE, MKDIR or
// SYMLINK reply — the four share LookupRes's layout — that carries the
// child's attributes: status, handle, attributes-follow flag, attributes,
// then the directory's optional attribute block.
const (
	ChildResFHOff   = 4
	ChildResAttrOff = ChildResFHOff + fhandle.Size + 4
	childResDirOff  = ChildResAttrOff + attr.EncodedSize // the directory's attributes-follow flag
)

// PeekChildRes reports whether body is exactly a successful LOOKUP,
// CREATE, MKDIR or SYMLINK result with the child's attributes present —
// the fixed layout above. It returns the offset of the directory's
// attribute block (0 when the reply carries none).
func PeekChildRes(body []byte) (dirAttrOff int, ok bool) {
	end := childResDirOff + 4
	if len(body) < end || Status(binary.BigEndian.Uint32(body)) != OK ||
		binary.BigEndian.Uint32(body[ChildResAttrOff-4:]) != 1 {
		return 0, false
	}
	switch binary.BigEndian.Uint32(body[childResDirOff:]) {
	case 0:
		return 0, len(body) == end
	case 1:
		return end, len(body) == end+attr.EncodedSize
	}
	return 0, false
}

// ---------------------------------------------------------------- ACCESS

// AccessArgs are the arguments of ACCESS.
type AccessArgs struct {
	FH     fhandle.Handle
	Access uint32
}

// Encode implements Msg.
func (m *AccessArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	e.PutUint32(m.Access)
}

// Decode implements Msg.
func (m *AccessArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	m.Access, err = d.Uint32()
	return err
}

// AccessRes are the results of ACCESS.
type AccessRes struct {
	Status Status
	Attr   OptAttr
	Access uint32
}

// Encode implements Msg.
func (m *AccessRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutUint32(m.Access)
	}
}

// Decode implements Msg.
func (m *AccessRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status == OK {
		m.Access, err = d.Uint32()
		return err
	}
	return nil
}

// ---------------------------------------------------------------- READ

// ReadArgs are the arguments of READ.
type ReadArgs struct {
	FH     fhandle.Handle
	Offset uint64
	Count  uint32
}

// Encode implements Msg.
func (m *ReadArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	e.PutUint64(m.Offset)
	e.PutUint32(m.Count)
}

// Decode implements Msg.
func (m *ReadArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Offset, err = d.Uint64(); err != nil {
		return err
	}
	m.Count, err = d.Uint32()
	return err
}

// ReadRes are the results of READ.
type ReadRes struct {
	Status Status
	Attr   OptAttr
	Count  uint32
	EOF    bool
	Data   []byte
}

// Encode implements Msg.
func (m *ReadRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutUint32(m.Count)
		e.PutBool(m.EOF)
		e.PutOpaque(m.Data)
	}
}

// Decode implements Msg.
func (m *ReadRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status != OK {
		return nil
	}
	if m.Count, err = d.Uint32(); err != nil {
		return err
	}
	if m.EOF, err = d.Bool(); err != nil {
		return err
	}
	m.Data, err = d.Opaque()
	return err
}

// Byte offsets within the body of a successful READ reply that carries
// post-op attributes. Data servers always answer READ in this shape —
// the attributes are their local view of the object, a placeholder — so
// the µproxy can overwrite the attribute block and the EOF flag of the
// datagram in place instead of re-encoding the data behind them.
const (
	ReadResAttrOff  = 8 // after the status and the attributes-follow flag
	ReadResCountOff = ReadResAttrOff + attr.EncodedSize
	ReadResEOFOff   = ReadResCountOff + 4
	readResDataOff  = ReadResEOFOff + 8 // after the opaque length
)

// PeekReadRes reports whether body is exactly a successful READ reply
// with attributes present — the fixed layout above — whose opaque length
// agrees with its count and whose padded data ends the body. It returns
// the count.
func PeekReadRes(body []byte) (count uint32, ok bool) {
	if len(body) < readResDataOff ||
		Status(binary.BigEndian.Uint32(body)) != OK || binary.BigEndian.Uint32(body[4:]) != 1 {
		return 0, false
	}
	count = binary.BigEndian.Uint32(body[ReadResCountOff:])
	if count > xdr.MaxOpaque || binary.BigEndian.Uint32(body[readResDataOff-4:]) != count {
		return 0, false
	}
	return count, len(body) == readResDataOff+(int(count)+3)&^3
}

// EncodeRead appends a successful READ result carrying at whose data is
// read straight into the encoder's buffer: fill is handed a region of
// max bytes and returns how many of them it filled and whether the read
// reached the end of the object.
func EncodeRead(e *xdr.Encoder, at attr.Attr, max uint32, fill func(p []byte) (n int, eof bool)) {
	if max > xdr.MaxOpaque {
		max = xdr.MaxOpaque // a short read, not an unbounded buffer
	}
	body := e.Len()
	e.PutUint32(uint32(OK))
	e.PutBool(true)
	at.Encode(e)
	e.PutUint64(0) // count and EOF, known once fill has run
	e.PutUint32(0) // opaque length, likewise
	n, eof := fill(e.Reserve(int(max)))
	e.Truncate(body + readResDataOff)
	e.Reserve(n)
	b := e.Bytes()[body:]
	binary.BigEndian.PutUint32(b[ReadResCountOff:], uint32(n))
	if eof {
		b[ReadResEOFOff+3] = 1
	}
	binary.BigEndian.PutUint32(b[readResDataOff-4:], uint32(n))
}

// ---------------------------------------------------------------- WRITE

// WriteArgs are the arguments of WRITE.
type WriteArgs struct {
	FH     fhandle.Handle
	Offset uint64
	Count  uint32
	Stable uint32
	Data   []byte
}

// Encode implements Msg.
func (m *WriteArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	e.PutUint64(m.Offset)
	e.PutUint32(m.Count)
	e.PutUint32(m.Stable)
	e.PutOpaque(m.Data)
}

// Decode implements Msg.
func (m *WriteArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Offset, err = d.Uint64(); err != nil {
		return err
	}
	if m.Count, err = d.Uint32(); err != nil {
		return err
	}
	if m.Stable, err = d.Uint32(); err != nil {
		return err
	}
	m.Data, err = d.Opaque()
	return err
}

// WriteRes are the results of WRITE.
type WriteRes struct {
	Status    Status
	Attr      OptAttr
	Count     uint32
	Committed uint32
	Verf      uint64
}

// Encode implements Msg.
func (m *WriteRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutUint32(m.Count)
		e.PutUint32(m.Committed)
		e.PutUint64(m.Verf)
	}
}

// Decode implements Msg.
func (m *WriteRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status != OK {
		return nil
	}
	if m.Count, err = d.Uint32(); err != nil {
		return err
	}
	if m.Committed, err = d.Uint32(); err != nil {
		return err
	}
	m.Verf, err = d.Uint64()
	return err
}

// ---------------------------------------------------------------- CREATE / MKDIR

// CreateArgs are the arguments of CREATE and MKDIR.
type CreateArgs struct {
	Dir       fhandle.Handle
	Name      string
	Sattr     attr.SetAttr
	Exclusive bool // CREATE only: fail if the name exists
}

// Encode implements Msg.
func (m *CreateArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.PutString(m.Name)
	e.PutBool(m.Exclusive)
	m.Sattr.Encode(e)
}

// Decode implements Msg.
func (m *CreateArgs) Decode(d *xdr.Decoder) (err error) {
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Name, err = d.String(); err != nil {
		return err
	}
	if m.Exclusive, err = d.Bool(); err != nil {
		return err
	}
	return m.Sattr.Decode(d)
}

// CreateRes are the results of CREATE and MKDIR.
type CreateRes struct {
	Status  Status
	FH      fhandle.Handle
	Attr    OptAttr
	DirAttr OptAttr
}

// Encode implements Msg.
func (m *CreateRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	if m.Status == OK {
		m.FH.Encode(e)
		m.Attr.Encode(e)
	}
	m.DirAttr.Encode(e)
}

// Decode implements Msg.
func (m *CreateRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if m.Status == OK {
		if m.FH, err = fhandle.Decode(d); err != nil {
			return err
		}
		if err = m.Attr.Decode(d); err != nil {
			return err
		}
	}
	return m.DirAttr.Decode(d)
}

// ---------------------------------------------------------------- REMOVE / RMDIR

// RemoveArgs are the arguments of REMOVE and RMDIR.
type RemoveArgs struct {
	Dir  fhandle.Handle
	Name string
}

// Encode implements Msg.
func (m *RemoveArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.PutString(m.Name)
}

// Decode implements Msg.
func (m *RemoveArgs) Decode(d *xdr.Decoder) (err error) {
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	m.Name, err = d.String()
	return err
}

// RemoveRes are the results of REMOVE and RMDIR.
type RemoveRes struct {
	Status  Status
	DirAttr OptAttr
}

// Encode implements Msg.
func (m *RemoveRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.DirAttr.Encode(e)
}

// Decode implements Msg.
func (m *RemoveRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	return m.DirAttr.Decode(d)
}

// ---------------------------------------------------------------- RENAME

// RenameArgs are the arguments of RENAME.
type RenameArgs struct {
	FromDir  fhandle.Handle
	FromName string
	ToDir    fhandle.Handle
	ToName   string
}

// Encode implements Msg.
func (m *RenameArgs) Encode(e *xdr.Encoder) {
	m.FromDir.Encode(e)
	e.PutString(m.FromName)
	m.ToDir.Encode(e)
	e.PutString(m.ToName)
}

// Decode implements Msg.
func (m *RenameArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FromDir, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.FromName, err = d.String(); err != nil {
		return err
	}
	if m.ToDir, err = fhandle.Decode(d); err != nil {
		return err
	}
	m.ToName, err = d.String()
	return err
}

// RenameRes are the results of RENAME.
type RenameRes struct {
	Status      Status
	FromDirAttr OptAttr
	ToDirAttr   OptAttr
}

// Encode implements Msg.
func (m *RenameRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.FromDirAttr.Encode(e)
	m.ToDirAttr.Encode(e)
}

// Decode implements Msg.
func (m *RenameRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.FromDirAttr.Decode(d); err != nil {
		return err
	}
	return m.ToDirAttr.Decode(d)
}

// ---------------------------------------------------------------- LINK

// LinkArgs are the arguments of LINK.
type LinkArgs struct {
	FH   fhandle.Handle // existing file
	Dir  fhandle.Handle // directory for the new name
	Name string
}

// Encode implements Msg.
func (m *LinkArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	m.Dir.Encode(e)
	e.PutString(m.Name)
}

// Decode implements Msg.
func (m *LinkArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	m.Name, err = d.String()
	return err
}

// LinkRes are the results of LINK.
type LinkRes struct {
	Status  Status
	Attr    OptAttr
	DirAttr OptAttr
}

// Encode implements Msg.
func (m *LinkRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	m.DirAttr.Encode(e)
}

// Decode implements Msg.
func (m *LinkRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	return m.DirAttr.Decode(d)
}

// ---------------------------------------------------------------- READDIR

// DirEntry is one entry in a READDIR reply.
type DirEntry struct {
	FileID uint64
	Name   string
	Cookie uint64
}

// ReadDirArgs are the arguments of READDIR.
type ReadDirArgs struct {
	Dir    fhandle.Handle
	Cookie uint64
	Count  uint32 // maximum reply bytes
}

// Encode implements Msg.
func (m *ReadDirArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.PutUint64(m.Cookie)
	e.PutUint32(m.Count)
}

// Decode implements Msg.
func (m *ReadDirArgs) Decode(d *xdr.Decoder) (err error) {
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Cookie, err = d.Uint64(); err != nil {
		return err
	}
	m.Count, err = d.Uint32()
	return err
}

// ReadDirRes are the results of READDIR.
type ReadDirRes struct {
	Status  Status
	DirAttr OptAttr
	Entries []DirEntry
	EOF     bool
}

// MaxDirEntries bounds the entries in one READDIR reply.
const MaxDirEntries = 4096

// Encode implements Msg.
func (m *ReadDirRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.DirAttr.Encode(e)
	if m.Status != OK {
		return
	}
	e.PutUint32(uint32(len(m.Entries)))
	for i := range m.Entries {
		ent := &m.Entries[i]
		e.PutUint64(ent.FileID)
		e.PutString(ent.Name)
		e.PutUint64(ent.Cookie)
	}
	e.PutBool(m.EOF)
}

// Decode implements Msg.
func (m *ReadDirRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.DirAttr.Decode(d); err != nil {
		return err
	}
	if m.Status != OK {
		return nil
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if err = xdr.CheckLen(n, MaxDirEntries); err != nil {
		return err
	}
	m.Entries = make([]DirEntry, n)
	for i := range m.Entries {
		ent := &m.Entries[i]
		if ent.FileID, err = d.Uint64(); err != nil {
			return err
		}
		if ent.Name, err = d.String(); err != nil {
			return err
		}
		if ent.Cookie, err = d.Uint64(); err != nil {
			return err
		}
	}
	m.EOF, err = d.Bool()
	return err
}

// ---------------------------------------------------------------- FSSTAT

// FsStatArgs are the arguments of FSSTAT.
type FsStatArgs struct {
	FH fhandle.Handle
}

// Encode implements Msg.
func (m *FsStatArgs) Encode(e *xdr.Encoder) { m.FH.Encode(e) }

// Decode implements Msg.
func (m *FsStatArgs) Decode(d *xdr.Decoder) (err error) {
	m.FH, err = fhandle.Decode(d)
	return err
}

// FsStatRes are the results of FSSTAT.
type FsStatRes struct {
	Status     Status
	Attr       OptAttr
	TotalBytes uint64
	FreeBytes  uint64
	TotalFiles uint64
	FreeFiles  uint64
}

// Encode implements Msg.
func (m *FsStatRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutUint64(m.TotalBytes)
		e.PutUint64(m.FreeBytes)
		e.PutUint64(m.TotalFiles)
		e.PutUint64(m.FreeFiles)
	}
}

// Decode implements Msg.
func (m *FsStatRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status != OK {
		return nil
	}
	if m.TotalBytes, err = d.Uint64(); err != nil {
		return err
	}
	if m.FreeBytes, err = d.Uint64(); err != nil {
		return err
	}
	if m.TotalFiles, err = d.Uint64(); err != nil {
		return err
	}
	m.FreeFiles, err = d.Uint64()
	return err
}

// ---------------------------------------------------------------- COMMIT

// CommitArgs are the arguments of COMMIT.
type CommitArgs struct {
	FH     fhandle.Handle
	Offset uint64
	Count  uint32
}

// Encode implements Msg.
func (m *CommitArgs) Encode(e *xdr.Encoder) {
	m.FH.Encode(e)
	e.PutUint64(m.Offset)
	e.PutUint32(m.Count)
}

// Decode implements Msg.
func (m *CommitArgs) Decode(d *xdr.Decoder) (err error) {
	if m.FH, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Offset, err = d.Uint64(); err != nil {
		return err
	}
	m.Count, err = d.Uint32()
	return err
}

// CommitRes are the results of COMMIT.
type CommitRes struct {
	Status Status
	Attr   OptAttr
	Verf   uint64
}

// Encode implements Msg.
func (m *CommitRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutUint64(m.Verf)
	}
}

// Decode implements Msg.
func (m *CommitRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status == OK {
		m.Verf, err = d.Uint64()
		return err
	}
	return nil
}

// NewArgs returns a zero arguments message for proc, or nil for unknown
// procedures (and for NULL, which has an empty body).
func NewArgs(proc Proc) Msg {
	switch proc {
	case ProcSymlink:
		return &SymlinkArgs{}
	case ProcReadLink:
		return &ReadLinkArgs{}
	case ProcGetAttr:
		return &GetAttrArgs{}
	case ProcSetAttr:
		return &SetAttrArgs{}
	case ProcLookup:
		return &LookupArgs{}
	case ProcAccess:
		return &AccessArgs{}
	case ProcRead:
		return &ReadArgs{}
	case ProcWrite:
		return &WriteArgs{}
	case ProcCreate, ProcMkdir:
		return &CreateArgs{}
	case ProcRemove, ProcRmdir:
		return &RemoveArgs{}
	case ProcRename:
		return &RenameArgs{}
	case ProcLink:
		return &LinkArgs{}
	case ProcReadDir:
		return &ReadDirArgs{}
	case ProcFsStat:
		return &FsStatArgs{}
	case ProcCommit:
		return &CommitArgs{}
	default:
		return nil
	}
}

// NewRes returns a zero results message for proc, or nil for unknown
// procedures (and for NULL).
func NewRes(proc Proc) Msg {
	switch proc {
	case ProcSymlink:
		return &CreateRes{}
	case ProcReadLink:
		return &ReadLinkRes{}
	case ProcGetAttr:
		return &GetAttrRes{}
	case ProcSetAttr:
		return &SetAttrRes{}
	case ProcLookup:
		return &LookupRes{}
	case ProcAccess:
		return &AccessRes{}
	case ProcRead:
		return &ReadRes{}
	case ProcWrite:
		return &WriteRes{}
	case ProcCreate, ProcMkdir:
		return &CreateRes{}
	case ProcRemove, ProcRmdir:
		return &RemoveRes{}
	case ProcRename:
		return &RenameRes{}
	case ProcLink:
		return &LinkRes{}
	case ProcReadDir:
		return &ReadDirRes{}
	case ProcFsStat:
		return &FsStatRes{}
	case ProcCommit:
		return &CommitRes{}
	default:
		return nil
	}
}

// ---------------------------------------------------------------- SYMLINK

// SymlinkArgs are the arguments of SYMLINK.
type SymlinkArgs struct {
	Dir    fhandle.Handle
	Name   string
	Target string // link contents (the path the symlink points to)
	Sattr  attr.SetAttr
}

// Encode implements Msg.
func (m *SymlinkArgs) Encode(e *xdr.Encoder) {
	m.Dir.Encode(e)
	e.PutString(m.Name)
	e.PutString(m.Target)
	m.Sattr.Encode(e)
}

// Decode implements Msg.
func (m *SymlinkArgs) Decode(d *xdr.Decoder) (err error) {
	if m.Dir, err = fhandle.Decode(d); err != nil {
		return err
	}
	if m.Name, err = d.String(); err != nil {
		return err
	}
	if m.Target, err = d.String(); err != nil {
		return err
	}
	return m.Sattr.Decode(d)
}

// SYMLINK results reuse CreateRes: the reply layout is identical.

// ---------------------------------------------------------------- READLINK

// ReadLinkArgs are the arguments of READLINK.
type ReadLinkArgs struct {
	FH fhandle.Handle
}

// Encode implements Msg.
func (m *ReadLinkArgs) Encode(e *xdr.Encoder) { m.FH.Encode(e) }

// Decode implements Msg.
func (m *ReadLinkArgs) Decode(d *xdr.Decoder) (err error) {
	m.FH, err = fhandle.Decode(d)
	return err
}

// ReadLinkRes are the results of READLINK.
type ReadLinkRes struct {
	Status Status
	Attr   OptAttr
	Target string
}

// Encode implements Msg.
func (m *ReadLinkRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(m.Status))
	m.Attr.Encode(e)
	if m.Status == OK {
		e.PutString(m.Target)
	}
}

// Decode implements Msg.
func (m *ReadLinkRes) Decode(d *xdr.Decoder) error {
	s, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Status = Status(s)
	if err = m.Attr.Decode(d); err != nil {
		return err
	}
	if m.Status == OK {
		m.Target, err = d.String()
		return err
	}
	return nil
}
