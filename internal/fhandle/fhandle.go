// Package fhandle defines Slice file handles.
//
// A handle is a fixed 32-byte token, opaque to clients, minted by the
// directory servers. Following §3 and §4.3 of the paper, the handle carries
// the fields the µproxy and the servers key their routing and lookup
// structures on:
//
//   - the volume and fileID identifying the file,
//   - the file type, so the µproxy can classify requests without state,
//   - a cell key placed by the directory server that minted the handle,
//     letting any directory server locate the resident attribute cell,
//   - the logical site that owns the attribute cell (fixed placement), and
//   - a generation number to fence stale handles after delete/recreate.
//
// Bytes 13–15 of the wire form once held per-file placement hints
// (mirroring, block maps). Redundancy is now the storage array's replica
// groups, not a property of the file, so they are written zero and
// ignored on parse.
package fhandle

import (
	"crypto/hmac"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"

	"slice/internal/xdr"
)

// Size is the fixed wire size of a file handle in bytes.
const Size = 32

// Handle identifies a file or directory within a Slice volume.
type Handle struct {
	Volume  uint32 // volume identifier (virtual server may host several)
	FileID  uint64 // unique file identifier within the volume
	Type    uint8  // attr.FileType truncated to a byte
	CellKey uint64 // directory-server cell locator key
	Site    uint32 // logical site ID of the owning directory server
	Gen     uint32 // generation number
}

// ErrBadHandle indicates a malformed wire handle.
var ErrBadHandle = errors.New("fhandle: bad handle")

// Encode appends the handle to e as fixed-length opaque data.
func (h Handle) Encode(e *xdr.Encoder) {
	var b [Size]byte
	h.marshal(&b)
	e.PutFixedOpaque(b[:])
}

// Decode reads a handle from d.
func Decode(d *xdr.Decoder) (Handle, error) {
	p, err := d.FixedOpaque(Size)
	if err != nil {
		return Handle{}, err
	}
	return Unmarshal(p)
}

func (h Handle) marshal(b *[Size]byte) {
	binary.BigEndian.PutUint32(b[0:], h.Volume)
	binary.BigEndian.PutUint64(b[4:], h.FileID)
	b[12] = h.Type
	binary.BigEndian.PutUint64(b[16:], h.CellKey)
	binary.BigEndian.PutUint32(b[24:], h.Site)
	binary.BigEndian.PutUint32(b[28:], h.Gen)
}

// Marshal returns the 32-byte wire form of the handle.
func (h Handle) Marshal() []byte {
	var b [Size]byte
	h.marshal(&b)
	return b[:]
}

// Unmarshal parses a 32-byte wire handle.
func Unmarshal(p []byte) (Handle, error) {
	if len(p) != Size {
		return Handle{}, fmt.Errorf("%w: length %d", ErrBadHandle, len(p))
	}
	return Handle{
		Volume:  binary.BigEndian.Uint32(p[0:]),
		FileID:  binary.BigEndian.Uint64(p[4:]),
		Type:    p[12],
		CellKey: binary.BigEndian.Uint64(p[16:]),
		Site:    binary.BigEndian.Uint32(p[24:]),
		Gen:     binary.BigEndian.Uint32(p[28:]),
	}, nil
}

// IsZero reports whether the handle is the zero handle.
func (h Handle) IsZero() bool { return h == Handle{} }

// String renders the handle compactly for logs and errors.
func (h Handle) String() string {
	return fmt.Sprintf("fh{vol=%d id=%d t=%d site=%d gen=%d}",
		h.Volume, h.FileID, h.Type, h.Site, h.Gen)
}

// Key returns a comparable map key for the handle identity (volume, fileID,
// generation). Routing fields are excluded so rerouted copies (a capability
// in CellKey, say) compare equal.
type Key struct {
	Volume uint32
	FileID uint64
	Gen    uint32
}

// Ident returns the identity key of the handle.
func (h Handle) Ident() Key {
	return Key{Volume: h.Volume, FileID: h.FileID, Gen: h.Gen}
}

// NameKey computes the MD5-based fingerprint over (parent handle, name)
// used to key directory hash chains and the name-hashing routing policy
// (§3.2, §4.3). The paper selected MD5 empirically for its balance. Only
// the parent's identity fields participate: two copies of a handle that
// differ in routing fields or type bits must fingerprint identically, or
// the µproxy and the directory servers would disagree about placement.
//
// The handle bytes and the name are hashed with md5.Sum from a stack
// array, allocating nothing for a name of up to maxStackName bytes; a
// longer one, which no NFS name is, grows the slice onto the heap.
func NameKey(parent Handle, name string) uint64 {
	var a [Size + maxStackName]byte
	b := a[:Size]
	Handle{Volume: parent.Volume, FileID: parent.FileID, Gen: parent.Gen}.marshal((*[Size]byte)(b))
	b = append(b, name...)
	sum := md5.Sum(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// maxStackName is the longest name NameKey hashes without allocating:
// nfsproto.MaxName, the limit of one NFS name component.
const maxStackName = 255

// Capability computes the keyed fingerprint that authorizes direct access
// to a file's storage objects (§2.2: OBSDs/NASDs allow cryptographic
// protection of storage object identifiers, so untrusted clients cannot
// address storage directly; only principals holding the service key — the
// µproxy and the coordinator — can mint valid capabilities). The
// capability covers the handle's identity fields; it travels in the
// CellKey field of handles sent to storage nodes, which the µproxy
// rewrites in place.
func Capability(key []byte, h Handle) uint64 {
	mac := hmac.New(md5.New, key)
	var b [Size]byte
	Handle{Volume: h.Volume, FileID: h.FileID, Gen: h.Gen}.marshal(&b)
	mac.Write(b[:])
	sum := mac.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8])
}

// WithCapability returns a copy of h carrying the capability for key in
// its CellKey field.
func WithCapability(key []byte, h Handle) Handle {
	h.CellKey = Capability(key, h)
	return h
}

// VerifyCapability reports whether h carries a valid capability for key.
func VerifyCapability(key []byte, h Handle) bool {
	want := Capability(key, h)
	return hmac.Equal(u64bytes(want), u64bytes(h.CellKey))
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// HandleKey computes the MD5 fingerprint of a handle alone, used to select
// small-file servers and coordinators from the fileID, and by storage nodes
// to map handles to backing objects.
func HandleKey(h Handle) uint64 {
	var b [Size]byte
	// Identity only: the capability the µproxy stamps into CellKey must
	// not move the file.
	binary.BigEndian.PutUint32(b[0:], h.Volume)
	binary.BigEndian.PutUint64(b[4:], h.FileID)
	binary.BigEndian.PutUint32(b[28:], h.Gen)
	sum := md5.Sum(b[:])
	return binary.BigEndian.Uint64(sum[:8])
}
