package nfsproto

import (
	"slice/internal/fhandle"
	"slice/internal/xdr"
)

// RequestInfo is the µproxy's view of a request: the minimal set of fields
// the routing policies key on (§3 of the paper), extracted from the raw
// call body without a full decode. Byte offsets of the handle fields are
// recorded so that a rewriting µproxy can patch them in place.
type RequestInfo struct {
	Proc Proc

	// FH is the primary handle: the target file for I/O and attribute
	// operations, or the parent directory for namespace operations.
	FH       fhandle.Handle
	FHOffset int // byte offset of FH within the call body

	// Name is the name argument of namespace operations. It aliases the
	// call body ParseCall read it from (xdr.Decoder.StringView), so it is
	// valid only while that body is: a caller that keeps it copies it.
	Name    string
	HasName bool

	// FH2/Name2 carry the second (handle, name) pair of RENAME, and the
	// target directory of LINK. Name2 aliases the body as Name does.
	FH2       fhandle.Handle
	FH2Offset int
	Name2     string
	HasFH2    bool
	HasName2  bool

	// Offset and Count describe I/O requests (READ, WRITE, COMMIT).
	Offset uint64
	Count  uint32
	IsIO   bool
}

// ParseCall extracts routing fields from an encoded call body for proc.
// It performs the same work the Slice packet filter does when it decodes
// a request to prepare for rewriting (§4.1); its cost is what Table 3
// reports as "packet decode".
func ParseCall(proc Proc, body []byte) (RequestInfo, error) {
	info := RequestInfo{Proc: proc}
	d := xdr.NewDecoder(body)
	var err error

	switch proc {
	case ProcNull:
		return info, nil

	case ProcGetAttr, ProcFsStat, ProcReadLink:
		info.FHOffset = d.Offset()
		info.FH, err = fhandle.Decode(d)
		return info, err

	case ProcSetAttr:
		info.FHOffset = d.Offset()
		info.FH, err = fhandle.Decode(d)
		return info, err

	case ProcAccess:
		info.FHOffset = d.Offset()
		info.FH, err = fhandle.Decode(d)
		return info, err

	case ProcLookup, ProcRemove, ProcRmdir, ProcCreate, ProcMkdir, ProcSymlink:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		info.Name, err = d.StringView()
		info.HasName = err == nil
		return info, err

	case ProcRename:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		if info.Name, err = d.StringView(); err != nil {
			return info, err
		}
		info.HasName = true
		info.FH2Offset = d.Offset()
		if info.FH2, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		info.HasFH2 = true
		info.Name2, err = d.StringView()
		info.HasName2 = err == nil
		return info, err

	case ProcLink:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		info.FH2Offset = d.Offset()
		if info.FH2, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		info.HasFH2 = true
		info.Name2, err = d.StringView()
		info.HasName2 = err == nil
		return info, err

	case ProcRead, ProcCommit:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		if info.Offset, err = d.Uint64(); err != nil {
			return info, err
		}
		if info.Count, err = d.Uint32(); err != nil {
			return info, err
		}
		info.IsIO = true
		return info, nil

	case ProcWrite:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		if info.Offset, err = d.Uint64(); err != nil {
			return info, err
		}
		if info.Count, err = d.Uint32(); err != nil {
			return info, err
		}
		info.IsIO = true
		return info, nil

	case ProcReadDir:
		info.FHOffset = d.Offset()
		if info.FH, err = fhandle.Decode(d); err != nil {
			return info, err
		}
		info.Offset, err = d.Uint64() // cookie doubles as offset
		return info, err

	default:
		return info, &StatusError{Status: ErrNotSupp}
	}
}

// Class partitions requests into the three workload components of Fig. 1:
// bulk/small I/O, namespace operations, and attribute operations.
type Class int

// Request classes.
const (
	ClassNone Class = iota
	ClassIO         // READ / WRITE / COMMIT: routed by offset and placement
	ClassName       // namespace ops: routed to directory servers
	ClassAttr       // GETATTR / SETATTR / ACCESS / FSSTAT: directory servers
	ClassDir        // READDIR: directory servers (may span sites)
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassIO:
		return "io"
	case ClassName:
		return "name"
	case ClassAttr:
		return "attr"
	case ClassDir:
		return "dir"
	default:
		return "none"
	}
}

// ClassOf returns the request class for proc.
func ClassOf(proc Proc) Class {
	switch proc {
	case ProcRead, ProcWrite, ProcCommit:
		return ClassIO
	case ProcLookup, ProcCreate, ProcMkdir, ProcSymlink, ProcRemove,
		ProcRmdir, ProcRename, ProcLink:
		return ClassName
	case ProcGetAttr, ProcSetAttr, ProcAccess, ProcFsStat, ProcReadLink:
		return ClassAttr
	case ProcReadDir:
		return ClassDir
	default:
		return ClassNone
	}
}
