package dirsrv

import (
	"slice/internal/attr"
	"slice/internal/nfsproto"
	"slice/internal/once"
)

// localSetAttrByKey is the local half of a SETATTR by the call id (zero:
// none), for tests that drive it without a request.
func (s *Server) localSetAttrByKey(key uint64, sa *attr.SetAttr, id once.Ident) (nfsproto.Status, attr.Attr) {
	st, at := s.localSetAttr(key, sa, &op{id: id})
	return st, at.Attr
}
