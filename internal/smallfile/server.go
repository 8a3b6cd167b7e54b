package smallfile

import (
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/wal"
)

// Server exports a small-file Store over RPC through the data-server
// handler the storage nodes run (storage.Handler): the NFS I/O subset
// {NULL, READ, WRITE, COMMIT} — the µproxy directs all I/O below the
// threshold offset here — and the raw-object program {REMOVE, TRUNCATE},
// so the µproxy and the coordinator treat both kinds of data site alike.
type Server struct {
	store *Store
	srv   *oncrpc.Server
}

// NewServer starts a small-file server on port.
func NewServer(port *netsim.Port, store *Store) *Server {
	s := &Server{store: store}
	s.srv = oncrpc.NewServer(port, storage.NewHandler(store, nil))
	return s
}

// Restart builds a small-file server whose store is recovered from its
// journal against its fragment store BEFORE the server starts accepting
// calls on port — the §2.3 failover path. frags and log are the server's
// durable value; frags holds the one object its fragments are laid out
// in. The restarted store keeps journaling to the log it replayed.
func Restart(port *netsim.Port, frags *storage.ObjectStore, log *wal.Log) (*Server, error) {
	store := NewStore(frags, 1, log)
	if err := store.replayLog(); err != nil {
		return nil, err
	}
	return NewServer(port, store), nil
}

// Store returns the underlying store (for stats and failover tests).
func (s *Server) Store() *Store { return s.store }

// Addr returns the server's address.
func (s *Server) Addr() netsim.Addr { return s.srv.Addr() }

// SetObs attaches a histogram registry recording per-procedure handler
// latency (nil detaches).
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.srv.SetObserver(nil)
		return
	}
	s.srv.SetObserver(reg.ObserveRPC)
}

// Close shuts the server down.
func (s *Server) Close() { s.srv.Close() }
