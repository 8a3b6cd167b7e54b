package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/xdr"
)

// Portmap is an embedded portmapper (program 100000 v2) over
// record-marked TCP: GETPORT and DUMP, backed by an explicit
// registration table. A real client's first question — "where does NFS
// listen?" — is answered here, pointing at the wire gateway.
type Portmap struct {
	ln  net.Listener
	reg atomic.Pointer[obs.Registry]

	mu     sync.Mutex
	maps   map[mapKey]uint32
	order  []mapKey
	closed bool
	wg     sync.WaitGroup
}

type mapKey struct{ prog, vers, prot uint32 }

// NewPortmap starts a portmapper on the given TCP listen address.
func NewPortmap(listen string) (*Portmap, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Portmap{ln: ln, maps: make(map[mapKey]uint32)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// SetObs attaches an obs registry; served calls are recorded by op class
// (portmap.getport, portmap.dump).
func (p *Portmap) SetObs(r *obs.Registry) { p.reg.Store(r) }

// Register maps (prog, vers, prot) to a port, replacing any previous
// registration.
func (p *Portmap) Register(prog, vers, prot, port uint32) {
	k := mapKey{prog, vers, prot}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.maps[k]; !ok {
		p.order = append(p.order, k)
	}
	p.maps[k] = port
}

// Addr returns the TCP address the portmapper listens on.
func (p *Portmap) Addr() net.Addr { return p.ln.Addr() }

// Close stops the portmapper.
func (p *Portmap) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *Portmap) acceptLoop() {
	defer p.wg.Done()
	for {
		tcp, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.serveConn(tcp)
	}
}

func (p *Portmap) serveConn(tcp net.Conn) {
	defer p.wg.Done()
	defer tcp.Close()
	br := bufio.NewReaderSize(tcp, 4<<10)
	bw := bufio.NewWriterSize(tcp, 4<<10)
	for {
		rec, err := readRecord(br, 0)
		if err != nil {
			return
		}
		call, err := oncrpc.ParseCall(rec)
		if err != nil {
			netsim.FreeBuf(rec)
			return // framing is fine but the stream isn't RPC; hang up
		}
		t0 := obs.Now()
		res, accept := p.serve(call)
		reply := oncrpc.EncodeReply(call.Xid, accept, res)
		if r := p.reg.Load(); r != nil {
			// A stream peer has no fabric address: the call is keyed by
			// its xid alone.
			r.ObserveRPC(obs.CallID{Xid: call.Xid}, call.Program, call.Proc, t0, obs.Now())
		}
		netsim.FreeBuf(rec)
		if err := writeRecord(bw, reply); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (p *Portmap) serve(call oncrpc.Call) (func(*xdr.Encoder), uint32) {
	if call.Program != nfsproto.PortmapProgram {
		return nil, oncrpc.AcceptProgUnavail
	}
	if call.Version != nfsproto.PortmapVersion {
		return nil, oncrpc.AcceptProgMismatch
	}
	switch call.Proc {
	case nfsproto.PortmapProcNull:
		return func(*xdr.Encoder) {}, oncrpc.AcceptSuccess
	case nfsproto.PortmapProcGetPort:
		var args nfsproto.Mapping
		if err := args.Decode(xdr.NewDecoder(call.Body)); err != nil {
			return nil, oncrpc.AcceptGarbageArgs
		}
		p.mu.Lock()
		port := p.maps[mapKey{args.Prog, args.Vers, args.Prot}]
		p.mu.Unlock()
		res := nfsproto.GetPortRes{Port: port}
		return res.Encode, oncrpc.AcceptSuccess
	case nfsproto.PortmapProcDump:
		p.mu.Lock()
		res := nfsproto.DumpRes{Mappings: make([]nfsproto.Mapping, 0, len(p.order))}
		for _, k := range p.order {
			res.Mappings = append(res.Mappings, nfsproto.Mapping{
				Prog: k.prog, Vers: k.vers, Prot: k.prot, Port: p.maps[k],
			})
		}
		p.mu.Unlock()
		return res.Encode, oncrpc.AcceptSuccess
	default:
		return nil, oncrpc.AcceptProcUnavail
	}
}

// ------------------------------------------------------- client helpers

var xidCounter atomic.Uint32

// rpcOnce performs a single record-marked RPC over a fresh TCP
// connection: the one-shot discovery pattern of a mounting client.
func rpcOnce(server string, prog, vers, proc uint32, args func(*xdr.Encoder)) ([]byte, error) {
	tcp, err := net.Dial("tcp", server)
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	xid := xidCounter.Add(1)
	bw := bufio.NewWriter(tcp)
	if err := writeRecord(bw, oncrpc.EncodeCall(xid, prog, vers, proc, args)); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	_ = tcp.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err := readRecord(bufio.NewReader(tcp), 0)
	if err != nil {
		return nil, err
	}
	defer netsim.FreeBuf(rec)
	rep, err := oncrpc.ParseReply(rec)
	if err != nil {
		return nil, err
	}
	if rep.Xid != xid {
		return nil, fmt.Errorf("wire: reply xid %d for call %d", rep.Xid, xid)
	}
	if rep.Accept != oncrpc.AcceptSuccess {
		return nil, &oncrpc.ErrRejected{Accept: rep.Accept}
	}
	body := make([]byte, len(rep.Body))
	copy(body, rep.Body)
	return body, nil
}

// GetPort asks the portmapper at server where (prog, vers, prot)
// listens; 0 means unregistered.
func GetPort(server string, prog, vers, prot uint32) (uint32, error) {
	body, err := rpcOnce(server, nfsproto.PortmapProgram, nfsproto.PortmapVersion,
		nfsproto.PortmapProcGetPort, (&nfsproto.Mapping{Prog: prog, Vers: vers, Prot: prot}).Encode)
	if err != nil {
		return 0, err
	}
	var res nfsproto.GetPortRes
	if err := res.Decode(xdr.NewDecoder(body)); err != nil {
		return 0, err
	}
	return res.Port, nil
}

// Dump returns every registration of the portmapper at server.
func Dump(server string) ([]nfsproto.Mapping, error) {
	body, err := rpcOnce(server, nfsproto.PortmapProgram, nfsproto.PortmapVersion,
		nfsproto.PortmapProcDump, nil)
	if err != nil {
		return nil, err
	}
	var res nfsproto.DumpRes
	if err := res.Decode(xdr.NewDecoder(body)); err != nil {
		return nil, err
	}
	return res.Mappings, nil
}
