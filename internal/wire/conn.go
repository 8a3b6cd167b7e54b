package wire

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"slice/internal/netsim"
)

// Conn is a client-side oncrpc.Conn over a real socket to a Gateway,
// usable with client.NewWithConn: a record-marked TCP stream (Dial) or a
// connected UDP socket (DialDatagram). Either way only the dialed gateway
// can deliver to the socket — the kernel is the real peer check — so
// received records are stamped with the last-sent destination address,
// the fabric-level reflection the RPC client's peer-address check expects.
type Conn struct {
	sock net.Conn
	br   *bufio.Reader // stream framing, else nil

	wmu sync.Mutex
	bw  *bufio.Writer // stream framing, else nil

	mu   sync.Mutex
	peer netsim.Addr
}

// Dial connects to a stream gateway's TCP address.
func Dial(server string) (*Conn, error) {
	tcp, err := net.Dial("tcp", server)
	if err != nil {
		return nil, err
	}
	return &Conn{
		sock: tcp,
		br:   bufio.NewReaderSize(tcp, 64<<10),
		bw:   bufio.NewWriterSize(tcp, 64<<10),
	}, nil
}

// DialDatagram connects to a datagram gateway's UDP address.
func DialDatagram(server string) (*Conn, error) {
	udp, err := net.Dial("udp", server)
	if err != nil {
		return nil, err
	}
	return &Conn{sock: udp}, nil
}

// SendTo implements oncrpc.Conn. The destination fabric address is
// implied by the dialed gateway (it always targets the virtual server),
// so dst is only recorded for reply stamping.
func (c *Conn) SendTo(dst netsim.Addr, payload []byte) error {
	c.mu.Lock()
	c.peer = dst
	c.mu.Unlock()
	if c.bw == nil {
		_, err := c.sock.Write(payload)
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeRecord(c.bw, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Recv implements oncrpc.Conn: it reads one record (reassembled from the
// stream, or one datagram) into the payload region of a pooled
// header-prefixed buffer, which the receiver returns with netsim.FreeBuf,
// and stamps the synthetic source address. A stream error that strikes
// after any byte of a record was consumed leaves the framing
// unsynchronizable, so the connection is closed; the RPC layer treats it
// like a dead port.
func (c *Conn) Recv(timeout time.Duration) ([]byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.sock.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	var d []byte
	if c.br == nil {
		d = netsim.GetBuf(netsim.HeaderSize + maxDatagram)
		n, err := c.sock.Read(d[netsim.HeaderSize:])
		if err != nil {
			netsim.FreeBuf(d)
			return nil, err
		}
		d = d[:netsim.HeaderSize+n]
	} else {
		// Peek consumes nothing: failing here (idle timeout, clean EOF)
		// leaves the stream at a record boundary and still usable.
		if _, err := c.br.Peek(1); err != nil {
			return nil, err
		}
		var err error
		if d, err = readRecord(c.br, netsim.HeaderSize); err != nil {
			c.sock.Close()
			return nil, err
		}
	}
	c.mu.Lock()
	src := c.peer
	c.mu.Unlock()
	binary.BigEndian.PutUint32(d[netsim.OffSrcHost:], src.Host)
	binary.BigEndian.PutUint16(d[netsim.OffSrcPort:], src.Port)
	return d, nil
}

// Addr implements oncrpc.Conn with a placeholder fabric address outside
// the gateways' synthetic peer range.
func (c *Conn) Addr() netsim.Addr { return netsim.Addr{Host: connPlaceholderHost, Port: 1} }

// Close implements oncrpc.Conn.
func (c *Conn) Close() { _ = c.sock.Close() }
