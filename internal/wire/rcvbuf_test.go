//go:build unix

package wire

import (
	"net"
	"syscall"
	"testing"

	"slice/internal/netsim"
)

// rcvbuf reads a UDP socket's SO_RCVBUF.
func rcvbuf(t *testing.T, pc *net.UDPConn) int {
	t.Helper()
	raw, err := pc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		n, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	return n
}

// TestDatagramGatewayReadBuffer: the datagram gateway's socket gets a
// larger receive buffer than a plain UDP socket's default. (How much
// larger depends on the host's net.core.rmem_max.)
func TestDatagramGatewayReadBuffer(t *testing.T) {
	plain, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	g, err := NewDatagramGateway("127.0.0.1:0", netsim.New(netsim.Config{}), testVirtual)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got, def := rcvbuf(t, g.pc), rcvbuf(t, plain.(*net.UDPConn)); got <= def {
		t.Fatalf("gateway SO_RCVBUF %d, no larger than a plain socket's %d", got, def)
	}
}
