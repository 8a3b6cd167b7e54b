package netsim

import (
	"errors"
	"testing"
	"time"
)

// bindT binds addr or fails the test.
func bindT(t *testing.T, n *Network, addr Addr) *Port {
	t.Helper()
	p, err := n.Bind(addr)
	if err != nil {
		t.Fatalf("Bind(%v): %v", addr, err)
	}
	return p
}

func sendT(t *testing.T, p *Port, dst Addr, payload string) {
	t.Helper()
	if err := p.SendTo(dst, []byte(payload)); err != nil {
		t.Fatalf("SendTo: %v", err)
	}
}

func recvPayload(t *testing.T, p *Port, timeout time.Duration) (string, error) {
	t.Helper()
	d, err := p.Recv(timeout)
	if err != nil {
		return "", err
	}
	s := string(Payload(d))
	FreeBuf(d)
	return s, nil
}

func TestCrashHostTearsDownPortsAndBlocksTraffic(t *testing.T) {
	n := New(Config{})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})
	b2 := bindT(t, n, Addr{Host: 2, Port: 201})

	if got := n.CrashHost(2); got != 2 {
		t.Fatalf("CrashHost tore down %d ports, want 2", got)
	}
	if !n.HostDown(2) {
		t.Fatal("HostDown(2) = false after crash")
	}

	// The crashed host's receivers wake with ErrClosed, like a dead
	// machine's sockets.
	if _, err := b.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on crashed host = %v, want ErrClosed", err)
	}
	if _, err := b2.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on crashed host = %v, want ErrClosed", err)
	}

	// Traffic toward the dead host vanishes (counted as faulted), and the
	// dead host cannot transmit: its ports are closed, and a closed port
	// refuses (counted as dropped).
	sendT(t, a, Addr{Host: 2, Port: 200}, "into the void")
	if err := b.SendTo(Addr{Host: 1, Port: 100}, []byte("from the grave")); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendTo from crashed host = %v, want ErrClosed", err)
	}
	if _, err := recvPayload(t, a, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("live host received traffic from crashed host: err=%v", err)
	}
	if st := n.Stats(); st.Faulted < 1 || st.Dropped < 1 {
		t.Fatalf("Faulted = %d, Dropped = %d, want >= 1 each", st.Faulted, st.Dropped)
	}

	// After restart the address is free to rebind and traffic flows again.
	n.RestartHost(2)
	if n.HostDown(2) {
		t.Fatal("HostDown(2) = true after restart")
	}
	nb := bindT(t, n, Addr{Host: 2, Port: 200})
	sendT(t, a, Addr{Host: 2, Port: 200}, "welcome back")
	got, err := recvPayload(t, nb, time.Second)
	if err != nil || got != "welcome back" {
		t.Fatalf("after restart: got %q, err=%v", got, err)
	}
}

func TestIsolateHostKeepsPortsBound(t *testing.T) {
	n := New(Config{})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	n.IsolateHost(2)
	sendT(t, a, Addr{Host: 2, Port: 200}, "hello?")
	if _, err := recvPayload(t, b, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("isolated host received traffic: err=%v", err)
	}

	n.RejoinHost(2)
	sendT(t, a, Addr{Host: 2, Port: 200}, "healed")
	got, err := recvPayload(t, b, time.Second)
	if err != nil || got != "healed" {
		t.Fatalf("after rejoin: got %q, err=%v", got, err)
	}
}

func TestPartitionOneWayIsDirectional(t *testing.T) {
	n := New(Config{})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	n.PartitionOneWay(1, 2)

	// 1 → 2 is cut.
	sendT(t, a, Addr{Host: 2, Port: 200}, "dropped")
	if _, err := recvPayload(t, b, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("cut direction delivered: err=%v", err)
	}
	// 2 → 1 still flows.
	sendT(t, b, Addr{Host: 1, Port: 100}, "reverse ok")
	got, err := recvPayload(t, a, time.Second)
	if err != nil || got != "reverse ok" {
		t.Fatalf("reverse direction: got %q, err=%v", got, err)
	}

	n.Heal(1, 2)
	sendT(t, a, Addr{Host: 2, Port: 200}, "healed")
	got, err = recvPayload(t, b, time.Second)
	if err != nil || got != "healed" {
		t.Fatalf("after heal: got %q, err=%v", got, err)
	}
}

func TestLinkFaultDropAndHealAll(t *testing.T) {
	n := New(Config{Seed: 7})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	n.SetLinkFault(1, 2, LinkFault{Drop: 1.0})
	sendT(t, a, Addr{Host: 2, Port: 200}, "gone")
	if _, err := recvPayload(t, b, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("fully lossy link delivered: err=%v", err)
	}

	n.HealAll()
	sendT(t, a, Addr{Host: 2, Port: 200}, "clean")
	got, err := recvPayload(t, b, time.Second)
	if err != nil || got != "clean" {
		t.Fatalf("after HealAll: got %q, err=%v", got, err)
	}
}

func TestLinkFaultDuplicate(t *testing.T) {
	n := New(Config{Seed: 7})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	n.SetLinkFault(1, 2, LinkFault{Duplicate: 1.0})
	sendT(t, a, Addr{Host: 2, Port: 200}, "twice")
	for i := 0; i < 2; i++ {
		got, err := recvPayload(t, b, time.Second)
		if err != nil || got != "twice" {
			t.Fatalf("copy %d: got %q, err=%v", i, got, err)
		}
	}
	if _, err := recvPayload(t, b, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("more than two copies delivered: err=%v", err)
	}
}

func TestLinkFaultLatencySpike(t *testing.T) {
	n := New(Config{})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	n.SetLinkFault(1, 2, LinkFault{Latency: 50 * time.Millisecond})
	start := time.Now()
	sendT(t, a, Addr{Host: 2, Port: 200}, "slow")
	got, err := recvPayload(t, b, time.Second)
	if err != nil || got != "slow" {
		t.Fatalf("got %q, err=%v", got, err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~50ms spike", elapsed)
	}

	// Clearing with a zero fault removes the entry.
	n.SetLinkFault(1, 2, LinkFault{})
	start = time.Now()
	sendT(t, a, Addr{Host: 2, Port: 200}, "fast")
	if _, err := recvPayload(t, b, time.Second); err != nil {
		t.Fatalf("after clear: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("delivery took %v after fault cleared", elapsed)
	}
}

func TestLinkFaultReorder(t *testing.T) {
	n := New(Config{Seed: 11})
	a := bindT(t, n, Addr{Host: 1, Port: 100})
	b := bindT(t, n, Addr{Host: 2, Port: 200})

	// Hold back every datagram by a random slice of a wide window; with 20
	// sends, at least one pair should arrive out of order.
	n.SetLinkFault(1, 2, LinkFault{Reorder: 1.0, ReorderWindow: 30 * time.Millisecond})
	const count = 20
	for i := 0; i < count; i++ {
		sendT(t, a, Addr{Host: 2, Port: 200}, string(rune('a'+i)))
	}
	var order []byte
	for i := 0; i < count; i++ {
		got, err := recvPayload(t, b, time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		order = append(order, got[0])
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatalf("all %d datagrams arrived in order despite reorder fault: %q", count, order)
	}
}
