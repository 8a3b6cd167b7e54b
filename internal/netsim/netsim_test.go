package netsim

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

func TestBuildParseRoundTrip(t *testing.T) {
	src := Addr{Host: 0x0A000001, Port: 1234}
	dst := Addr{Host: 0x0A000002, Port: 2049}
	payload := []byte("request body")
	d, err := Build(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != src || h.Dst != dst {
		t.Fatalf("header %+v, want src %v dst %v", h, src, dst)
	}
	if !bytes.Equal(Payload(d), payload) {
		t.Fatal("payload mismatch")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	d, _ := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, []byte("data"))
	d[HeaderSize] ^= 0xFF
	if _, err := Parse(d); err == nil {
		t.Fatal("corrupt payload passed checksum verification")
	}
	if _, err := Parse(d[:4]); err == nil {
		t.Fatal("short datagram accepted")
	}
}

func TestBuildRejectsOversize(t *testing.T) {
	if _, err := Build(Addr{}, Addr{}, make([]byte, MaxDatagram)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

// TestJumboDatagramRoundTrip pins the fix for the length-field wrap bug: the
// header's length used to be 16 bits wide, so any datagram above 64 KiB —
// nominally allowed by MaxDatagram — wrapped its length and failed Parse.
func TestJumboDatagramRoundTrip(t *testing.T) {
	for _, size := range []int{64*1024 - HeaderSize, 64 * 1024, 96 * 1024, 128 * 1024, MaxDatagram - HeaderSize} {
		payload := bytes.Repeat([]byte{0xA5}, size)
		d, err := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, payload)
		if err != nil {
			t.Fatalf("Build(%d bytes): %v", size, err)
		}
		h, err := Parse(d)
		if err != nil {
			t.Fatalf("Parse(%d-byte payload): %v", size, err)
		}
		if int(h.Length) != HeaderSize+size {
			t.Fatalf("length %d, want %d", h.Length, HeaderSize+size)
		}
		if !bytes.Equal(Payload(d), payload) {
			t.Fatalf("payload mismatch at size %d", size)
		}
		FreeBuf(d)
	}
}

func TestTryRecv(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned a datagram from an empty queue")
	}
	_ = a.SendTo(b.Addr(), []byte("one"))
	_ = a.SendTo(b.Addr(), []byte("two"))
	d1, ok1 := b.TryRecv()
	d2, ok2 := b.TryRecv()
	if !ok1 || !ok2 || string(Payload(d1)) != "one" || string(Payload(d2)) != "two" {
		t.Fatalf("TryRecv drained %v/%v", ok1, ok2)
	}
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned a third datagram")
	}
}

// TestRewritePreservesChecksum is the property the µproxy's redirection
// depends on: after an in-place address rewrite with incremental checksum
// update, the datagram still verifies.
func TestRewritePreservesChecksum(t *testing.T) {
	d, _ := Build(Addr{Host: 1, Port: 10}, Addr{Host: 2, Port: 20}, []byte("hello world, this is nfs traffic"))
	RewriteDst(d, Addr{Host: 77, Port: 2049})
	if !VerifyChecksum(d) {
		t.Fatal("checksum invalid after RewriteDst")
	}
	h, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dst != (Addr{Host: 77, Port: 2049}) {
		t.Fatalf("dst = %v after rewrite", h.Dst)
	}
	RewriteSrc(d, Addr{Host: 88, Port: 9})
	if !VerifyChecksum(d) {
		t.Fatal("checksum invalid after RewriteSrc")
	}
	h, _ = Parse(d)
	if h.Src != (Addr{Host: 88, Port: 9}) {
		t.Fatalf("src = %v after rewrite", h.Src)
	}
}

func TestSendRecv(t *testing.T) {
	n := New(Config{})
	a, err := n.Bind(Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Bind(Addr{Host: 2, Port: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	d, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(Payload(d)) != "ping" {
		t.Fatalf("payload %q", Payload(d))
	}
}

// TestSendSealsInPlace: Send turns a buffer whose payload was written in
// place into a datagram without copying it — the receiver gets the very
// buffer, verified, byte for byte what Build makes of the same payload —
// and takes ownership even of one it cannot seal.
func TestSendSealsInPlace(t *testing.T) {
	n := New(Config{})
	a, err := n.Bind(Addr{Host: 1, Port: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Bind(Addr{Host: 2, Port: 200})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("encoded in place!")
	d := GetBuf(HeaderSize + len(payload))
	for i := range d[:HeaderSize] {
		d[i] = 0xEE // a recycled buffer's stale header
	}
	copy(d[HeaderSize:], payload)
	if err := a.Send(b.Addr(), d); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &d[0] {
		t.Fatal("Send copied the datagram")
	}
	want, _ := Build(a.Addr(), b.Addr(), payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed datagram %x, Build makes %x", got, want)
	}

	before := PoolStats().Puts
	if err := a.Send(b.Addr(), GetBuf(MaxDatagram+1)); err == nil {
		t.Fatal("oversized datagram sent")
	}
	if err := a.Send(b.Addr(), GetBuf(HeaderSize-1)); err == nil {
		t.Fatal("datagram shorter than its header sent")
	}
	if PoolStats().Puts == before {
		t.Fatal("a datagram Send refused was not freed")
	}
}

func TestRecvTimeout(t *testing.T) {
	n := New(Config{})
	p, _ := n.Bind(Addr{Host: 1, Port: 1})
	if _, err := p.Recv(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDoubleBindRejected(t *testing.T) {
	n := New(Config{})
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestClosedPortRecv(t *testing.T) {
	n := New(Config{})
	p, _ := n.Bind(Addr{Host: 1, Port: 1})
	p.Close()
	if _, err := p.Recv(0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Re-binding the freed address succeeds.
	if _, err := n.Bind(Addr{Host: 1, Port: 1}); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

// TestClosedPortSendsNothing: once closed, a port refuses to transmit.
// SendTo and Send each return ErrClosed, put nothing on the fabric and
// count one drop, and Send frees the datagram it was handed.
func TestClosedPortSendsNothing(t *testing.T) {
	n := New(Config{})
	dst, _ := n.Bind(Addr{Host: 2, Port: 1})
	p, _ := n.Bind(Addr{Host: 1, Port: 1})
	p.Close()
	payload := []byte("after close")
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"SendTo", func() error { return p.SendTo(dst.Addr(), payload) }},
		{"Send", func() error {
			d := GetBuf(HeaderSize + len(payload))
			copy(d[HeaderSize:], payload)
			return p.Send(dst.Addr(), d)
		}},
	} {
		before, puts := n.Stats(), PoolStats().Puts
		if err := tc.send(); err != ErrClosed {
			t.Fatalf("%s on a closed port = %v, want ErrClosed", tc.name, err)
		}
		after := n.Stats()
		if d, ok := dst.TryRecv(); ok {
			t.Fatalf("%s on a closed port delivered %q", tc.name, Payload(d))
		}
		if after.Sent != before.Sent || after.Dropped != before.Dropped+1 {
			t.Fatalf("%s on a closed port: sent %d → %d, dropped %d → %d; want no send and one drop",
				tc.name, before.Sent, after.Sent, before.Dropped, after.Dropped)
		}
		if tc.name == "Send" && PoolStats().Puts == puts {
			t.Fatal("Send on a closed port kept the datagram it was handed")
		}
	}
}

func TestBindAnyAllocatesDistinctPorts(t *testing.T) {
	n := New(Config{})
	seen := make(map[Addr]bool)
	for i := 0; i < 20; i++ {
		p, err := n.BindAny(7)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Addr()] {
			t.Fatalf("duplicate ephemeral address %v", p.Addr())
		}
		seen[p.Addr()] = true
	}
}

func TestUnboundDestinationDropped(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	if err := a.SendTo(Addr{Host: 9, Port: 9}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
}

func TestTapDrop(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	n.AddTap(TapFunc(func(d []byte) Verdict { return Drop }))
	_ = a.SendTo(b.Addr(), []byte("blocked"))
	if _, err := b.Recv(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("datagram delivered despite dropping tap: %v", err)
	}
}

func TestTapConsumeAndInject(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	c, _ := n.Bind(Addr{Host: 3, Port: 3})
	// A redirecting tap: traffic for b is rewritten to c, like a µproxy.
	tap := TapFunc(func(d []byte) Verdict {
		h, err := Parse(d)
		if err != nil || h.Dst != b.Addr() {
			return Pass
		}
		RewriteDst(d, c.Addr())
		_ = n.Inject(d)
		return Consumed
	})
	tok := n.AddTap(tap)
	_ = a.SendTo(b.Addr(), []byte("redirect me"))
	d, err := c.Recv(time.Second)
	if err != nil {
		t.Fatalf("redirected datagram not delivered: %v", err)
	}
	if string(Payload(d)) != "redirect me" {
		t.Fatalf("payload %q", Payload(d))
	}
	if _, err := b.Recv(20 * time.Millisecond); err != ErrTimeout {
		t.Fatal("original destination also received the datagram")
	}
	// Removing the tap restores direct delivery.
	n.RemoveTap(tok)
	_ = a.SendTo(b.Addr(), []byte("direct"))
	if _, err := b.Recv(time.Second); err != nil {
		t.Fatalf("delivery after tap removal: %v", err)
	}
}

func TestLossRate(t *testing.T) {
	n := New(Config{LossRate: 0.5, Seed: 99})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	const total = 400
	for i := 0; i < total; i++ {
		_ = a.SendTo(b.Addr(), []byte("x"))
	}
	s := n.Stats()
	if s.Lost == 0 || s.Lost == total {
		t.Fatalf("lost %d of %d with 50%% loss", s.Lost, total)
	}
	if got := float64(s.Lost) / total; got < 0.35 || got > 0.65 {
		t.Fatalf("loss fraction %.2f far from configured 0.5", got)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(Config{Latency: 30 * time.Millisecond})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	start := time.Now()
	_ = a.SendTo(b.Addr(), []byte("slow"))
	if _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered in %v despite 30ms latency", el)
	}
}

func TestQueueOverrunDrops(t *testing.T) {
	n := New(Config{QueueLen: 4})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	for i := 0; i < 10; i++ {
		_ = a.SendTo(b.Addr(), []byte("x"))
	}
	s := n.Stats()
	if s.Delivered != 4 || s.Dropped != 6 {
		t.Fatalf("delivered %d dropped %d, want 4/6", s.Delivered, s.Dropped)
	}
}

func TestConcurrentSendersNoRace(t *testing.T) {
	// Queue sized for the full burst: this test checks races, not drops.
	n := New(Config{QueueLen: 1000})
	dst, _ := n.Bind(Addr{Host: 99, Port: 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		p, err := n.BindAny(uint32(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = p.SendTo(dst.Addr(), []byte("concurrent"))
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 800; i++ {
			if _, err := dst.Recv(time.Second); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestRecvDropsCorruptDatagrams: a datagram leaves the fabric verified.
// Recv and TryRecv drop one whose checksum or length field is wrong,
// count it in Stats.Dropped, and go on to the next.
func TestRecvDropsCorruptDatagrams(t *testing.T) {
	n := New(Config{})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	inject := func(payload string, corrupt func([]byte)) {
		d, err := Build(a.Addr(), b.Addr(), []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(d)
		if err := n.Inject(d); err != nil {
			t.Fatal(err)
		}
	}
	flipData := func(d []byte) { d[HeaderSize+3] ^= 0x10 }
	cutShort := func(d []byte) { binary.BigEndian.PutUint32(d[OffLength:], uint32(len(d)-2)) }
	keep := func([]byte) {}

	inject("corrupt payload", flipData)
	inject("wrong length", cutShort)
	inject("first clean", keep)
	d, err := b.Recv(time.Second)
	if err != nil || string(Payload(d)) != "first clean" {
		t.Fatalf("Recv = %q, %v; want the clean datagram behind two bad ones", Payload(d), err)
	}
	FreeBuf(d)
	inject("corrupt again", flipData)
	inject("second clean", keep)
	if d, ok := b.TryRecv(); !ok || string(Payload(d)) != "second clean" {
		t.Fatalf("TryRecv = %q, %v; want the clean datagram behind a bad one", Payload(d), ok)
	}
	inject("corrupt alone", flipData)
	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned a corrupt datagram")
	}
	if _, err := b.Recv(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("Recv on a queue of nothing intact: %v, want ErrTimeout", err)
	}
	if s := n.Stats(); s.Dropped != 4 || s.Delivered != 6 {
		t.Fatalf("dropped %d of %d delivered, want 4 of 6", s.Dropped, s.Delivered)
	}
}

// TestRecvDropLoopEndsOnClose: a Recv dropping a stream of corrupt
// datagrams still returns ErrClosed once the port closes under it.
func TestRecvDropLoopEndsOnClose(t *testing.T) {
	n := New(Config{QueueLen: 64})
	a, _ := n.Bind(Addr{Host: 1, Port: 1})
	b, _ := n.Bind(Addr{Host: 2, Port: 2})
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv(0)
		done <- err
	}()
	for i := 0; i < 200; i++ {
		d, _ := Build(a.Addr(), b.Addr(), []byte("never intact"))
		d[HeaderSize] ^= 0x01
		_ = n.Inject(d)
		if i == 100 {
			b.Close()
		}
	}
	if err := <-done; err != ErrClosed {
		t.Fatalf("Recv = %v, want ErrClosed", err)
	}
}

// FuzzDifferentialEdit: a datagram with one corrupted byte stays corrupt
// through each differential edit the µproxy makes — RewriteSrc,
// RewriteDst, RewriteUint64, RewriteBytes — unless the edit overwrote
// every corrupted byte. That is why the µproxy may
// forward READ and WRITE traffic without reading it: the receiver's Recv
// still drops what the fabric corrupted. flip picks the byte (low 24 bits)
// and its xor mask (top 8); edit picks each edit's offset (low 16 bits)
// and length (top 16). Seeds: testdata/fuzz/FuzzDifferentialEdit
// (tools/gencorpus).
func FuzzDifferentialEdit(f *testing.F) {
	f.Add([]byte("an NFS-sized payload for the edits"), uint32(0x40000021), uint32(0x00060008))
	f.Fuzz(func(t *testing.T, payload []byte, flip, edit uint32) {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		good, err := Build(Addr{Host: 10, Port: 2049}, Addr{Host: 200, Port: 999}, payload)
		if err != nil {
			t.Fatal(err)
		}
		at := int(flip&0xFFFFFF) % len(good)
		mask := byte(flip >> 24)
		if mask == 0 {
			mask = 1
		}
		span := len(good) - HeaderSize + 1
		off := HeaderSize + int(edit&0xFFFF)%span&^1
		n := int(edit>>16) % span
		patch := bytes.Repeat([]byte{0xA5, byte(edit)}, n/2+1)[:n]
		// Each edit returns the byte ranges [lo, hi) it overwrote; a
		// refused edit covers nothing.
		type region struct{ lo, hi int }
		edits := []struct {
			name  string
			apply func(d []byte) []region
		}{
			{"RewriteSrc", func(d []byte) []region {
				RewriteSrc(d, Addr{Host: edit, Port: uint16(flip)})
				return []region{{OffSrcHost, OffSrcHost + 4}, {OffSrcPort, OffSrcPort + 2}}
			}},
			{"RewriteDst", func(d []byte) []region {
				RewriteDst(d, Addr{Host: ^edit, Port: uint16(flip >> 8)})
				return []region{{OffDstHost, OffDstHost + 4}, {OffDstPort, OffDstPort + 2}}
			}},
			{"RewriteUint64", func(d []byte) []region {
				if RewriteUint64(d, off, uint64(edit)*0x9E3779B97F4A7C15) != nil {
					return nil
				}
				return []region{{off, off + 8}}
			}},
			{"RewriteBytes", func(d []byte) []region {
				if RewriteBytes(d, off, patch) != nil {
					return nil
				}
				return []region{{off, off + len(patch)}}
			}},
		}
		for _, e := range edits {
			d := GetBuf(len(good))
			copy(d, good)
			d[at] ^= mask
			covered := e.apply(d)
			hit := false
			for _, r := range covered {
				hit = hit || r.lo <= at && at < r.hi
			}
			if !hit && VerifyChecksum(d) {
				t.Fatalf("%s laundered a corrupt byte at %d (mask %#x) of %d: the datagram verifies",
					e.name, at, mask, len(good))
			}
			FreeBuf(d)
		}
		FreeBuf(good)
	})
}

func TestAddrString(t *testing.T) {
	a := Addr{Host: 0x0A000102, Port: 2049}
	if a.String() != "10.0.1.2:2049" {
		t.Fatalf("String = %q", a.String())
	}
}

// FuzzParseDatagram ensures the datagram parser never panics on hostile
// bytes and rejects anything whose checksum does not verify.
func FuzzParseDatagram(f *testing.F) {
	good, _ := Build(Addr{Host: 1, Port: 2}, Addr{Host: 3, Port: 4}, []byte("payload"))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, d []byte) {
		h, err := Parse(d)
		if err == nil {
			// Anything that parses must re-verify after a round trip of
			// rewrites (the µproxy invariant).
			RewriteDst(d, Addr{Host: 9, Port: 9})
			RewriteSrc(d, Addr{Host: 8, Port: 8})
			if !VerifyChecksum(d) {
				t.Fatalf("rewrite broke checksum for header %+v", h)
			}
		}
	})
}

func TestRewriteUint64PreservesChecksum(t *testing.T) {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	d, _ := Build(Addr{Host: 1, Port: 1}, Addr{Host: 2, Port: 2}, payload)
	if err := RewriteUint64(d, HeaderSize+16, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	if !VerifyChecksum(d) {
		t.Fatal("checksum broken by RewriteUint64")
	}
	got := Payload(d)[16:24]
	want := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xF0, 0x0D}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %x, want %x", i, got[i], want[i])
		}
	}
	// Bounds and alignment are enforced.
	if err := RewriteUint64(d, len(d)-4, 0); err == nil {
		t.Fatal("out-of-bounds rewrite accepted")
	}
	if err := RewriteUint64(d, HeaderSize+1, 0); err == nil {
		t.Fatal("odd-offset rewrite accepted")
	}
}

// TestRewriteBytes: the in-place edit the µproxy makes to a bulk reply
// leaves exactly the datagram Build would have produced for the edited
// payload, and an edit out of bounds or at an odd offset is refused.
func TestRewriteBytes(t *testing.T) {
	src, dst := Addr{Host: 10, Port: 2049}, Addr{Host: 200, Port: 999}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	d, err := Build(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xFF, 0x00, 0xA5}, 28) // 84 bytes
	if err := RewriteBytes(d, HeaderSize+8, patch); err != nil {
		t.Fatal(err)
	}
	copy(payload[8:], patch)
	want, _ := Build(src, dst, payload)
	if !bytes.Equal(d, want) {
		t.Fatal("patched datagram differs from a fresh Build of the same payload")
	}
	if _, err := Parse(d); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ off, n int }{{HeaderSize - 2, 4}, {HeaderSize + 1, 2}, {len(d) - 2, 4}} {
		if err := RewriteBytes(d, bad.off, make([]byte, bad.n)); err == nil {
			t.Fatalf("RewriteBytes(off %d, %d bytes) accepted", bad.off, bad.n)
		}
	}
	if !bytes.Equal(d, want) {
		t.Fatal("a rejected edit modified the datagram")
	}
}

// upcallPair binds a sender and a receiver whose upcall records what it is
// handed, freeing each datagram as a receiver must.
func upcallPair(t *testing.T, n *Network) (src, dst *Port, got *[][]byte) {
	t.Helper()
	src, err := n.Bind(Addr{Host: 1, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst, err = n.Bind(Addr{Host: 2, Port: 2})
	if err != nil {
		t.Fatal(err)
	}
	got = new([][]byte)
	dst.SetUpcall(func(d []byte) {
		*got = append(*got, append([]byte(nil), Payload(d)...))
		FreeBuf(d)
	})
	return src, dst, got
}

// TestUpcallRunsOnTheSendersGoroutine: a datagram to an upcall port is in
// the receiver's hands when SendTo returns, and nothing is queued for Recv.
func TestUpcallRunsOnTheSendersGoroutine(t *testing.T) {
	n := New(Config{})
	src, dst, got := upcallPair(t, n)
	if err := src.SendTo(dst.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || string((*got)[0]) != "hello" {
		t.Fatalf("upcall saw %q", *got)
	}
	if _, ok := dst.TryRecv(); ok {
		t.Fatal("a datagram was queued on an upcall port")
	}
	if st := n.Stats(); st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUpcallDropsCorruptDatagram: the upcall is the fabric's edge, so it
// verifies as Recv does — a datagram corrupted in flight is counted dropped
// and never handed to the receiver.
func TestUpcallDropsCorruptDatagram(t *testing.T) {
	n := New(Config{})
	src, dst, got := upcallPair(t, n)
	n.AddTap(TapFunc(func(d []byte) Verdict {
		d[len(d)-1] ^= 0x40 // a payload bit, checksum left alone
		return Pass
	}))
	if err := src.SendTo(dst.Addr(), []byte("corrupt me")); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("a corrupt datagram was dispatched: %q", *got)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestUpcallAfterCloseDropped: a delivery that reaches a port after Close —
// one whose latency timer was already running — is dropped and its buffer
// returned to the pool, not handed to a receiver that has gone.
func TestUpcallAfterCloseDropped(t *testing.T) {
	n := New(Config{})
	_, dst, got := upcallPair(t, n)
	d, err := Build(Addr{Host: 1, Port: 1}, dst.Addr(), []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	before := PoolStats()
	dst.Close()
	n.enqueue(dst, d) // what a latency timer armed before Close does
	if len(*got) != 0 {
		t.Fatalf("a delivery after Close was dispatched: %q", *got)
	}
	after := PoolStats()
	if puts := after.Puts - before.Puts; puts != 1 || after.Gets != before.Gets {
		t.Fatalf("pool: %d gets, %d puts around the dropped delivery, want 0 and 1",
			after.Gets-before.Gets, puts)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestSetUpcallDrainsQueue: datagrams queued before the upcall was set are
// handed to it, in order, when it is.
func TestSetUpcallDrainsQueue(t *testing.T) {
	n := New(Config{})
	src, err := n.Bind(Addr{Host: 1, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.Bind(Addr{Host: 2, Port: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"one", "two"} {
		if err := src.SendTo(dst.Addr(), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	dst.SetUpcall(func(d []byte) {
		got = append(got, string(Payload(d)))
		FreeBuf(d)
	})
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("upcall saw %q", got)
	}
}
