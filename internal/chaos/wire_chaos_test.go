package chaos

import (
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/oncrpc"
	"slice/internal/wire"
)

// TestStorageRestartMidTCPUntar kills and reboots a storage node while a
// real-TCP client is mid-untar and a second TCP connection is streaming
// a striped file through the same wire gateway. The RPC layer's
// retransmissions ride the fault (the TCP connections themselves never
// break — only fabric datagrams die), and the volume must end fsck-clean
// with the streamed bytes intact.
func TestStorageRestartMidTCPUntar(t *testing.T) {
	const stripe = 128 * 1024
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = 3
		cfg.StripeUnit = stripe
		cfg.TCPListen = "127.0.0.1:0"
	})
	ch := e.Chaos()
	rpc := oncrpc.ClientConfig{Timeout: 25 * time.Millisecond, Retries: 11}

	dial := func() *client.Client {
		conn, err := wire.Dial(e.Gateways[0].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := client.NewWithConn(conn, client.Config{
			Server: e.Virtual, StripeUnit: stripe, RPC: rpc,
		})
		t.Cleanup(c.Close)
		if err := c.Mount(); err != nil {
			t.Fatalf("mount over TCP: %v", err)
		}
		return c
	}
	untarrer, writer := dial(), dial()

	// Second connection streams a striped file for the whole run, so
	// bulk chunks are in flight when the node dies.
	data := make([]byte, 1024*1024)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>9)
	}
	fh, _, err := writer.Create(writer.Root(), "wire-chaos-bulk", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan error, 1)
	go func() {
		for off := 0; off < len(data); off += stripe {
			end := off + stripe
			if end > len(data) {
				end = len(data)
			}
			err := Retry(10*time.Second, func() error {
				_, err := writer.Write(fh, uint64(off), data[off:end], false)
				return err
			})
			if err != nil {
				streamed <- err
				return
			}
		}
		streamed <- Retry(10*time.Second, func() error {
			_, err := writer.Commit(fh)
			return err
		})
	}()

	// Mid-untar, reboot storage node 1: in-flight datagrams to and from
	// it are lost; the workload must not notice beyond latency.
	restarted := false
	ents, err := Untar(untarrer, untarrer.Root(), UntarConfig{
		Dirs: 5, Files: 15, OpBudget: 10 * time.Second,
		OnEntry: func(n int) {
			if n == 7 && !restarted {
				restarted = true
				if err := rebootStorage(ch, 1); err != nil {
					t.Errorf("storage restart: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("untar over TCP under storage restart: %v", err)
	}
	if len(ents) != 20 {
		t.Fatalf("untar acked %d entries, want 20", len(ents))
	}
	if !restarted {
		t.Fatal("fault never fired")
	}
	if err := <-streamed; err != nil {
		t.Fatalf("bulk stream under storage restart: %v", err)
	}

	VerifyBytes(t, e, writer, fh, data)
	FsckClean(t, e)
}
