package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// kvRole is a role of several shards for the checkpoint tests: a map of
// keys to values, key k in shard k % len(shards), journaled as records
// that carry post-state — recSet (key, value) and recDel (key).
type kvRole struct {
	shards []kvShard
	live   int // the live image's journal length, under every shard's lock
	log    *Log
}

type kvShard struct {
	mu sync.Mutex
	m  map[uint32][]byte
}

const (
	recSet = 1
	recDel = 2
)

func newKVRole(log *Log, n int) *kvRole {
	r := &kvRole{shards: make([]kvShard, n), log: log}
	shards := make([]Shard, n)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.m = make(map[uint32][]byte)
		shards[i] = Shard{Mu: &sh.mu, Live: func(emit func(uint32, []byte)) {
			for k, v := range sh.m {
				emit(recSet, kvRecord(k, v))
			}
		}}
	}
	log.SetLive(func() int { return r.live }, shards...)
	return r
}

func kvRecord(k uint32, v []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, k), v...)
}

// set binds k to v, or unbinds it when v is nil, and journals it in k's
// shard, under its lock.
func (r *kvRole) set(k uint32, v []byte) error {
	i := int(k) % len(r.shards)
	sh := &r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.m[k]; ok {
		r.live -= FrameLen(4 + len(old))
		delete(sh.m, k)
	}
	recType := uint32(recDel)
	if v != nil {
		sh.m[k] = v
		r.live += FrameLen(4 + len(v))
		recType = recSet
	}
	_, err := r.log.AppendIn(i, recType, kvRecord(k, v))
	return err
}

// must fails t on err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// state returns the role's bindings, all shards merged.
func (r *kvRole) state() map[uint32][]byte {
	out := make(map[uint32][]byte)
	for i := range r.shards {
		maps.Copy(out, r.shards[i].m)
	}
	return out
}

// replayKV replays a journal into the bindings it rebuilds.
func replayKV(t *testing.T, store Store) map[uint32][]byte {
	t.Helper()
	l, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32][]byte)
	if err := l.Scan(func(_ uint64, recType uint32, p []byte) error {
		k := binary.BigEndian.Uint32(p)
		if recType == recSet {
			out[k] = append([]byte(nil), p[4:]...)
		} else {
			delete(out, k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func equalKV(a, b map[uint32][]byte) bool { return maps.EqualFunc(a, b, bytes.Equal) }

// TestShardCheckpointSpansAppends: a role of four shards, each past the
// floor, so a checkpoint writes one shard a step and stays open across
// appends. A crash copy taken after every append while a checkpoint is
// open, and after the one that closes it, replays to exactly the role's
// state; the journal stays within the bound a step's lag allows.
func TestShardCheckpointSpansAppends(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	r := newKVRole(log, 4)
	rng := rand.New(rand.NewSource(3))
	spanned, checked := 0, 0
	for op := 0; op < 6000; op++ {
		k := uint32(rng.Intn(400))
		var v []byte
		if rng.Intn(10) > 0 {
			v = make([]byte, 500+rng.Intn(1000))
			rng.Read(v)
		}
		wasOpen, before := log.ck.open, log.Stats().Compactions
		must(t, r.set(k, v))
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		if log.ck.open && wasOpen {
			spanned++
		}
		if !log.ck.open && log.Stats().Compactions == before {
			continue
		}
		checked++
		if got := replayKV(t, store.CrashCopy()); !equalKV(got, r.state()) {
			t.Fatalf("op %d: a crash copy taken with a checkpoint open replays %d bindings, the role holds %d", op, len(got), len(r.state()))
		}
		// A journal past twice its image by at most the image: the old
		// journal, and the shards written so far.
		if limit := 3*max(r.live, CompactFloor) + 8*FrameLen(4+1500); log.size > limit {
			t.Fatalf("op %d: %d bytes with a checkpoint open, over %d", op, log.size, limit)
		}
	}
	st := log.Stats()
	if st.Compactions < 3 || spanned < int(st.Compactions) {
		t.Fatalf("%d checkpoints, open across %d appends: want several, each over more than one step", st.Compactions, spanned)
	}
	if st.MaxStepNS == 0 || st.MaxStepNS > st.CompactNS {
		t.Fatalf("longest step %d ns of %d ns in all", st.MaxStepNS, st.CompactNS)
	}
	t.Logf("%d checkpoints, %d appends inside one, %d crash copies replayed", st.Compactions, spanned, checked)
}

// TestShardCheckpointSkipsBusyShard: a step never waits on a shard lock.
// With one shard held by another holder, appends in the others go on,
// and their steps write every shard but the busy one; the checkpoint
// closes at the first step after the lock is free. Checkpoint, which
// waits for each lock in turn, completes one whole.
func TestShardCheckpointSkipsBusyShard(t *testing.T) {
	store := NewMemStore()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	r := newKVRole(log, 3)
	v := make([]byte, 1000)
	for k := uint32(0); k < 3*150; k++ { // 150 KB a shard: a step each
		must(t, r.set(k, v))
	}
	for k := uint32(0); !log.ck.open; k += 3 { // overwrites in shard 0
		must(t, r.set(k%450, v))
	}
	busy := &r.shards[1]
	busy.mu.Lock()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = r.set(3*uint32(i), v)
		}
		done <- err
	}()
	select {
	case err := <-done:
		must(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("appends in shard 0 wait on the lock of shard 1")
	}
	if got := fmt.Sprint(log.ck.left); !log.ck.open || got != "[1]" {
		t.Fatalf("checkpoint open %v with shards %s left, want shard 1 alone", log.ck.open, got)
	}
	busy.mu.Unlock()
	n := log.Stats().Compactions
	must(t, r.set(0, v))
	if log.ck.open || log.Stats().Compactions != n+1 {
		t.Fatal("the first step after the busy shard's release did not close the checkpoint")
	}
	if got := replayKV(t, store.CrashCopy()); !equalKV(got, r.state()) {
		t.Fatal("the checkpointed journal replays another state")
	}

	busy.mu.Lock()
	go func() { done <- log.Checkpoint() }()
	busy.mu.Unlock()
	must(t, <-done)
	if log.Stats().Compactions != n+2 || log.size != r.live {
		t.Fatalf("after Checkpoint: %d bytes, %d live", log.size, r.live)
	}
}
