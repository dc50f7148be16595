package server_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/page"
	"sias/internal/shard"
)

// TestCommitConnectionLossInDoubt: a transaction that wrote and loses its
// connection mid-COMMIT must surface the typed client.ErrInDoubt — the
// outcome is unknown (for a cross-shard transaction the coordinator may
// have logged its decision as the connection died), so callers retry reads,
// not the writes.
func TestCommitConnectionLossInDoubt(t *testing.T) {
	srv, addr := startServer(t, memRouter(t, 2), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Two keys on different shards so the commit is a cross-shard 2PC.
	var k0, k1 int64 = -1, -1
	for k := int64(0); k0 < 0 || k1 < 0; k++ {
		if shard.Of(k, 2) == 0 && k0 < 0 {
			k0 = k
		} else if shard.Of(k, 2) == 1 && k1 < 0 {
			k1 = k
		}
	}
	if err := tx.Insert(k0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// The second INSERT went ahead of its reply; a read settles it, so both
	// writes are confirmed before the connection dies.
	if _, err := tx.Get(k1); err != nil {
		t.Fatal(err)
	}

	srv.Kill() // the connection dies with the commit about to be in flight

	err = tx.Commit()
	if err == nil {
		t.Fatal("commit over a killed connection succeeded")
	}
	if !errors.Is(err, client.ErrInDoubt) {
		t.Fatalf("commit error = %v, want errors.Is(err, client.ErrInDoubt)", err)
	}
}

// TestCommitConnectionLossReadOnlyNotInDoubt: losing the connection on a
// transaction that never wrote is never an in-doubt outcome — there is
// nothing whose durability could be unknown. Its COMMIT does not wait for a
// reply, so it returns nil: the reads stand whether or not the server hears
// it.
func TestCommitConnectionLossReadOnlyNotInDoubt(t *testing.T) {
	srv, addr := startServer(t, memRouter(t, 2), nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// A read only (the key need not exist; only the transport matters here).
	_, _ = tx.Get(1)

	srv.Kill()

	err = tx.Commit()
	if errors.Is(err, client.ErrInDoubt) {
		t.Fatalf("read-only commit classified in-doubt: %v", err)
	}
	if err != nil {
		t.Fatalf("write-free commit over a killed connection: %v, want nil (it waits for no reply)", err)
	}
}

// TestDecideFlushFailureReachesClientInDoubt: when the coordinator's
// commit-decision flush fails, the server cannot know whether the decision
// reached the device, and the client must hear exactly that — the typed
// client.ErrInDoubt over a healthy connection, not an untyped INTERNAL that a
// caller would count as a plain failure.
func TestDecideFlushFailureReachesClientInDoubt(t *testing.T) {
	var committing atomic.Bool
	coordWAL := device.NewWrap(device.NewMem(page.Size, 1<<14))
	coordWAL.SetWriteHook(func(int64) error {
		if committing.Load() {
			return errors.New("injected WAL write failure")
		}
		return nil
	})
	r := routerOf(t,
		openKV(t, device.NewMem(page.Size, 1<<16), coordWAL, false),
		openKV(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false))
	srv, addr := startServer(t, r, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k0, k1 := twoShardKeys()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Shard 0 coordinates, and the first write the commit asks of its WAL is
	// the decide flush.
	committing.Store(true)
	err = tx.Commit()
	committing.Store(false)
	if !errors.Is(err, client.ErrInDoubt) {
		t.Fatalf("commit error = %v, want errors.Is(err, client.ErrInDoubt)", err)
	}
	if rs := srv.Stats(); rs.OpenTxns != 0 {
		t.Errorf("%d transactions left open after the in-doubt COMMIT", rs.OpenTxns)
	}
	if st, err := c.Stats(); err != nil || st.Router.TwoPCInDoubt != 1 {
		t.Errorf("router in-doubt count %+v (%v), want 1", st.Router, err)
	}
}

// TestCommittedCrossShardCommitNeverFails: once the coordinator's decision
// is durable the transaction is committed, so COMMIT must answer OK even if
// a participant's log takes no write after its prepare — its outcome record
// is left pending, not reported. An error here would invite the client to
// retry a write that already happened.
func TestCommittedCrossShardCommitNeverFails(t *testing.T) {
	var dead atomic.Bool
	partWAL := device.NewWrap(device.NewMem(page.Size, 1<<14))
	part := openKV(t, device.NewMem(page.Size, 1<<16), partWAL, false)
	partWAL.SetWriteHook(func(int64) error {
		if dead.Load() && part.Facade.DB().Stats().Prepares > 0 {
			return errors.New("injected WAL write failure")
		}
		return nil
	})
	r := routerOf(t, openKV(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false), part)
	_, addr := startServer(t, r, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k0, k1 := twoShardKeys()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(k1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	dead.Store(true)
	// Let the drain checkpoint at cleanup flush the pending outcome.
	defer dead.Store(false)
	if err := tx.Commit(); err != nil {
		t.Fatalf("COMMIT of a decided cross-shard transaction = %v, want OK", err)
	}

	rtx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int64]string{k0: "a", k1: "b"} {
		if got, err := rtx.Get(k); err != nil || string(got) != want {
			t.Errorf("key %d after the commit: %q, %v; want %q", k, got, err, want)
		}
	}
	rtx.Abort()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.TwoPCCommits != 1 {
		t.Errorf("router counted %d 2PC commits, want 1", st.Router.TwoPCCommits)
	}
	if st.Shards[1].WALPendingBytes == 0 {
		t.Error("participant reports no pending log bytes though its outcome record cannot be written")
	}
}
