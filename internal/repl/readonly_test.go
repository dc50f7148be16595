package repl_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"sias/internal/client"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/repl"
	"sias/internal/server"
	"sias/internal/shard"
)

// TestReadOnlyCommitsShipNothing: a transaction that wrote nothing leaves no
// byte in the primary's logs, so there is nothing to ship — across 1,000
// cross-shard read-only commits the primary's durable LSNs, the followers'
// applied LSNs and applied-record counts all stand still and lag stays zero.
// A cross-shard WRITE commit right after still reaches both followers whole:
// the coordinator shard ships DECIDE then COMMIT in log order, the other
// participant its own outcome record.
func TestReadOnlyCommitsShipNothing(t *testing.T) {
	prim := routerOf(t,
		openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
		openPrimary(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
	)
	psrv, err := server.New(server.Config{Router: prim})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pErr := serveOn(psrv, pln)
	defer func() {
		psrv.Shutdown(context.Background())
		<-pErr
	}()

	// Two followers, each mirroring both shards and serving reads.
	fs := make([]*repl.Follower, 2)
	fcs := make([]*client.Client, 2)
	for i := range fs {
		shards := []shard.Shard{
			openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
			openFollower(t, device.NewMem(page.Size, 1<<16), device.NewMem(page.Size, 1<<14), false),
		}
		f, err := repl.NewFollower(repl.Config{
			PrimaryAddr: pln.Addr().String(),
			Shards:      []*engine.Facade{shards[0].Facade, shards[1].Facade},
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Run()
		defer f.Stop()
		fsrv, err := server.New(server.Config{Router: routerOf(t, shards...), Replica: f})
		if err != nil {
			t.Fatal(err)
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fErr := serveOn(fsrv, fln)
		defer func() {
			fsrv.Shutdown(context.Background())
			<-fErr
		}()
		fc, err := client.Dial(fln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		fs[i], fcs[i] = f, fc
	}

	pc, err := client.Dial(pln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var k0, k1 int64 = -1, -1
	for k := int64(0); k0 < 0 || k1 < 0; k++ {
		switch {
		case shard.Of(k, 2) == 0 && k0 < 0:
			k0 = k
		case shard.Of(k, 2) == 1 && k1 < 0:
			k1 = k
		}
	}
	seed, err := pc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{k0, k1} {
		if err := seed.Insert(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		f := f
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to catch up", i), func() bool { return caughtUp(f) })
	}

	type mark struct {
		durable []uint64
		applied [][2]repl.ShardLag
	}
	snap := func() mark {
		var m mark
		for _, st := range prim.Stats() {
			m.durable = append(m.durable, st.WALDurableLSN)
		}
		for _, f := range fs {
			sh := f.Stats().Shards
			m.applied = append(m.applied, [2]repl.ShardLag{sh[0], sh[1]})
		}
		return m
	}
	before := snap()
	nextLSN := func() [2]uint64 {
		return [2]uint64{uint64(prim.Shard(0).Facade.DB().WAL().NextLSN()), uint64(prim.Shard(1).Facade.DB().WAL().NextLSN())}
	}
	logEnd := nextLSN()

	const reads = 1000
	for i := 0; i < reads; i++ {
		tx, err := pc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{k0, k1} {
			if v, err := tx.Get(k); err != nil || string(v) != "old" {
				t.Fatalf("read %d of key %d: %q, %v", i, k, v, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := nextLSN(); got != logEnd {
		t.Errorf("%d read-only commits appended to the primary's logs: %v -> %v", reads, logEnd, got)
	}
	// Heartbeats keep flowing on an idle stream; give a few of them the
	// chance to carry anything there might be to carry.
	time.Sleep(50 * time.Millisecond)
	after := snap()
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("%d read-only commits moved replication state:\nbefore %+v\nafter  %+v", reads, before, after)
	}
	for i, lags := range after.applied {
		for s, lag := range lags {
			if lag.LagBytes != 0 || lag.LagRecords != 0 {
				t.Errorf("follower %d shard %d lags after read-only commits: %+v", i, s, lag)
			}
		}
	}
	var ro int64
	for _, st := range prim.Stats() {
		ro += st.ReadOnlyCommits
	}
	if ro != 2*reads {
		t.Errorf("primary counted %d read-only sub-transaction commits, want %d", ro, 2*reads)
	}

	// A cross-shard write commit becomes visible, whole, on both followers.
	w, err := pc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{k0, k1} {
		if err := w.Update(k, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if rs := prim.RouterStats(); rs.CrossCommits != 2 || rs.TwoPCCommits != 2 {
		t.Errorf("router counted %d cross-shard / %d 2PC commits, want the seed and the update only", rs.CrossCommits, rs.TwoPCCommits)
	}
	for i, fc := range fcs {
		i, fc := i, fc
		waitFor(t, 10*time.Second, fmt.Sprintf("follower %d to show the cross-shard commit", i), func() bool {
			tx, err := fc.Begin()
			if err != nil {
				t.Error(err)
				return true
			}
			defer tx.Abort()
			v0, err0 := tx.Get(k0)
			v1, err1 := tx.Get(k1)
			if err0 != nil || err1 != nil {
				t.Errorf("follower %d read: %v, %v", i, err0, err1)
				return true
			}
			return string(v0) == "new" && string(v1) == "new"
		})
	}
}
