package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sias/internal/client"
	"sias/internal/core"
	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/obs"
	"sias/internal/page"
	"sias/internal/server"
	"sias/internal/shard"
	"sias/internal/tuple"
)

// Device sizes per shard. The log is never recycled, so the WAL device is
// sized to stay far from full (the run fails loudly above walFillLimit rather
// than discovering the end of the device as commit errors).
const (
	walPages     = 131072
	dataPages    = 262144
	walFillLimit = 0.5
)

// stack is one live deployment, assembled exactly as cmd/siasserver does it
// with its defaults (SIAS, t2, readahead 32, auto pool stripes, no linger,
// GC retention 65536, max-inflight 64) and -wal-sync=false (README.md, "Why
// no fsync"): file devices -> engine.Open ->
// engine.NewFacade -> shard.NewRouter -> server.New -> Serve on a loopback
// listener, driven through internal/client. No device wrapper is interposed:
// the program type-asserts optional device interfaces and a wrapper would
// silently disable them.
type stack struct {
	files   []*device.File
	dbs     []*engine.DB
	router  *shard.Router
	srv     *server.Server
	served  chan error
	clients []*client.Client
}

// openStack opens (or, with recover, reopens and replays) the deployment in
// dir. It returns the time from the first device open until every shard's
// Recover has returned, which is what a restart costs.
func openStack(sp *spec, dir string, recover bool) (*stack, time.Duration, error) {
	st := &stack{}
	start := time.Now()
	tabs := make([]*engine.Table, sp.shards)
	for i := 0; i < sp.shards; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, 0, err
		}
		data, err := device.OpenFile(filepath.Join(sdir, "data.img"), page.Size, dataPages)
		if err != nil {
			st.closeFiles()
			return nil, 0, err
		}
		st.files = append(st.files, data)
		walDev, err := device.OpenFile(filepath.Join(sdir, "wal.img"), page.Size, walPages)
		if err != nil {
			st.closeFiles()
			return nil, 0, err
		}
		st.files = append(st.files, walDev)
		db, err := engine.Open(engine.Options{
			Kind:          engine.KindSIAS,
			Policy:        engine.PolicyT2,
			DataDevice:    data,
			WALDevice:     walDev,
			PoolFrames:    max(sp.poolFrames/sp.shards, 64),
			ScanReadahead: 32,
			GCRetention:   1 << 16,
			Recover:       recover,
		})
		if err != nil {
			st.closeFiles()
			return nil, 0, fmt.Errorf("shard %d open: %w", i, err)
		}
		st.dbs = append(st.dbs, db)
		tabs[i], _, err = db.CreateTable(0, "kv", tuple.NewSchema(
			tuple.Column{Name: "k", Type: tuple.TypeInt64},
			tuple.Column{Name: "v", Type: tuple.TypeBytes},
		), "k")
		if err != nil {
			st.closeFiles()
			return nil, 0, fmt.Errorf("shard %d create table: %w", i, err)
		}
	}
	var recovered time.Duration
	if recover {
		if err := st.recover(); err != nil {
			st.closeFiles()
			return nil, 0, err
		}
		recovered = time.Since(start)
	}

	shards := make([]shard.Shard, sp.shards)
	for i, db := range st.dbs {
		shards[i] = shard.Shard{Facade: engine.NewFacade(db), Table: tabs[i]}
	}
	var err error
	if st.router, err = shard.NewRouter(shards); err != nil {
		st.closeFiles()
		return nil, 0, err
	}
	st.srv, err = server.New(server.Config{Router: st.router, MaxInFlight: 64, Obs: obs.NewRegistry()})
	if err != nil {
		st.closeFiles()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeFiles()
		return nil, 0, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1})
		if err != nil {
			st.kill()
			return nil, 0, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, recovered, nil
}

// recover replays every shard's log in parallel, with in-doubt 2PC
// participants resolved from the sibling shards' decision logs — the wiring
// of siasserver's recoverShards.
func (st *stack) recover() error {
	decs := make([]map[uint64]bool, len(st.dbs))
	for i, db := range st.dbs {
		decs[i] = db.Decisions()
	}
	errs := make([]error, len(st.dbs))
	var wg sync.WaitGroup
	for i, db := range st.dbs {
		db.SetInDoubtResolver(func(gid uint64, coord uint32) (bool, bool) {
			if int(coord) >= len(decs) {
				return false, false
			}
			commit, known := decs[coord][gid]
			return commit, known
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Recover(0); err != nil {
				errs[i] = fmt.Errorf("shard %d recover: %w", i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// kill is the crash: the server drops every connection, the engines are
// dropped with no checkpoint, and only what the WAL already holds survives.
// It is also how a finished workload is torn down.
func (st *stack) kill() {
	for _, cl := range st.clients {
		cl.Close()
	}
	if st.srv != nil {
		st.srv.Kill()
		<-st.served
	}
	for _, db := range st.dbs {
		db.Pool().DrainPrefetch() // in-flight reads must land before the files close
	}
	st.closeFiles()
	st.clients, st.srv, st.dbs = nil, nil, nil // a second kill is a no-op
}

func (st *stack) closeFiles() {
	for _, f := range st.files {
		f.Close()
	}
	st.files = nil
}

func (st *stack) rungs(mk func(c int) beginner) []beginner {
	out := make([]beginner, clients)
	for c := range out {
		out[c] = mk(c)
	}
	return out
}

func (st *stack) clientRungs() []beginner {
	return st.rungs(func(c int) beginner { return clientRung(st.clients[c]) })
}

// snap is one reading of every public Stats() surface of the deployment.
type snap struct {
	shards []engine.Stats
	eng    engine.Stats // shard.Aggregate(shards)
	router shard.RouterStats
	srv    server.Stats
	core   core.Stats // summed over shards
	walLSN uint64     // sum of the shards' durable log ends
}

func (st *stack) snap() snap {
	s := snap{shards: st.router.Stats(), router: st.router.RouterStats(), srv: st.srv.Stats()}
	s.eng = shard.Aggregate(s.shards)
	for i := range s.shards {
		s.walLSN += s.shards[i].WALDurableLSN
		c := st.router.Shard(i).Table.SIAS().Stats()
		s.core.Appends += c.Appends
		s.core.PagesSealed += c.PagesSealed
		s.core.SealedTuples += c.SealedTuples
		s.core.ChainWalks += c.ChainWalks
		s.core.ChainHops += c.ChainHops
		s.core.IndexInserts += c.IndexInserts
		s.core.IndexLookups += c.IndexLookups
		s.core.GCPages += c.GCPages
		s.core.GCRelocations += c.GCRelocations
		s.core.GCDiscarded += c.GCDiscarded
		s.core.VMapMisses += c.VMapMisses
	}
	return s
}

// walFill is the fullest shard's share of its log device in use.
func (s *snap) walFill() float64 {
	var fill float64
	for i := range s.shards {
		fill = max(fill, float64(s.shards[i].WALDurableLSN)/float64(walPages*page.Size))
	}
	return fill
}
