// Endurance: measure flash wear (erase counts and device-internal write
// amplification) under a scattered update workload for SIAS vs SI — the
// paper's Section 6 argument that append-only I/O extends SSD lifetime.
//
// The workload matters: updates are spread across many pages (as TPC-C's
// NURand does), so under SI almost every update dirties a distinct page and
// each checkpoint rewrites them all in place, while SIAS packs the same
// updates into a few dense append pages.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/flash"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

const (
	rows            = 8000
	rounds          = 30
	updatesPerRound = 500
)

func run(kind engine.Kind) (flash.Wear, device.Stats) {
	fc := flash.DefaultConfig()
	fc.Blocks = 64 // small device: churn must trigger device GC
	fc.OverProvision = 24
	ssd := flash.New(fc, nil)
	wc := flash.DefaultConfig()
	wc.Blocks = 4096
	walDev := flash.New(wc, nil)

	opts := engine.DefaultOptions(ssd, walDev)
	opts.Kind = kind
	opts.Policy = engine.PolicyT2 // both engines flush at checkpoints only
	opts.PoolFrames = 4096        // workload fits RAM; writes come from checkpoints
	db, err := engine.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	schema := tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.TypeInt64},
		tuple.Column{Name: "counter", Type: tuple.TypeInt64},
		tuple.Column{Name: "pad", Type: tuple.TypeString},
	)
	tab, at, err := db.CreateTable(0, "counters", schema, "id")
	if err != nil {
		log.Fatal(err)
	}

	pad := string(make([]byte, 120))
	tx := db.Begin()
	for i := int64(1); i <= rows; i++ {
		at, err = tab.Insert(tx, at, tuple.Row{i, int64(0), pad})
		if err != nil {
			log.Fatal(err)
		}
	}
	at, _ = db.Commit(tx, at)
	at, _ = db.Checkpoint(at)
	ssd.ResetStats()

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		tx := db.Begin()
		for i := 0; i < updatesPerRound; i++ {
			key := 1 + rng.Int63n(rows) // scattered across the whole heap
			at, err = tab.Update(tx, at, key, func(r tuple.View, dst []byte) ([]byte, error) {
				e := r.Edit()
				e.SetInt64(1, r.Int64(1)+1)
				return e.Append(dst)
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		at, _ = db.Commit(tx, at)
		// Advance past a checkpoint interval: dirty pages reach the device.
		at = at.Add(31 * simclock.Second)
		if at, err = db.Tick(at); err != nil {
			log.Fatal(err)
		}
	}
	return ssd.Wear(), ssd.Stats()
}

func main() {
	fmt.Printf("flash endurance: %d scattered updates (%d rounds x %d), checkpoint-paced flushing\n\n",
		rounds*updatesPerRound, rounds, updatesPerRound)
	fmt.Printf("%-6s %12s %12s %10s %14s\n",
		"engine", "host writes", "phys writes", "erases", "device WA")
	results := map[engine.Kind]flash.Wear{}
	for _, kind := range []engine.Kind{engine.KindSIAS, engine.KindSI} {
		wear, st := run(kind)
		results[kind] = wear
		fmt.Printf("%-6s %12d %12d %10d %14.2f\n",
			kind, st.Writes, st.PhysWrites, wear.TotalErases, st.WriteAmplification())
	}
	fmt.Println()
	if results[engine.KindSIAS].TotalErases < results[engine.KindSI].TotalErases {
		fmt.Println("SIAS packs the scattered updates into dense appends: fewer page writes,")
		fmt.Println("fewer erases — the endurance advantage the paper attributes to append-only I/O.")
	} else {
		fmt.Println("unexpected: SIAS did not reduce erases on this run")
	}
}
