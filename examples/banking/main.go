// Banking: concurrent transfers under snapshot isolation with
// first-updater-wins conflict handling, exercising the public API from many
// goroutines and validating the conservation invariant at the end.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"sias"
)

const (
	accounts       = 100
	initialBalance = 1000
	workers        = 8
	transfersEach  = 200
)

func main() {
	db, err := sias.Open(sias.Options{Engine: sias.EngineSIAS, Storage: sias.StorageMem})
	if err != nil {
		log.Fatal(err)
	}
	tab, err := db.CreateTable("accounts", sias.NewSchema(
		sias.Column{Name: "id", Type: sias.TypeInt64},
		sias.Column{Name: "balance", Type: sias.TypeInt64},
	), "id")
	if err != nil {
		log.Fatal(err)
	}

	setup := db.Begin()
	for i := int64(1); i <= accounts; i++ {
		if err := tab.Insert(setup, sias.Row{i, int64(initialBalance)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(setup); err != nil {
		log.Fatal(err)
	}

	var committed, conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfersEach; i++ {
				from := 1 + rng.Int63n(accounts)
				to := 1 + rng.Int63n(accounts)
				if from == to {
					continue
				}
				amount := 1 + rng.Int63n(50)
				// Update the lower account id first: two transfers between
				// the same accounts then lock them in the same order, so one
				// waits for the other instead of deadlocking.
				first, second := from, to
				delta := -amount
				if to < from {
					first, second, delta = to, from, amount
				}
				tx := db.Begin()
				err := tab.Update(tx, first, func(r sias.Row) (sias.Row, error) {
					r[1] = r[1].(int64) + delta
					return r, nil
				})
				if err == nil {
					err = tab.Update(tx, second, func(r sias.Row) (sias.Row, error) {
						r[1] = r[1].(int64) - delta
						return r, nil
					})
				}
				if err != nil {
					// First-updater-wins: a concurrent transfer touched the
					// same account first. Roll back and move on.
					db.Abort(tx)
					if errors.Is(err, sias.ErrSerialization) {
						conflicts.Add(1)
						continue
					}
					log.Fatal(err)
				}
				if err := db.Commit(tx); err != nil {
					log.Fatal(err)
				}
				committed.Add(1)
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	// The invariant: total money is conserved, no matter how the transfers
	// interleaved.
	check := db.Begin()
	total := int64(0)
	n := 0
	if err := tab.Scan(check, func(r sias.Row) bool {
		total += r[1].(int64)
		n++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	db.Commit(check)

	fmt.Printf("transfers committed: %d, serialization conflicts: %d\n", committed.Load(), conflicts.Load())
	fmt.Printf("accounts: %d, total balance: %d (expected %d)\n", n, total, int64(accounts*initialBalance))
	if total != accounts*initialBalance {
		log.Fatal("INVARIANT VIOLATED: money was created or destroyed")
	}
	fmt.Println("invariant holds: snapshot isolation with first-updater-wins kept the books balanced")
}
