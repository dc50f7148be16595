package engine

import (
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// The helpers below let a test read and write whole rows through Table's
// view methods, the way Facade's row adapters do.

// getRow is Table.Get decoded to a row.
func getRow(tab *Table, tx *txn.Tx, at simclock.Time, key int64) (tuple.Row, simclock.Time, error) {
	v, t, err := tab.Get(tx, at, key)
	if err != nil {
		return nil, t, err
	}
	return v.Row(), t, nil
}

// rowUpdate adapts a row mutation to Table.Update.
func rowUpdate(mutate func(tuple.Row) (tuple.Row, error)) func(tuple.View, []byte) ([]byte, error) {
	return func(old tuple.View, dst []byte) ([]byte, error) {
		row, err := mutate(old.Row())
		if err != nil {
			return nil, err
		}
		return old.Schema().AppendRow(dst, row)
	}
}

// rowVisit adapts a row visitor to Table.Scan and Table.RangeByKey.
func rowVisit(fn func(tuple.Row) bool) func(tuple.View) bool {
	return func(v tuple.View) bool { return fn(v.Row()) }
}

// rowVisitKey adapts a row visitor to Table.RangeBySecondary.
func rowVisitKey(fn func(int64, tuple.Row) bool) func(int64, tuple.View) bool {
	return func(k int64, v tuple.View) bool { return fn(k, v.Row()) }
}

// rowVisitAll adapts a row visitor to Table.ParallelScan.
func rowVisitAll(fn func(tuple.Row)) func(tuple.View) {
	return func(v tuple.View) { fn(v.Row()) }
}

// rowKeyFn adapts a row key function to Table.AddSecondaryIndex.
func rowKeyFn(fn func(tuple.Row) (int64, bool)) func(tuple.View) (int64, bool) {
	return func(v tuple.View) (int64, bool) { return fn(v.Row()) }
}
