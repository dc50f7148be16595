package tpcc

import (
	"fmt"
	"math/rand"
	"strings"

	"sias/internal/engine"
	"sias/internal/simclock"
	"sias/internal/tuple"
)

// Bench groups the TPC-C tables of one database.
type Bench struct {
	DB        *engine.DB
	Warehouse *engine.Table
	District  *engine.Table
	Customer  *engine.Table
	Order     *engine.Table
	NewOrder  *engine.Table
	OrderLine *engine.Table
	Item      *engine.Table
	Stock     *engine.Table
	History   *engine.Table

	CustByName int // secondary index id on Customer

	// Scale is the per-warehouse population; set before Load (defaults to
	// DefaultScale).
	Scale Scale

	Warehouses int
	rng        *rand.Rand
	histSeq    int64
	// nextDelivery tracks, per district key, the oldest undelivered order.
	nextDelivery map[int64]int64
}

// CreateTables registers the nine TPC-C tables on db. Must be called in this
// fixed order when recovering (table ids are positional).
func CreateTables(db *engine.DB, at simclock.Time) (*Bench, simclock.Time, error) {
	b := &Bench{DB: db, Scale: DefaultScale(), rng: rand.New(rand.NewSource(42)), nextDelivery: map[int64]int64{}}
	var err error
	mk := func(name string, s *tuple.Schema, pk string) *engine.Table {
		if err != nil {
			return nil
		}
		var tab *engine.Table
		tab, at, err = db.CreateTable(at, name, s, pk)
		return tab
	}
	b.Warehouse = mk("warehouse", WarehouseSchema(), "w_id")
	b.District = mk("district", DistrictSchema(), "d_id")
	b.Customer = mk("customer", CustomerSchema(), "c_id")
	b.Order = mk("orders", OrderSchema(), "o_id")
	b.NewOrder = mk("new_order", NewOrderSchema(), "no_o_id")
	b.OrderLine = mk("order_line", OrderLineSchema(), "ol_id")
	b.Item = mk("item", ItemSchema(), "i_id")
	b.Stock = mk("stock", StockSchema(), "s_id")
	b.History = mk("history", HistorySchema(), "h_id")
	if err != nil {
		return nil, at, err
	}
	// Secondary index: customer by (w, d, last-name).
	b.CustByName, at, err = b.Customer.AddSecondaryIndex(at, "cust_by_name", func(r tuple.View) (int64, bool) {
		cKey := r.Int64(0)
		c := cKey & 0xFFFF
		wd := cKey >> 16
		return wd<<10 | LastNameIndex(c), true
	})
	if err != nil {
		return nil, at, err
	}
	return b, at, nil
}

func pad(n int) string { return strings.Repeat("x", n) }

// Load populates w warehouses with the scaled cardinalities.
func (b *Bench) Load(at simclock.Time, w int) (simclock.Time, error) {
	b.Warehouses = w
	rng := b.rng

	// Items (shared across warehouses).
	tx := b.DB.Begin()
	var err error
	for i := int64(1); i <= int64(b.Scale.Items); i++ {
		at, err = b.Item.Insert(tx, at, tuple.Row{
			KeyItem(i), fmt.Sprintf("item-%d", i), 1 + rng.Float64()*99, pad(30),
		})
		if err != nil {
			return at, fmt.Errorf("tpcc: load item %d: %w", i, err)
		}
	}
	if at, err = b.DB.Commit(tx, at); err != nil {
		return at, err
	}

	for wi := int64(1); wi <= int64(w); wi++ {
		tx := b.DB.Begin()
		at, err = b.Warehouse.Insert(tx, at, tuple.Row{
			KeyWarehouse(wi), fmt.Sprintf("WH%d", wi), rng.Float64() * 0.2, 300000.0, pad(60),
		})
		if err != nil {
			return at, err
		}
		// Stock.
		for i := int64(1); i <= int64(b.Scale.Items); i++ {
			at, err = b.Stock.Insert(tx, at, tuple.Row{
				KeyStock(wi, i), int64(10 + rng.Intn(91)), int64(0), int64(0), int64(0), pad(40),
			})
			if err != nil {
				return at, err
			}
		}
		if at, err = b.DB.Commit(tx, at); err != nil {
			return at, err
		}

		for d := int64(1); d <= DistrictsPerWH; d++ {
			tx := b.DB.Begin()
			at, err = b.District.Insert(tx, at, tuple.Row{
				KeyDistrict(wi, d), fmt.Sprintf("D%d-%d", wi, d), rng.Float64() * 0.2, 30000.0,
				int64(b.Scale.InitialOrders + 1), pad(60),
			})
			if err != nil {
				return at, err
			}
			for c := int64(1); c <= int64(b.Scale.CustomersPerDistrict); c++ {
				credit := "GC"
				if rng.Intn(10) == 0 {
					credit = "BC"
				}
				at, err = b.Customer.Insert(tx, at, tuple.Row{
					KeyCustomer(wi, d, c), LastName(int(LastNameIndex(c))), credit,
					-10.0, 10.0, int64(1), int64(0), pad(150),
				})
				if err != nil {
					return at, err
				}
			}
			// Initial orders with lines; the most recent third undelivered.
			for o := int64(1); o <= int64(b.Scale.InitialOrders); o++ {
				cnt := int64(5 + rng.Intn(11))
				carrier := int64(1 + rng.Intn(10))
				if o > int64(b.Scale.InitialOrders)*2/3 {
					carrier = 0 // undelivered
				}
				at, err = b.Order.Insert(tx, at, tuple.Row{
					KeyOrder(wi, d, o), 1 + int64(rng.Intn(b.Scale.CustomersPerDistrict)), carrier, cnt, int64(0),
				})
				if err != nil {
					return at, err
				}
				for l := int64(1); l <= cnt; l++ {
					at, err = b.OrderLine.Insert(tx, at, tuple.Row{
						KeyOrderLine(wi, d, o, l), 1 + int64(rng.Intn(b.Scale.Items)),
						int64(5), rng.Float64() * 100, pad(24),
					})
					if err != nil {
						return at, err
					}
				}
				if carrier == 0 {
					at, err = b.NewOrder.Insert(tx, at, tuple.Row{KeyOrder(wi, d, o)})
					if err != nil {
						return at, err
					}
					dk := KeyDistrict(wi, d)
					if cur, ok := b.nextDelivery[dk]; !ok || o < cur {
						b.nextDelivery[dk] = o
					}
				}
			}
			if at, err = b.DB.Commit(tx, at); err != nil {
				return at, err
			}
		}
	}
	// Checkpoint the loaded database so steady-state measurement starts
	// from a clean slate (as DBT-2 does after its load phase).
	return b.DB.Checkpoint(at)
}
