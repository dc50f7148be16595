package tpcc

import (
	"testing"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/simclock"
)

func newBench(t *testing.T, kind engine.Kind, warehouses int) (*Bench, simclock.Time) {
	t.Helper()
	data := device.NewMem(page.Size, 1<<18)
	walDev := device.NewMem(page.Size, 1<<16)
	opts := engine.DefaultOptions(data, walDev)
	opts.Kind = kind
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, at, err := CreateTables(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	at, err = b.Load(at, warehouses)
	if err != nil {
		t.Fatal(err)
	}
	return b, at
}

func TestKeyPackingUnique(t *testing.T) {
	seen := map[int64]string{}
	check := func(k int64, desc string) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %s and %s -> %d", prev, desc, k)
		}
		seen[k] = desc
	}
	for w := int64(1); w <= 3; w++ {
		check(KeyWarehouse(w), "w")
		for d := int64(1); d <= 10; d++ {
			check(KeyDistrict(w, d), "d")
			for c := int64(1); c <= 5; c++ {
				check(KeyCustomer(w, d, c), "c")
			}
			for o := int64(1); o <= 5; o++ {
				check(KeyOrder(w, d, o), "o")
				for l := int64(1); l <= 15; l++ {
					check(KeyOrderLine(w, d, o, l), "ol")
				}
			}
		}
		for i := int64(1); i <= 5; i++ {
			check(KeyStock(w, i), "s")
		}
	}
}

func TestLastNames(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %s", LastName(0))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Errorf("LastName(999) = %s", LastName(999))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Errorf("LastName(371) = %s", LastName(371))
	}
}

func TestLoadPopulation(t *testing.T) {
	for _, kind := range []engine.Kind{engine.KindSI, engine.KindSIAS} {
		t.Run(kind.String(), func(t *testing.T) {
			b, at := newBench(t, kind, 2)
			tx := b.DB.Begin()
			// Spot-check each table.
			if _, _, err := b.Warehouse.Get(tx, at, KeyWarehouse(2)); err != nil {
				t.Errorf("warehouse 2: %v", err)
			}
			if _, _, err := b.District.Get(tx, at, KeyDistrict(1, 10)); err != nil {
				t.Errorf("district (1,10): %v", err)
			}
			if _, _, err := b.Customer.Get(tx, at, KeyCustomer(2, 5, CustomersPerDistrict)); err != nil {
				t.Errorf("customer: %v", err)
			}
			if _, _, err := b.Item.Get(tx, at, KeyItem(Items)); err != nil {
				t.Errorf("item: %v", err)
			}
			if _, _, err := b.Stock.Get(tx, at, KeyStock(1, 1)); err != nil {
				t.Errorf("stock: %v", err)
			}
			if _, _, err := b.Order.Get(tx, at, KeyOrder(1, 1, InitialOrders)); err != nil {
				t.Errorf("order: %v", err)
			}
			b.DB.Commit(tx, at)
		})
	}
}

func TestTxnMixDistribution(t *testing.T) {
	b, _ := newBench(t, engine.KindSIAS, 1)
	_ = b
	counts := map[TxnType]int{}
	rng := b.rng
	for i := 0; i < 20000; i++ {
		counts[pickTxn(rng)]++
	}
	frac := func(typ TxnType) float64 { return float64(counts[typ]) / 20000 }
	if f := frac(TxnNewOrder); f < 0.42 || f > 0.48 {
		t.Errorf("NewOrder fraction = %.3f, want ~0.45", f)
	}
	if f := frac(TxnPayment); f < 0.40 || f > 0.46 {
		t.Errorf("Payment fraction = %.3f, want ~0.43", f)
	}
}

func TestShortRunBothEngines(t *testing.T) {
	for _, kind := range []engine.Kind{engine.KindSI, engine.KindSIAS} {
		t.Run(kind.String(), func(t *testing.T) {
			b, at := newBench(t, kind, 2)
			cfg := DefaultDriverConfig(2)
			cfg.Duration = 5 * simclock.Second
			m, _, err := b.Run(at, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Committed == 0 {
				t.Fatal("no transactions committed")
			}
			if m.NewOrders == 0 {
				t.Fatal("no NewOrders committed")
			}
			if m.NOTPM <= 0 {
				t.Errorf("NOTPM = %v", m.NOTPM)
			}
			if m.AvgResponse <= 0 {
				t.Errorf("AvgResponse = %v", m.AvgResponse)
			}
			t.Logf("%s: %s (total=%d)", kind, m, m.Total)
		})
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() Metrics {
		b, at := newBench(t, engine.KindSIAS, 1)
		cfg := DefaultDriverConfig(1)
		cfg.Duration = 2 * simclock.Second
		m, _, err := b.Run(at, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := run()
	m2 := run()
	if m1.Total != m2.Total || m1.NewOrders != m2.NewOrders {
		t.Errorf("non-deterministic: %+v vs %+v", m1.Total, m2.Total)
	}
}

func TestConsistencyAfterRun(t *testing.T) {
	// TPC-C consistency condition 1 (adapted): d_next_o_id - 1 equals the
	// highest order id present for the district.
	b, at := newBench(t, engine.KindSIAS, 1)
	cfg := DefaultDriverConfig(1)
	cfg.Duration = 3 * simclock.Second
	m, at, err := b.Run(at, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NewOrders == 0 {
		t.Skip("no NewOrders in tiny run")
	}
	tx := b.DB.Begin()
	for d := int64(1); d <= DistrictsPerWH; d++ {
		drow, a, err := b.District.Get(tx, at, KeyDistrict(1, d))
		at = a
		if err != nil {
			t.Fatal(err)
		}
		nextO := drow.Int64(4)
		if nextO > InitialOrders+1 {
			if _, a, err := b.Order.Get(tx, at, KeyOrder(1, d, nextO-1)); err != nil {
				t.Errorf("district %d: order %d missing (next_o_id=%d)", d, nextO-1, nextO)
			} else {
				at = a
			}
		}
		if _, _, err := b.Order.Get(tx, at, KeyOrder(1, d, nextO)); err == nil {
			t.Errorf("district %d: order %d exists beyond next_o_id", d, nextO)
		}
	}
	b.DB.Commit(tx, at)
}
