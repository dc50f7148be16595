package tpcc

import (
	"math/rand"
	"testing"

	"sias/internal/engine"
	"sias/internal/simclock"
)

func tinyBench(t *testing.T) (*Bench, simclock.Time) {
	t.Helper()
	return newBench(t, engine.KindSIAS, 1)
}

func TestNewOrderAdvancesDistrictCounter(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(5))

	readNext := func(d int64) int64 {
		tx := b.DB.Begin()
		row, a, err := b.District.Get(tx, at, KeyDistrict(1, d))
		at = a
		if err != nil {
			t.Fatal(err)
		}
		b.DB.Commit(tx, at)
		return row.Int64(4)
	}
	before := make(map[int64]int64)
	for d := int64(1); d <= DistrictsPerWH; d++ {
		before[d] = readNext(d)
	}
	committed := 0
	for i := 0; i < 30; i++ {
		a, res, err := b.NewOrderTxn(at, rng, 1)
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			committed++
		}
	}
	var advanced int64
	for d := int64(1); d <= DistrictsPerWH; d++ {
		advanced += readNext(d) - before[d]
	}
	if advanced != int64(committed) {
		t.Errorf("district counters advanced %d, want %d (committed orders)", advanced, committed)
	}
	if committed == 0 {
		t.Error("no NewOrders committed")
	}
}

func TestNewOrderCreatesOrderAndLines(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(11))
	var a simclock.Time
	var res Result
	var err error
	for {
		a, res, err = b.NewOrderTxn(at, rng, 1)
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			break
		}
	}
	// Find the newest order in some district and verify lines exist.
	tx := b.DB.Begin()
	found := false
	for d := int64(1); d <= DistrictsPerWH && !found; d++ {
		drow, a2, err := b.District.Get(tx, at, KeyDistrict(1, d))
		at = a2
		if err != nil {
			t.Fatal(err)
		}
		next := drow.Int64(4)
		if next == int64(b.Scale.InitialOrders+1) {
			continue // no new orders here
		}
		o := next - 1
		orow, a3, err := b.Order.Get(tx, at, KeyOrder(1, d, o))
		at = a3
		if err != nil {
			t.Fatalf("order %d missing: %v", o, err)
		}
		cnt := orow.Int64(3)
		for l := int64(1); l <= cnt; l++ {
			if _, a4, err := b.OrderLine.Get(tx, at, KeyOrderLine(1, d, o, l)); err != nil {
				t.Errorf("order line %d missing: %v", l, err)
			} else {
				at = a4
			}
		}
		if _, a5, err := b.NewOrder.Get(tx, at, KeyOrder(1, d, o)); err != nil {
			t.Errorf("new-order marker missing: %v", err)
		} else {
			at = a5
		}
		found = true
	}
	if !found {
		t.Fatal("committed NewOrder left no trace")
	}
	b.DB.Commit(tx, at)
}

func TestPaymentMovesMoney(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(2))
	readYTD := func() float64 {
		tx := b.DB.Begin()
		row, a, err := b.Warehouse.Get(tx, at, KeyWarehouse(1))
		at = a
		if err != nil {
			t.Fatal(err)
		}
		b.DB.Commit(tx, at)
		return row.Float64(3)
	}
	before := readYTD()
	n := 0
	for i := 0; i < 10; i++ {
		a, res, err := b.PaymentTxn(at, rng, 1)
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no payments committed")
	}
	if readYTD() <= before {
		t.Error("warehouse YTD did not grow")
	}
	// History rows were inserted.
	if b.histSeq == 0 {
		t.Error("no history records")
	}
}

func TestDeliveryConsumesOldestNewOrders(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(3))
	// Snapshot the current oldest undelivered per district.
	oldest := map[int64]int64{}
	for dk, o := range b.nextDelivery {
		oldest[dk] = o
	}
	if len(oldest) == 0 {
		t.Fatal("loader left no undelivered orders")
	}
	a, res, err := b.DeliveryTxn(at, rng, 1)
	at = a
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("delivery aborted")
	}
	// Each district's marker moved forward and the order got a carrier.
	tx := b.DB.Begin()
	for dk, o := range oldest {
		if b.nextDelivery[dk] != o+1 {
			t.Errorf("district %d: nextDelivery %d, want %d", dk, b.nextDelivery[dk], o+1)
		}
		w := dk >> 8
		d := dk & 0xFF
		orow, a2, err := b.Order.Get(tx, at, KeyOrder(w, d, o))
		at = a2
		if err != nil {
			t.Fatalf("delivered order missing: %v", err)
		}
		if orow.Int64(2) == 0 {
			t.Errorf("district %d order %d: carrier not set", d, o)
		}
		if _, _, err := b.NewOrder.Get(tx, at, KeyOrder(w, d, o)); err == nil {
			t.Errorf("district %d order %d: new-order marker still present", d, o)
		}
	}
	b.DB.Commit(tx, at)
}

func TestOrderStatusAndStockLevelCommit(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5; i++ {
		a, res, err := b.OrderStatusTxn(at, rng, 1)
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Error("order status aborted")
		}
		a, res, err = b.StockLevelTxn(at, rng, 1)
		at = a
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Error("stock level aborted")
		}
	}
}

func TestNURandInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10000; i++ {
		v := nuRand(rng, 255, 1, 300)
		if v < 1 || v > 300 {
			t.Fatalf("nuRand out of range: %d", v)
		}
		w := nuRand(rng, 1023, 1, 1000)
		if w < 1 || w > 1000 {
			t.Fatalf("nuRand out of range: %d", w)
		}
	}
}

func TestResultResponseMeasured(t *testing.T) {
	b, at := tinyBench(t)
	rng := rand.New(rand.NewSource(7))
	_, res, err := b.PaymentTxn(at, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response <= 0 {
		t.Error("response time not measured")
	}
	if res.Type != TxnPayment {
		t.Error("wrong txn type in result")
	}
}
