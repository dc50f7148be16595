package tpcc

import (
	"errors"
	"math/rand"

	"sias/internal/engine"
	"sias/internal/simclock"
	"sias/internal/tuple"
	"sias/internal/txn"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

// Transaction types, standard mix percentages in comments.
const (
	TxnNewOrder    TxnType = iota // 45%
	TxnPayment                    // 43%
	TxnOrderStatus                // 4%
	TxnDelivery                   // 4%
	TxnStockLevel                 // 4%
	numTxnTypes
)

func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	}
	return "?"
}

// pickTxn draws from the standard mix.
func pickTxn(rng *rand.Rand) TxnType {
	r := rng.Intn(100)
	switch {
	case r < 45:
		return TxnNewOrder
	case r < 88:
		return TxnPayment
	case r < 92:
		return TxnOrderStatus
	case r < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// nuRand is TPC-C's non-uniform random distribution NURand(A, x, y).
func nuRand(rng *rand.Rand, a, x, y int64) int64 {
	c := int64(123) % a
	return (((rng.Int63n(a+1) | (x + rng.Int63n(y-x+1))) + c) % (y - x + 1)) + x
}

// Result describes one executed transaction.
type Result struct {
	Type      TxnType
	Committed bool
	// Conflict is true when the abort was a first-updater-wins
	// serialization failure rather than an intentional rollback.
	Conflict bool
	Response simclock.Duration
}

// NewOrderTxn executes one New-Order transaction against home warehouse w.
func (b *Bench) NewOrderTxn(at simclock.Time, rng *rand.Rand, w int64) (simclock.Time, Result, error) {
	start := at
	res := Result{Type: TxnNewOrder}
	tx := b.DB.Begin()
	abort := func() (simclock.Time, Result, error) {
		at, _ = b.DB.Abort(tx, at)
		res.Response = at.Sub(start)
		return at, res, nil
	}

	d := 1 + rng.Int63n(DistrictsPerWH)
	c := nuRand(rng, 255, 1, int64(b.Scale.CustomersPerDistrict))
	nItems := 5 + rng.Intn(11)
	rollback := rng.Intn(100) == 0

	var err error
	if _, at, err = b.Warehouse.Get(tx, at, KeyWarehouse(w)); err != nil {
		return abort()
	}
	if _, at, err = b.Customer.Get(tx, at, KeyCustomer(w, d, c)); err != nil {
		return abort()
	}
	// Allocate the order id by updating the district row (hot update).
	var oID int64
	at, err = b.District.Update(tx, at, KeyDistrict(w, d), func(r tuple.View, dst []byte) ([]byte, error) {
		oID = r.Int64(4)
		e := r.Edit()
		e.SetInt64(4, oID+1)
		return e.Append(dst)
	})
	if err != nil {
		res.Conflict = errors.Is(err, txn.ErrSerialization)
		return abort()
	}
	at, err = b.Order.Insert(tx, at, tuple.Row{KeyOrder(w, d, oID), c, int64(0), int64(nItems), int64(at)})
	if err != nil {
		return abort()
	}
	at, err = b.NewOrder.Insert(tx, at, tuple.Row{KeyOrder(w, d, oID)})
	if err != nil {
		return abort()
	}
	for l := 1; l <= nItems; l++ {
		item := nuRand(rng, 1023, 1, int64(b.Scale.Items))
		if rollback && l == nItems {
			// Last line uses an unused item id: the whole txn rolls back.
			return abort()
		}
		// 1% of lines are supplied by a remote warehouse.
		supplyW := w
		if b.Warehouses > 1 && rng.Intn(100) == 0 {
			supplyW = 1 + rng.Int63n(int64(b.Warehouses))
		}
		if _, at, err = b.Item.Get(tx, at, KeyItem(item)); err != nil {
			return abort()
		}
		remote := supplyW != w
		at, err = b.Stock.Update(tx, at, KeyStock(supplyW, item), func(r tuple.View, dst []byte) ([]byte, error) {
			q := r.Int64(1)
			if q >= 10+int64(l) {
				q -= int64(l)
			} else {
				q = q - int64(l) + 91
			}
			e := r.Edit()
			e.SetInt64(1, q)
			e.SetInt64(2, r.Int64(2)+int64(l))
			e.SetInt64(3, r.Int64(3)+1)
			if remote {
				e.SetInt64(4, r.Int64(4)+1)
			}
			return e.Append(dst)
		})
		if err != nil {
			res.Conflict = errors.Is(err, txn.ErrSerialization)
			return abort()
		}
		at, err = b.OrderLine.Insert(tx, at, tuple.Row{
			KeyOrderLine(w, d, oID, int64(l)), item, int64(l), rng.Float64() * 100, "dist-info-padding-24b",
		})
		if err != nil {
			return abort()
		}
	}
	at, err = b.DB.Commit(tx, at)
	if err != nil {
		return at, res, err
	}
	dk := KeyDistrict(w, d)
	if _, ok := b.nextDelivery[dk]; !ok {
		b.nextDelivery[dk] = oID
	}
	res.Committed = true
	res.Response = at.Sub(start)
	return at, res, nil
}

// PaymentTxn executes one Payment transaction.
func (b *Bench) PaymentTxn(at simclock.Time, rng *rand.Rand, w int64) (simclock.Time, Result, error) {
	start := at
	res := Result{Type: TxnPayment}
	tx := b.DB.Begin()
	abort := func() (simclock.Time, Result, error) {
		at, _ = b.DB.Abort(tx, at)
		res.Response = at.Sub(start)
		return at, res, nil
	}
	d := 1 + rng.Int63n(DistrictsPerWH)
	amount := 1 + rng.Float64()*4999

	var err error
	at, err = b.Warehouse.Update(tx, at, KeyWarehouse(w), func(r tuple.View, dst []byte) ([]byte, error) {
		e := r.Edit()
		e.SetFloat64(3, r.Float64(3)+amount)
		return e.Append(dst)
	})
	if err != nil {
		res.Conflict = errors.Is(err, txn.ErrSerialization)
		return abort()
	}
	at, err = b.District.Update(tx, at, KeyDistrict(w, d), func(r tuple.View, dst []byte) ([]byte, error) {
		e := r.Edit()
		e.SetFloat64(3, r.Float64(3)+amount)
		return e.Append(dst)
	})
	if err != nil {
		res.Conflict = errors.Is(err, txn.ErrSerialization)
		return abort()
	}

	// 60% select the customer by last name, 40% by id.
	var cKey int64
	if rng.Intn(100) < 60 {
		nameNum := LastNameIndex(nuRand(rng, 255, 1, int64(b.Scale.CustomersPerDistrict)))
		nameKey := KeyCustomerByName(w, d, nameNum)
		var keys []int64
		at, err = b.Customer.RangeBySecondary(tx, at, b.CustByName, nameKey, nameKey, func(_ int64, r tuple.View) bool {
			keys = append(keys, r.Int64(0))
			return true
		})
		if err != nil {
			return abort()
		}
		if len(keys) == 0 {
			// Name absent in the scaled population: fall back to id.
			cKey = KeyCustomer(w, d, nuRand(rng, 255, 1, int64(b.Scale.CustomersPerDistrict)))
		} else {
			// Take the middle row, per spec (ordered by first name there).
			cKey = keys[len(keys)/2]
		}
	} else {
		cKey = KeyCustomer(w, d, nuRand(rng, 255, 1, int64(b.Scale.CustomersPerDistrict)))
	}
	at, err = b.Customer.Update(tx, at, cKey, func(r tuple.View, dst []byte) ([]byte, error) {
		e := r.Edit()
		e.SetFloat64(3, r.Float64(3)-amount)
		e.SetFloat64(4, r.Float64(4)+amount)
		e.SetInt64(5, r.Int64(5)+1)
		if string(r.Bytes(2)) == "BC" {
			// Bad credit: carry payment info in c_data (bounded).
			data := r.Bytes(7)
			if len(data) > 120 {
				data = data[:120]
			}
			e.SetString(7, "pay;"+string(data))
		}
		return e.Append(dst)
	})
	if err != nil {
		res.Conflict = errors.Is(err, txn.ErrSerialization)
		return abort()
	}
	b.histSeq++
	at, err = b.History.Insert(tx, at, tuple.Row{b.histSeq, cKey, amount, "payment-history-rec"})
	if err != nil {
		return abort()
	}
	at, err = b.DB.Commit(tx, at)
	if err != nil {
		return at, res, err
	}
	res.Committed = true
	res.Response = at.Sub(start)
	return at, res, nil
}

// OrderStatusTxn executes one Order-Status transaction (read only).
func (b *Bench) OrderStatusTxn(at simclock.Time, rng *rand.Rand, w int64) (simclock.Time, Result, error) {
	start := at
	res := Result{Type: TxnOrderStatus}
	tx := b.DB.Begin()
	abort := func() (simclock.Time, Result, error) {
		at, _ = b.DB.Abort(tx, at)
		res.Response = at.Sub(start)
		return at, res, nil
	}
	d := 1 + rng.Int63n(DistrictsPerWH)
	c := nuRand(rng, 255, 1, int64(b.Scale.CustomersPerDistrict))
	var err error
	if _, at, err = b.Customer.Get(tx, at, KeyCustomer(w, d, c)); err != nil {
		return abort()
	}
	// Find the customer's most recent order: walk back from d_next_o_id.
	drow, a, err := b.District.Get(tx, at, KeyDistrict(w, d))
	at = a
	if err != nil {
		return abort()
	}
	nextO := drow.Int64(4)
	for o := nextO - 1; o > nextO-20 && o >= 1; o-- {
		orow, a, err := b.Order.Get(tx, at, KeyOrder(w, d, o))
		at = a
		if err != nil {
			continue
		}
		if orow.Int64(1) != c {
			continue
		}
		cnt := orow.Int64(3)
		for l := int64(1); l <= cnt; l++ {
			if _, a, err := b.OrderLine.Get(tx, at, KeyOrderLine(w, d, o, l)); err == nil {
				at = a
			}
		}
		break
	}
	at, err = b.DB.Commit(tx, at)
	if err != nil {
		return at, res, err
	}
	res.Committed = true
	res.Response = at.Sub(start)
	return at, res, nil
}

// DeliveryTxn executes one Delivery transaction: deliver the oldest
// undelivered order in every district of w.
func (b *Bench) DeliveryTxn(at simclock.Time, rng *rand.Rand, w int64) (simclock.Time, Result, error) {
	start := at
	res := Result{Type: TxnDelivery}
	tx := b.DB.Begin()
	abort := func() (simclock.Time, Result, error) {
		at, _ = b.DB.Abort(tx, at)
		res.Response = at.Sub(start)
		return at, res, nil
	}
	carrier := 1 + rng.Int63n(10)
	var err error
	for d := int64(1); d <= DistrictsPerWH; d++ {
		dk := KeyDistrict(w, d)
		oID, ok := b.nextDelivery[dk]
		if !ok {
			continue
		}
		// Delete the new-order marker; if it is already gone, skip.
		at, err = b.NewOrder.Delete(tx, at, KeyOrder(w, d, oID))
		if errors.Is(err, engine.ErrNotFound) {
			delete(b.nextDelivery, dk)
			continue
		}
		if err != nil {
			res.Conflict = errors.Is(err, txn.ErrSerialization)
			return abort()
		}
		var cID, cnt int64
		at, err = b.Order.Update(tx, at, KeyOrder(w, d, oID), func(r tuple.View, dst []byte) ([]byte, error) {
			cID = r.Int64(1)
			cnt = r.Int64(3)
			e := r.Edit()
			e.SetInt64(2, carrier)
			return e.Append(dst)
		})
		if err != nil {
			res.Conflict = errors.Is(err, txn.ErrSerialization)
			return abort()
		}
		total := 0.0
		for l := int64(1); l <= cnt; l++ {
			at, err = b.OrderLine.Update(tx, at, KeyOrderLine(w, d, oID, l), func(r tuple.View, dst []byte) ([]byte, error) {
				total += r.Float64(3)
				return append(dst, r.Encoded()...), nil
			})
			if err != nil && !errors.Is(err, engine.ErrNotFound) {
				res.Conflict = errors.Is(err, txn.ErrSerialization)
				return abort()
			}
		}
		at, err = b.Customer.Update(tx, at, KeyCustomer(w, d, cID), func(r tuple.View, dst []byte) ([]byte, error) {
			e := r.Edit()
			e.SetFloat64(3, r.Float64(3)+total)
			e.SetInt64(6, r.Int64(6)+1)
			return e.Append(dst)
		})
		if err != nil {
			res.Conflict = errors.Is(err, txn.ErrSerialization)
			return abort()
		}
		b.nextDelivery[dk] = oID + 1
	}
	at, err = b.DB.Commit(tx, at)
	if err != nil {
		return at, res, err
	}
	res.Committed = true
	res.Response = at.Sub(start)
	return at, res, nil
}

// StockLevelTxn executes one Stock-Level transaction (read only): count
// items in the district's last 20 orders with stock below a threshold.
func (b *Bench) StockLevelTxn(at simclock.Time, rng *rand.Rand, w int64) (simclock.Time, Result, error) {
	start := at
	res := Result{Type: TxnStockLevel}
	tx := b.DB.Begin()
	abort := func() (simclock.Time, Result, error) {
		at, _ = b.DB.Abort(tx, at)
		res.Response = at.Sub(start)
		return at, res, nil
	}
	d := 1 + rng.Int63n(DistrictsPerWH)
	threshold := int64(10 + rng.Intn(11))
	drow, a, err := b.District.Get(tx, at, KeyDistrict(w, d))
	at = a
	if err != nil {
		return abort()
	}
	nextO := drow.Int64(4)
	seen := map[int64]bool{}
	low := 0
	for o := nextO - 1; o > nextO-20 && o >= 1; o-- {
		orow, a, err := b.Order.Get(tx, at, KeyOrder(w, d, o))
		at = a
		if err != nil {
			continue
		}
		cnt := orow.Int64(3)
		for l := int64(1); l <= cnt; l++ {
			lrow, a, err := b.OrderLine.Get(tx, at, KeyOrderLine(w, d, o, l))
			at = a
			if err != nil {
				continue
			}
			item := lrow.Int64(1)
			if seen[item] {
				continue
			}
			seen[item] = true
			srow, a, err := b.Stock.Get(tx, at, KeyStock(w, item))
			at = a
			if err != nil {
				continue
			}
			if srow.Int64(1) < threshold {
				low++
			}
		}
	}
	at, err = b.DB.Commit(tx, at)
	if err != nil {
		return at, res, err
	}
	res.Committed = true
	res.Response = at.Sub(start)
	return at, res, nil
}

// Execute runs one transaction of the given type.
func (b *Bench) Execute(at simclock.Time, rng *rand.Rand, typ TxnType, w int64) (simclock.Time, Result, error) {
	switch typ {
	case TxnNewOrder:
		return b.NewOrderTxn(at, rng, w)
	case TxnPayment:
		return b.PaymentTxn(at, rng, w)
	case TxnOrderStatus:
		return b.OrderStatusTxn(at, rng, w)
	case TxnDelivery:
		return b.DeliveryTxn(at, rng, w)
	default:
		return b.StockLevelTxn(at, rng, w)
	}
}
