package wire

import (
	"errors"
	"fmt"
	"testing"

	"sias/internal/catalog"
	"sias/internal/engine"
	"sias/internal/txn"
)

// The protocol's numbers and names as they have always been on the wire. The
// ops and codes tables must reproduce these byte for byte: a client, a
// dashboard label or a slow-op record that names an op does so by this string.
// 23 (INDEX_LOOKUP) is retired and never reused: it must stay undeclared.
var goldenOps = map[Op]string{
	1: "BEGIN", 2: "COMMIT", 3: "ABORT", 4: "GET", 5: "INSERT", 6: "UPDATE",
	7: "DELETE", 8: "SCAN", 9: "STATS", 10: "SUBSCRIBE", 11: "PROMOTE",
	12: "SNAPSHOT", 13: "BEGIN_AT", 14: "CREATE_TABLE", 15: "DROP_TABLE",
	16: "CREATE_INDEX", 17: "DROP_INDEX", 18: "INSERT_ROW", 19: "GET_ROW",
	20: "UPDATE_ROW", 21: "DELETE_ROW", 22: "SCAN_TABLE",
	24: "INDEX_RANGE", 25: "LIST_TABLES", 26: "REPL_LSN", 27: "TRACE",
}

var goldenCodes = map[Code]string{
	0: "OK", 1: "NOT_FOUND", 2: "CONFLICT", 3: "LOCK_TIMEOUT", 4: "TX_FINISHED",
	5: "UNKNOWN_TX", 6: "OVERLOADED", 7: "SHUTTING_DOWN", 8: "BAD_REQUEST",
	9: "INTERNAL", 10: "LOG_BATCH", 11: "READ_ONLY", 12: "EXISTS",
	13: "NO_TABLE", 14: "NO_INDEX", 15: "IN_DOUBT",
}

// TestOpTableTotal: every opcode 1–27 but the retired 23 has a row with its
// historical name and a kind, nothing else does, and the ops the server times
// into sias_server_op_seconds are the 15 transactional ones.
func TestOpTableTotal(t *testing.T) {
	timed := 0
	for v := 0; v < 256; v++ {
		op := Op(v)
		want, declared := goldenOps[op]
		if !declared {
			if got := op.String(); got != fmt.Sprintf("op(%d)", v) {
				t.Errorf("undeclared op %d renders %q", v, got)
			}
			if op.Kind() != KindUnknown || op.Shape() != ShapeNone {
				t.Errorf("undeclared op %d has kind %d shape %d", v, op.Kind(), op.Shape())
			}
			continue
		}
		if got := op.String(); got != want {
			t.Errorf("op %d renders %q, want %q", v, got, want)
		}
		if op.Kind() == KindUnknown {
			t.Errorf("op %d (%s) has no kind", v, want)
		}
		if v >= NumOps {
			t.Errorf("op %d (%s) is not below NumOps %d", v, want, NumOps)
		}
		// A handle in the payload and a transaction to name go together.
		inTxn := op.Kind() == KindEnd || op.Kind() == KindRead || op.Kind() == KindWrite
		if (op.Shape() != ShapeNone) != inTxn {
			t.Errorf("%s: kind %d with shape %d", op, op.Kind(), op.Shape())
		}
		if op.Kind().Transactional() {
			timed++
		}
	}
	if timed != 15 {
		t.Errorf("%d transactional ops, want the 15 of sias_server_op_seconds", timed)
	}
	if OpBegin.Kind() != KindBegin || OpBeginAt.Kind() != KindBegin {
		t.Error("BEGIN and BEGIN_AT are what handle 0 stands for: both must be KindBegin")
	}
}

// TestErrorCodeMappingTotal asserts the code table is total both ways: every code
// 0–15 has its historical name; every exported sentinel of the engine, txn,
// catalog and wire packages maps to a code of its own kind (nothing the stack
// can legitimately return may degrade into CodeInternal); every code that
// carries a sentinel round-trips ErrOf→CodeOf and rehydrates into an
// errors.Is-compatible value; and values outside the table neither panic nor
// pass for success.
func TestErrorCodeMappingTotal(t *testing.T) {
	for v := 0; v < 256; v++ {
		c := Code(v)
		want, declared := goldenCodes[c]
		if !declared {
			want = fmt.Sprintf("code(%d)", v)
		}
		if got := c.String(); got != want {
			t.Errorf("code %d renders %q, want %q", v, got, want)
		}
		if err := ErrOf(c, "detail"); (err == nil) != (c == CodeOK) {
			t.Errorf("ErrOf(%s) = %v", c, err)
		}
	}
	if CodeBadOp != CodeBadRequest {
		t.Error("CodeBadOp must alias CodeBadRequest")
	}

	sentinels := map[string]struct {
		err  error
		code Code
		own  bool // the code rehydrates into this very sentinel
	}{
		"engine.ErrNotFound":    {engine.ErrNotFound, CodeNotFound, true},
		"engine.ErrReadOnly":    {engine.ErrReadOnly, CodeReadOnly, true},
		"engine.ErrExists":      {engine.ErrExists, CodeExists, true},
		"engine.ErrNoTable":     {engine.ErrNoTable, CodeNoTable, true},
		"engine.ErrNoIndex":     {engine.ErrNoIndex, CodeNoIndex, true},
		"engine.ErrInDoubt":     {engine.ErrInDoubt, CodeInDoubt, true},
		"txn.ErrSerialization":  {txn.ErrSerialization, CodeConflict, true},
		"txn.ErrLockTimeout":    {txn.ErrLockTimeout, CodeLockTimeout, true},
		"txn.ErrFinished":       {txn.ErrFinished, CodeTxFinished, true},
		"wire.ErrUnknownTx":     {ErrUnknownTx, CodeUnknownTx, true},
		"wire.ErrOverloaded":    {ErrOverloaded, CodeOverloaded, true},
		"wire.ErrShuttingDown":  {ErrShuttingDown, CodeShuttingDown, true},
		"wire.ErrBadRequest":    {ErrBadRequest, CodeBadRequest, true},
		"catalog.ErrBadName":    {catalog.ErrBadName, CodeBadRequest, false},
		"wire.ErrTruncated":     {ErrTruncated, CodeBadRequest, false},
		"wire.ErrFrameTooLarge": {ErrFrameTooLarge, CodeBadRequest, false},
	}
	carried := map[Code]bool{}
	for name, s := range sentinels {
		if got := CodeOf(s.err); got != s.code {
			t.Errorf("CodeOf(%s) = %s, want %s", name, got, s.code)
		}
		if got := CodeOf(fmt.Errorf("shard 3: %w", s.err)); got != s.code {
			t.Errorf("wrapped %s maps to %s, want %s", name, got, s.code)
		}
		back := ErrOf(s.code, "remote detail")
		if CodeOf(back) != s.code {
			t.Errorf("%s: code %s not stable under round trip (got %s)", name, s.code, CodeOf(back))
		}
		if s.own {
			carried[s.code] = true
			if !errors.Is(back, s.err) || !errors.Is(ErrOf(s.code, ""), s.err) {
				t.Errorf("ErrOf(%s) does not satisfy errors.Is(%s)", s.code, name)
			}
		}
	}
	// The list above is itself total: a code outside it carries no sentinel.
	for c := range goldenCodes {
		if carried[c] {
			continue
		}
		if got := CodeOf(ErrOf(c, "x")); c != CodeOK && got != CodeInternal {
			t.Errorf("%s carries a sentinel (maps back to %s) the test does not know", c, got)
		}
	}
	if CodeOf(nil) != CodeOK {
		t.Error("nil must map to CodeOK")
	}
	if CodeOf(errors.New("surprise")) != CodeInternal {
		t.Error("unrecognized error must map to CodeInternal")
	}
}
