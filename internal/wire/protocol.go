// Authoritative operation and error-code table for the SIAS wire protocol.
// This file is the single source of truth: every request opcode is declared
// once, as a row of the ops table below (name, Kind, payload Shape), and
// every response code once, as a row of the codes table (name, the Go
// sentinel it carries). The String methods, CodeOf and ErrOf are lookups
// over those tables, and whatever the server or the client decides about a
// request before dispatching it — traced, timed, admitted, refused during a
// drain or on a follower, counted as a write — is a test of its Kind or
// Shape, never a list of opcodes. The comment tables here keep the payload
// contracts, which code cannot state; an op's kind is what its ops row says.
// wire.go holds the framing and primitive codecs; errors.go the wire-level
// sentinels.
//
// Requests (Op, frame tag of a request):
//
//	op  name          request payload                                  -> CodeOK payload
//	 1  BEGIN         ()                                               -> handle u64 (>= 1; see "Handle 0")
//	 2  COMMIT        handle u64                                       -> shards u32, {durable LSN u64}*
//	 3  ABORT         handle u64                                       -> ()
//	 4  GET           handle u64, key i64                              -> val bytes
//	 5  INSERT        handle u64, key i64, val bytes                   -> ()
//	 6  UPDATE        handle u64, key i64, val bytes                   -> ()
//	 7  DELETE        handle u64, key i64                              -> ()
//	 8  SCAN          handle u64, lo i64, hi i64, limit u32            -> count u32, {key i64, val bytes}*
//	 9  STATS         ()                                               -> JSON bytes
//	10  SUBSCRIBE     announce bytes, shards u32, {start LSN u64}*     -> shards u32, {durable LSN u64}*, then CodeLogBatch stream
//	11  PROMOTE       ()                                               -> ()
//	12  SNAPSHOT      ()                                               -> shards u32, {token u64}*
//	13  BEGIN_AT      shards u32, {token u64}*                         -> handle u64 (read-only AS OF transaction)
//	14  CREATE_TABLE  name bytes, pk bytes, ncols u32,
//	                  {name bytes, type u8}*                           -> ()
//	15  DROP_TABLE    name bytes                                       -> ()
//	16  CREATE_INDEX  table bytes, index bytes, column bytes           -> ()
//	17  DROP_INDEX    table bytes, index bytes                         -> ()
//	18  INSERT_ROW    handle u64, table bytes, row bytes               -> ()
//	19  GET_ROW       handle u64, table bytes, key i64                 -> row bytes
//	20  UPDATE_ROW    handle u64, table bytes, row bytes               -> () (full-row replace by primary key)
//	21  DELETE_ROW    handle u64, table bytes, key i64                 -> ()
//	22  SCAN_TABLE    handle u64, table bytes, lo i64, hi i64,
//	                  limit u32                                        -> count u32, {row bytes}*
//	23  (retired)     was INDEX_LOOKUP; now BAD_REQUEST — a point lookup is INDEX_RANGE with lo == hi
//	24  INDEX_RANGE   handle u64, table bytes, index bytes, lo i64,
//	                  hi i64, limit u32                                -> count u32, {ikey i64, row bytes}*
//	25  LIST_TABLES   ()                                               -> JSON bytes (catalog listing)
//	26  REPL_LSN      ()                                               -> shards u32, {applied LSN u64}*
//	27  TRACE         trace id u64, parent span u64, sampled u8,
//	                  inner op u8, inner payload                       -> the inner op's reply
//
// Handle 0. Handles are issued from 1, per connection. In any request that
// takes a handle, 0 names the transaction opened by the most recent BEGIN or
// BEGIN_AT on this connection. The server forgets that transaction the moment
// the next BEGIN/BEGIN_AT frame arrives and remembers the new one only if it
// succeeds, so after a refused BEGIN (OVERLOADED, SHUTTING_DOWN), before any
// BEGIN, and once the named transaction has committed or aborted, handle 0 is
// UNKNOWN_TX — it never reaches an older transaction still open on the
// connection. This lets a client write BEGIN and the transaction's first
// operation in one segment without knowing the handle yet: either both take
// effect or neither does.
//
// TRACE is a transparent envelope: the server records a span for the inner
// op under the carried trace context and then dispatches the inner frame
// exactly as if it had arrived bare — the reply is the inner op's reply.
// Clients only send it when tracing is enabled, so an old server answering
// BAD_REQUEST degrades tracing, not the workload.
//
// COMMIT's reply vector is the per-shard durable WAL position at ack time —
// an upper bound on everything the transaction wrote. REPL_LSN reports the
// LSN vector reads on this server are guaranteed to observe: the replication
// applied positions on an unpromoted follower, the durable positions
// otherwise. A client enforces read-your-writes by routing reads only to
// servers whose REPL_LSN covers (is >= per shard) its last COMMIT vector.
//
// Rows in *_ROW/SCAN_TABLE/INDEX_* payloads are tuple.Schema row encodings
// (see internal/tuple), carried opaquely as u32-length-prefixed byte strings.
//
// Responses (Code, frame tag of a response). CodeOK carries the op-specific
// payload above; every other code carries a UTF-8 error message:
//
//	code  name           meaning
//	  0   OK             success
//	  1   NOT_FOUND      key has no visible row
//	  2   CONFLICT       first-updater-wins serialization failure; retry
//	  3   LOCK_TIMEOUT   lock wait exceeded its budget (possible deadlock)
//	  4   TX_FINISHED    transaction already committed or aborted
//	  5   UNKNOWN_TX     handle does not name a live transaction here (handle 0: no BEGIN to stand for)
//	  6   OVERLOADED     admission control rejected; back off and retry
//	  7   SHUTTING_DOWN  server draining; reconnect elsewhere/later
//	  8   BAD_REQUEST    malformed frame or unknown opcode (ERR_BAD_OP)
//	  9   INTERNAL       unexpected server-side failure
//	 10   LOG_BATCH      replication stream frame (SUBSCRIBE connections)
//	 11   READ_ONLY      write rejected on an unpromoted follower
//	 12   EXISTS         DDL names a table/index that already exists
//	 13   NO_TABLE       operation names an unknown table
//	 14   NO_INDEX       operation names an unknown index
//	 15   IN_DOUBT       COMMIT's decision flush failed: committed everywhere or nowhere, unknown until restart
//
// Compatibility rules: opcodes and codes may be appended, but existing values
// never change meaning. A server receiving an opcode it does not know answers
// CodeBadRequest and keeps the connection open — unknown ops are a protocol
// error, not a transport failure.
package wire

import (
	"errors"
	"fmt"

	"sias/internal/catalog"
	"sias/internal/engine"
	"sias/internal/txn"
)

// Op enumerates request frame tags.
type Op uint8

// Request opcodes — see the package table above for payload contracts.
const (
	OpBegin  Op = 1
	OpCommit Op = 2
	OpAbort  Op = 3
	OpGet    Op = 4
	OpInsert Op = 5
	OpUpdate Op = 6
	OpDelete Op = 7
	OpScan   Op = 8
	OpStats  Op = 9

	// OpSubscribe turns the connection into a replication log stream. Request:
	// announce string (the subscriber's client-reachable address, may be
	// empty), shard count u32, then per shard a start LSN u64 (resume cursor).
	// Response: CodeOK {shard count u32, per shard durable LSN u64}, then an
	// unbounded sequence of CodeLogBatch frames until the primary drains. The
	// connection speaks no other ops afterwards.
	OpSubscribe Op = 10
	// OpPromote asks a follower to stop replicating, finish replay, and begin
	// accepting writes. () -> (). Idempotent; rejected on a non-follower.
	OpPromote Op = 11

	// OpSnapshot returns one stable AS OF token per shard; OpBeginAt opens a
	// read-only transaction pinned at such a token vector (time travel).
	OpSnapshot Op = 12
	OpBeginAt  Op = 13

	// Catalog DDL. Auto-committed server-side: each op is durable in the WAL
	// before CodeOK, and replays on crash recovery and on followers.
	OpCreateTable Op = 14
	OpDropTable   Op = 15
	OpCreateIndex Op = 16
	OpDropIndex   Op = 17

	// Typed row operations against catalog tables.
	OpInsertRow Op = 18
	OpGetRow    Op = 19
	OpUpdateRow Op = 20
	OpDeleteRow Op = 21
	OpScanTable Op = 22
	// 23 was INDEX_LOOKUP, retired for INDEX_RANGE with lo == hi. It is never
	// reused, so a client that still sends it gets BAD_REQUEST.
	OpIndexRange Op = 24
	OpListTables Op = 25

	// OpReplLSN reports the per-shard LSN vector reads on this server observe
	// (applied positions on a follower, durable positions on a primary). Cheap
	// and admission-exempt: clients probe it before routing a read.
	OpReplLSN Op = 26

	// OpTrace wraps another request in a trace-context envelope: {trace id
	// u64, parent span u64, sampled u8, inner op u8, inner payload}. See the
	// package table; Encode/DecodeTraceEnvelope are the codec.
	OpTrace Op = 27
)

// Kind says what sort of request an opcode is. The kinds are ordered: from
// KindBegin up, an op opens a transaction, runs inside one or ends one.
type Kind uint8

// Request kinds.
const (
	KindUnknown Kind = iota // not an opcode of this protocol: BAD_REQUEST
	// KindMeta ops ask about or steer the server itself. They bypass
	// admission, drain and follower gating: STATS keeps monitoring responsive
	// under overload and during a drain, PROMOTE must get through exactly
	// when a follower is being failed over, and REPL_LSN is probed before
	// every routed read, so it must answer fast and not consume data-op
	// slots. They are never traced: their replies carry (or gate) the very
	// counters the tracer bumps, so a span landing after the reply's numbers
	// were read would break the STATS == /metrics equality at quiescence.
	KindMeta
	KindControl // reads server-wide state outside any transaction
	KindDDL     // auto-committed catalog change: new work, and a write
	KindBegin   // opens a transaction; what handle 0 stands for afterwards
	KindEnd     // finishes the transaction its handle names
	KindRead    // reads inside a transaction
	KindWrite   // writes inside a transaction
)

// Transactional reports whether ops of this kind open, run inside or end a
// transaction — the ops whose latency a client feels per transaction.
func (k Kind) Transactional() bool { return k >= KindBegin }

// Shape is how a request payload starts — as much of it as can be decoded
// without knowing the op: the transaction handle, the table name, and the
// primary key that pins the request to one shard.
type Shape uint8

// Payload shapes.
const (
	ShapeNone           Shape = iota // no leading handle
	ShapeHandle                      // handle u64, ...
	ShapeHandleKey                   // handle u64, key i64, ...
	ShapeHandleTable                 // handle u64, table bytes, ...
	ShapeHandleTableKey              // handle u64, table bytes, key i64, ...
)

// ops declares every opcode once, indexed by value. Adding an opcode is one
// row here plus its case in the server's dispatch.
var ops = [...]struct {
	name  string
	kind  Kind
	shape Shape
}{
	OpBegin:       {"BEGIN", KindBegin, ShapeNone},
	OpCommit:      {"COMMIT", KindEnd, ShapeHandle},
	OpAbort:       {"ABORT", KindEnd, ShapeHandle},
	OpGet:         {"GET", KindRead, ShapeHandleKey},
	OpInsert:      {"INSERT", KindWrite, ShapeHandleKey},
	OpUpdate:      {"UPDATE", KindWrite, ShapeHandleKey},
	OpDelete:      {"DELETE", KindWrite, ShapeHandleKey},
	OpScan:        {"SCAN", KindRead, ShapeHandle},
	OpStats:       {"STATS", KindMeta, ShapeNone},
	OpSubscribe:   {"SUBSCRIBE", KindMeta, ShapeNone},
	OpPromote:     {"PROMOTE", KindMeta, ShapeNone},
	OpSnapshot:    {"SNAPSHOT", KindControl, ShapeNone},
	OpBeginAt:     {"BEGIN_AT", KindBegin, ShapeNone},
	OpCreateTable: {"CREATE_TABLE", KindDDL, ShapeNone},
	OpDropTable:   {"DROP_TABLE", KindDDL, ShapeNone},
	OpCreateIndex: {"CREATE_INDEX", KindDDL, ShapeNone},
	OpDropIndex:   {"DROP_INDEX", KindDDL, ShapeNone},
	OpInsertRow:   {"INSERT_ROW", KindWrite, ShapeHandleTable},
	OpGetRow:      {"GET_ROW", KindRead, ShapeHandleTableKey},
	OpUpdateRow:   {"UPDATE_ROW", KindWrite, ShapeHandleTable},
	OpDeleteRow:   {"DELETE_ROW", KindWrite, ShapeHandleTableKey},
	OpScanTable:   {"SCAN_TABLE", KindRead, ShapeHandleTable},
	OpIndexRange:  {"INDEX_RANGE", KindRead, ShapeHandleTable},
	OpListTables:  {"LIST_TABLES", KindControl, ShapeNone},
	OpReplLSN:     {"REPL_LSN", KindMeta, ShapeNone},
	OpTrace:       {"TRACE", KindMeta, ShapeNone},
}

// NumOps bounds the opcode space: every declared opcode is below it.
const NumOps = len(ops)

// Kind returns what sort of request o is; KindUnknown for a value the
// protocol does not declare.
func (o Op) Kind() Kind {
	if int(o) < len(ops) {
		return ops[o].kind
	}
	return KindUnknown
}

// Shape returns how o's payload starts.
func (o Op) Shape() Shape {
	if int(o) < len(ops) {
		return ops[o].shape
	}
	return ShapeNone
}

func (o Op) String() string {
	if o.Kind() != KindUnknown {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Code is a stable wire error code. Codes are part of the protocol: new
// codes may be appended, but existing values never change meaning.
type Code uint8

// Wire codes. CodeOK tags success responses; every other code tags an error
// response whose payload is a human-readable message.
const (
	CodeOK           Code = 0
	CodeNotFound     Code = 1 // key has no visible row
	CodeConflict     Code = 2 // first-updater-wins serialization failure; retry the transaction
	CodeLockTimeout  Code = 3 // lock wait exceeded its budget (possible deadlock)
	CodeTxFinished   Code = 4 // transaction already committed or aborted
	CodeUnknownTx    Code = 5 // handle does not name a live transaction on this connection
	CodeOverloaded   Code = 6 // admission control rejected the request; back off and retry
	CodeShuttingDown Code = 7 // server is draining; reconnect elsewhere/later
	CodeBadRequest   Code = 8 // malformed frame or unknown opcode
	CodeInternal     Code = 9 // unexpected server-side failure

	// CodeLogBatch tags a replication stream frame on a subscribed
	// connection: {shard u32, start LSN u64, primary durable LSN u64, bytes
	// data}. Empty data is a heartbeat carrying only the durable LSN.
	CodeLogBatch Code = 10
	// CodeReadOnly rejects writes on an unpromoted replication follower.
	CodeReadOnly Code = 11

	// Catalog codes.
	CodeExists  Code = 12 // DDL names a table/index that already exists
	CodeNoTable Code = 13 // operation names an unknown table
	CodeNoIndex Code = 14 // operation names an unknown index

	// CodeInDoubt answers a COMMIT whose cross-shard commit decision could
	// not be forced: the outcome is unknown until the server restarts.
	CodeInDoubt Code = 15
)

// CodeBadOp is the stable rejection for opcodes the server does not know
// (ERR_BAD_OP). It aliases CodeBadRequest: an unknown op is a malformed
// request, answered on the same connection rather than by dropping it.
const CodeBadOp = CodeBadRequest

// codes declares every response code once, indexed by value: its name and
// the sentinel error it carries across the network (nil for codes that carry
// none: success, INTERNAL, and the LOG_BATCH stream tag). also lists errors
// that travel under the same code without a code of their own.
var codes = [...]struct {
	name string
	err  error
	also []error
}{
	CodeOK:           {name: "OK"},
	CodeNotFound:     {name: "NOT_FOUND", err: engine.ErrNotFound},
	CodeConflict:     {name: "CONFLICT", err: txn.ErrSerialization},
	CodeLockTimeout:  {name: "LOCK_TIMEOUT", err: txn.ErrLockTimeout},
	CodeTxFinished:   {name: "TX_FINISHED", err: txn.ErrFinished},
	CodeUnknownTx:    {name: "UNKNOWN_TX", err: ErrUnknownTx},
	CodeOverloaded:   {name: "OVERLOADED", err: ErrOverloaded},
	CodeShuttingDown: {name: "SHUTTING_DOWN", err: ErrShuttingDown},
	CodeBadRequest: {name: "BAD_REQUEST", err: ErrBadRequest,
		also: []error{catalog.ErrBadName, ErrTruncated, ErrFrameTooLarge}},
	CodeInternal: {name: "INTERNAL"},
	CodeLogBatch: {name: "LOG_BATCH"},
	CodeReadOnly: {name: "READ_ONLY", err: engine.ErrReadOnly},
	CodeExists:   {name: "EXISTS", err: engine.ErrExists},
	CodeNoTable:  {name: "NO_TABLE", err: engine.ErrNoTable},
	CodeNoIndex:  {name: "NO_INDEX", err: engine.ErrNoIndex},
	CodeInDoubt:  {name: "IN_DOUBT", err: engine.ErrInDoubt},
}

func (c Code) String() string {
	if int(c) < len(codes) {
		return codes[c].name
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// CodeOf maps an error to its stable wire code. The mapping is total over
// the exported sentinel errors of the engine, txn and wire packages (a test
// asserts this); anything unrecognized is CodeInternal.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	for c := range codes {
		if errors.Is(err, codes[c].err) { // never true of a row without a sentinel
			return Code(c)
		}
		for _, e := range codes[c].also {
			if errors.Is(err, e) {
				return Code(c)
			}
		}
	}
	return CodeInternal
}

// ErrOf rehydrates a wire code into the sentinel it carries, wrapped with
// the server-provided message. errors.Is against the sentinel holds on the
// result, so client callers handle remote failures exactly like local ones.
func ErrOf(code Code, msg string) error {
	if code == CodeOK {
		return nil
	}
	if int(code) >= len(codes) || codes[code].err == nil {
		return fmt.Errorf("wire: remote error %s: %s", code, msg)
	}
	if msg == "" {
		return codes[code].err
	}
	return fmt.Errorf("%w: %s", codes[code].err, msg)
}
