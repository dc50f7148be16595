// Authoritative operation and error-code table for the SIAS wire protocol.
// This file is the single source of truth: every request opcode and every
// response code the server and client speak is defined here, with its payload
// contract. wire.go holds the framing and primitive codecs; errors.go maps
// codes to Go sentinel errors.
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
//	23  INDEX_LOOKUP  handle u64, table bytes, index bytes, key i64    -> count u32, {row bytes}*
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
// effect or neither does. A server from before the rule answers UNKNOWN_TX
// to handle 0 after a successful BEGIN; the client then repeats the operation
// under the handle BEGIN returned.
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
//
// Compatibility rules: opcodes and codes may be appended, but existing values
// never change meaning. A server receiving an opcode it does not know answers
// CodeBadRequest and keeps the connection open — unknown ops are a protocol
// error, not a transport failure.
package wire

import "fmt"

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
	OpInsertRow   Op = 18
	OpGetRow      Op = 19
	OpUpdateRow   Op = 20
	OpDeleteRow   Op = 21
	OpScanTable   Op = 22
	OpIndexLookup Op = 23
	OpIndexRange  Op = 24
	OpListTables  Op = 25

	// OpReplLSN reports the per-shard LSN vector reads on this server observe
	// (applied positions on a follower, durable positions on a primary). Cheap
	// and admission-exempt: clients probe it before routing a read.
	OpReplLSN Op = 26

	// OpTrace wraps another request in a trace-context envelope: {trace id
	// u64, parent span u64, sampled u8, inner op u8, inner payload}. See the
	// package table; Encode/DecodeTraceEnvelope are the codec.
	OpTrace Op = 27
)

func (o Op) String() string {
	switch o {
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	case OpGet:
		return "GET"
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpSubscribe:
		return "SUBSCRIBE"
	case OpPromote:
		return "PROMOTE"
	case OpSnapshot:
		return "SNAPSHOT"
	case OpBeginAt:
		return "BEGIN_AT"
	case OpCreateTable:
		return "CREATE_TABLE"
	case OpDropTable:
		return "DROP_TABLE"
	case OpCreateIndex:
		return "CREATE_INDEX"
	case OpDropIndex:
		return "DROP_INDEX"
	case OpInsertRow:
		return "INSERT_ROW"
	case OpGetRow:
		return "GET_ROW"
	case OpUpdateRow:
		return "UPDATE_ROW"
	case OpDeleteRow:
		return "DELETE_ROW"
	case OpScanTable:
		return "SCAN_TABLE"
	case OpIndexLookup:
		return "INDEX_LOOKUP"
	case OpIndexRange:
		return "INDEX_RANGE"
	case OpListTables:
		return "LIST_TABLES"
	case OpReplLSN:
		return "REPL_LSN"
	case OpTrace:
		return "TRACE"
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
)

// CodeBadOp is the stable rejection for opcodes the server does not know
// (ERR_BAD_OP). It aliases CodeBadRequest: an unknown op is a malformed
// request, answered on the same connection rather than by dropping it.
const CodeBadOp = CodeBadRequest

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "OK"
	case CodeNotFound:
		return "NOT_FOUND"
	case CodeConflict:
		return "CONFLICT"
	case CodeLockTimeout:
		return "LOCK_TIMEOUT"
	case CodeTxFinished:
		return "TX_FINISHED"
	case CodeUnknownTx:
		return "UNKNOWN_TX"
	case CodeOverloaded:
		return "OVERLOADED"
	case CodeShuttingDown:
		return "SHUTTING_DOWN"
	case CodeBadRequest:
		return "BAD_REQUEST"
	case CodeInternal:
		return "INTERNAL"
	case CodeLogBatch:
		return "LOG_BATCH"
	case CodeReadOnly:
		return "READ_ONLY"
	case CodeExists:
		return "EXISTS"
	case CodeNoTable:
		return "NO_TABLE"
	case CodeNoIndex:
		return "NO_INDEX"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}
