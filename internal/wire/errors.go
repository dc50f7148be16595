package wire

import (
	"errors"
	"strings"
)

// Protocol-level sentinel errors. The server returns these to tag
// conditions that arise in the service layer rather than the engine; the
// client rehydrates them (and the engine/txn sentinels) from codes so
// callers can errors.Is across the network boundary.
var (
	// ErrOverloaded is returned when the admission-control semaphore is
	// full; the request was not executed and is safe to retry.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrShuttingDown is returned for requests that arrive while the server
	// drains; open work is aborted, not silently dropped.
	ErrShuttingDown = errors.New("wire: server shutting down")
	// ErrUnknownTx is returned when a handle does not name a live
	// transaction on the connection.
	ErrUnknownTx = errors.New("wire: unknown transaction handle")
	// ErrBadRequest is returned for malformed frames and unknown opcodes.
	ErrBadRequest = errors.New("wire: bad request")
)

// FailoverAddr extracts the follower address a draining primary embeds in
// its SHUTTING_DOWN message ("...; failover=<addr>"). Empty when err is not
// a shutdown rejection or no address was announced.
func FailoverAddr(err error) string {
	if err == nil || !errors.Is(err, ErrShuttingDown) {
		return ""
	}
	msg := err.Error()
	i := strings.LastIndex(msg, "failover=")
	if i < 0 {
		return ""
	}
	addr := msg[i+len("failover="):]
	if j := strings.IndexAny(addr, " ;"); j >= 0 {
		addr = addr[:j]
	}
	return strings.TrimSpace(addr)
}
