package shard

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// Crash-injection fault points for the 2PC crash matrix (CI's crash-2pc
// job). Setting SIAS_CRASHPOINT to one of the names below makes the process
// die with exit status 137 (the SIGKILL status) the first time a cross-shard
// commit crosses that phase boundary; SIAS_CRASHPOINT_SKIP=N lets N
// traversals survive first, so a run can complete some cross-shard commits
// before the injected crash. Unset (the default) the hook is a no-op with
// one early string compare as its only cost.
const (
	// crashAfterPrepare fires after every participant's PREPARE record is
	// durable but before the coordinator logs its decision (the coordinator
	// prepares nothing: its decision is its prepare): recovery must presume
	// abort.
	crashAfterPrepare = "2pc-after-prepare"
	// crashAfterDecide fires after the decide flush — the commit decision and
	// the coordinator's own outcome record are durable in the coordinator's
	// WAL — but before any other participant logs an outcome record:
	// recovery must resolve every one of those to commit.
	crashAfterDecide = "2pc-after-decide"
	// crashMidOutcome fires after the first non-coordinator participant's
	// outcome record is durable too — the hook forces it, since the commit
	// path leaves outcome records to a later flush — but before the
	// remaining participants log theirs: recovery must converge the
	// stragglers onto the same committed outcome (with two written shards
	// there are none left).
	crashMidOutcome = "2pc-mid-outcome"
)

var (
	crashOnce  sync.Once
	crashPoint string
	crashSkip  atomic.Int64
)

func crashInit() {
	crashPoint = os.Getenv("SIAS_CRASHPOINT")
	if n, err := strconv.Atoi(os.Getenv("SIAS_CRASHPOINT_SKIP")); err == nil {
		crashSkip.Store(int64(n))
	}
}

// crashpoint kills the process if the named fault point is armed. beforeExit
// (optional) runs first — the mid-outcome hook uses it to force the first
// outcome record to the device so the simulated crash leaves exactly the log
// state the scenario describes. If the hook fails, that precondition does
// not hold: exiting 137 anyway would hand the crash matrix a log state the
// scenario does not describe, so the process dies loudly with status 1
// instead and the matrix run fails visibly.
func crashpoint(name string, beforeExit func() error) {
	crashOnce.Do(crashInit)
	if crashPoint != name {
		return
	}
	if crashSkip.Add(-1) >= 0 {
		return
	}
	if beforeExit != nil {
		if err := beforeExit(); err != nil {
			fmt.Fprintf(os.Stderr, "sias: crashpoint %s pre-exit hook failed: %v\n", name, err)
			os.Exit(1)
		}
	}
	os.Exit(137)
}
