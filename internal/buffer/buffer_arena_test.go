//go:build linux && !race

package buffer

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sias/internal/device"
	"sias/internal/page"
)

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		t.Fatalf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestDroppedPoolReturnsItsPages pins the arena's lifetime: a pool dropped
// without any close gives its touched pages back to the kernel once the
// collector finds no frame of it.
func TestDroppedPoolReturnsItsPages(t *testing.T) {
	const frames = 8192 // 64 MB of pages
	const wantFall = 48 << 20
	p := New(Config{Frames: frames}, device.NewMem(page.Size, 1<<14))
	touchPages(t, p, frames)
	touched := residentBytes(t)
	p = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // the first finds the arena unreachable and queues its finalizer
		fell := touched - residentBytes(t)
		if fell >= wantFall {
			t.Logf("RSS fell by %.1f MB", float64(fell)/(1<<20))
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("RSS fell by %.1f MB after dropping a pool with %d touched pages, want >= %d MB",
				float64(fell)/(1<<20), frames, wantFall>>20)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
