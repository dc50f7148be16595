package repl

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"sias/internal/device"
	"sias/internal/engine"
	"sias/internal/page"
	"sias/internal/tuple"
	"sias/internal/wal"
)

// TestApplyBatchRefusesGap: a LOGBATCH that starts past the local log end
// would leave a hole in the mirror, and a log ends at its first hole. The
// follower refuses it with an error naming both LSNs and leaves its log as it
// was, byte for byte; the same batch at the local end applies.
func TestApplyBatchRefusesGap(t *testing.T) {
	walDev := device.NewMem(page.Size, 64)
	db, err := engine.Open(engine.DefaultOptions(device.NewMem(page.Size, 1<<10), walDev))
	if err != nil {
		t.Fatal(err)
	}
	db.SetReplica(true)
	schema := tuple.NewSchema(tuple.Column{Name: "k", Type: tuple.TypeInt64})
	if _, _, err := db.CreateTable(0, "kv", schema, "k"); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(Config{PrimaryAddr: "127.0.0.1:1", Shards: []*engine.Facade{engine.NewFacade(db)}})
	if err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		img := make([]byte, int(walDev.NumPages())*page.Size)
		for p := int64(0); p < walDev.NumPages(); p++ {
			if _, err := walDev.ReadPage(0, p, img[int(p)*page.Size:]); err != nil {
				t.Fatal(err)
			}
		}
		return img
	}

	w := db.WAL()
	end, before := w.NextLSN(), image()
	batch := wal.EncodeRecord(&wal.Record{Type: wal.RecTraceCtx, Tx: 1, Aux: 7})
	err = f.applyBatch(0, end+100, batch, end+100+wal.LSN(len(batch)))
	if err == nil {
		t.Fatal("a batch starting past the local log end applied")
	}
	for _, lsn := range []wal.LSN{end, end + 100} {
		if !strings.Contains(err.Error(), strconv.FormatUint(uint64(lsn), 10)) {
			t.Errorf("error %q does not name LSN %d", err, lsn)
		}
	}
	if w.NextLSN() != end || w.Durable() != end || !bytes.Equal(image(), before) {
		t.Errorf("the refused batch changed the local log: end %d -> %d, durable %d", end, w.NextLSN(), w.Durable())
	}
	if got := f.AppliedLSNs()[0]; got != uint64(end) {
		t.Errorf("applied LSN %d after the refusal, want %d", got, end)
	}

	if err := f.applyBatch(0, end, batch, end+wal.LSN(len(batch))); err != nil {
		t.Fatal(err)
	}
	if want := end + wal.LSN(len(batch)); w.Durable() != want || f.AppliedLSNs()[0] != uint64(want) {
		t.Errorf("the batch at the local end: durable %d, applied %d, want %d", w.Durable(), f.AppliedLSNs()[0], want)
	}
}
