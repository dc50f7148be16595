package server_test

import (
	"testing"

	"sias/internal/wire"
)

// TestAsOfHandleRejectsKVWrites drives the kv write ops at an AS OF handle
// over raw frames — internal/client refuses them locally, so only a raw
// connection reaches the server. Each must answer READ_ONLY without logging
// a byte or writing a page, and the key must read unchanged afterwards.
// (They used to answer OK: versions stamped with transaction id 0 went into
// the heap and the WAL, acknowledged and visible to no one.)
func TestAsOfHandleRejectsKVWrites(t *testing.T) {
	r := memRouter(t, 1)
	_, addr := startServer(t, r, nil)
	s := dialRaw(t, addr)

	h := s.begin()
	s.one(kvFrame(wire.OpInsert, h, 1, []byte("kept")), wire.CodeOK)
	s.one(endFrame(wire.OpCommit, h), wire.CodeOK)

	tokens := s.one(rawFrame{wire.OpSnapshot, nil}, wire.CodeOK)
	rd := wire.Reader{B: s.one(rawFrame{wire.OpBeginAt, tokens}, wire.CodeOK)}
	asOf, err := rd.U64()
	if err != nil {
		t.Fatal(err)
	}

	db := r.Shard(0).Facade.DB()
	lsn, writes := db.WAL().NextLSN(), db.Stats().Data.Writes
	s.one(kvFrame(wire.OpInsert, asOf, 2, []byte("lost")), wire.CodeReadOnly)
	s.one(kvFrame(wire.OpUpdate, asOf, 1, []byte("lost")), wire.CodeReadOnly)
	s.one(kvFrame(wire.OpDelete, asOf, 1, nil), wire.CodeReadOnly)
	s.one(endFrame(wire.OpCommit, asOf), wire.CodeOK)
	if got := db.WAL().NextLSN(); got != lsn {
		t.Errorf("refused writes logged %d bytes", got-lsn)
	}
	if got := db.Stats().Data.Writes; got != writes {
		t.Errorf("refused writes wrote %d data pages", got-writes)
	}

	h = s.begin()
	rd = wire.Reader{B: s.one(kvFrame(wire.OpGet, h, 1, nil), wire.CodeOK)}
	if v, _ := rd.Bytes(); string(v) != "kept" {
		t.Errorf("key 1 reads %q after refused writes, want %q", v, "kept")
	}
	s.one(kvFrame(wire.OpGet, h, 2, nil), wire.CodeNotFound)
	s.one(endFrame(wire.OpCommit, h), wire.CodeOK)
}
