package wal

import (
	"errors"
	"fmt"

	"sias/internal/device"
)

// DefaultBatchBytes is the soft payload cap ReadBatch applies when given
// none: large enough to amortize framing, small enough to keep follower apply
// latency (and heartbeat cadence) low.
const DefaultBatchBytes = 256 << 10

// errBatchFull stops ReadBatch's scan once the batch has reached its cap.
var errBatchFull = errors.New("wal: batch full")

// ReadBatch returns, verbatim, the encoded records of the log on dev from
// `from` on, for replication shipping: a follower re-appends them unchanged.
// It is Scan's loop started at from, a record boundary, and bounded by limit,
// the writer's durable LSN: it reads no page past the one that holds limit's
// last byte, so it touches only pages the writer has flushed (they are stable,
// so it shares the device with the live writer without locking). The batch
// starts at from and ends at from+len(data); it is never empty while from is
// below limit, since every byte below the durable LSN is intact records.
//
// maxBytes is a soft cap: the batch ends at the first record boundary at or
// beyond it. Pass 0 for the default.
func ReadBatch(dev device.BlockDevice, from, limit LSN, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	var data []byte
	_, err := scan(dev, from, limit, func(_ LSN, _ Record, raw []byte) error {
		data = append(data, raw...)
		if len(data) >= maxBytes {
			return errBatchFull
		}
		return nil
	})
	if errors.Is(err, errBatchFull) {
		err = nil
	}
	if err == nil && data == nil && from < limit {
		err = fmt.Errorf("wal: no intact record at %d, below the durable %d", from, limit)
	}
	return data, err
}
