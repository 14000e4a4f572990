package provider

import (
	"context"
	"fmt"

	"blob/internal/stats"
	"blob/internal/wire"
)

// MLatency answers with the provider's get/put latency distributions as
// histogram snapshots. The monitor merges snapshots across providers
// into cluster-wide quantiles — shipping buckets instead of precomputed
// percentiles is what makes the cluster p99 a real p99 rather than an
// average of per-node ones.
//
//	MLatency request:  (empty)
//	MLatency response: get HistogramSnapshot | put HistogramSnapshot
//	                   (layout in internal/stats/wire.go)

func (sv *Service) handleLatency(_ context.Context, _ []byte) ([]byte, error) {
	w := wire.NewWriter(160)
	sv.GetLatency.Snapshot().EncodeTo(w)
	sv.PutLatency.Snapshot().EncodeTo(w)
	return w.Bytes(), nil
}

// FetchLatency retrieves a provider's get/put latency snapshots.
func FetchLatency(ctx context.Context, c Caller, addr string) (get, put stats.HistogramSnapshot, err error) {
	resp, err := c.Call(ctx, addr, MLatency, nil)
	if err != nil {
		return get, put, err
	}
	r := wire.NewReader(resp)
	if get, err = stats.DecodeSnapshotFrom(r); err != nil {
		return get, put, fmt.Errorf("provider latency: get histogram: %w", err)
	}
	if put, err = stats.DecodeSnapshotFrom(r); err != nil {
		return get, put, fmt.Errorf("provider latency: put histogram: %w", err)
	}
	return get, put, nil
}

// DigestBytes summarizes the backend's holdings for the heartbeat
// piggyback: the encoded bloom digest plus its wire.Checksum64 hash,
// which the provider compares against the manager's held hash to decide
// whether the bytes need resending at all.
func (sv *Service) DigestBytes() (hash uint64, enc []byte) {
	w := wire.NewWriter(256)
	sv.store.BloomDigest().Encode(w)
	enc = w.Bytes()
	return wire.Checksum64(enc), enc
}
