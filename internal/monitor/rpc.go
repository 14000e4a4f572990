package monitor

import (
	"context"
	"encoding/json"
	"fmt"

	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// MCluster serves the monitor's latest ClusterSnapshot as JSON — a
// control-plane query, so readability beats compactness.
//
//	MCluster request:  (empty: snapshot with its default event tail)
//	                   | varint sinceUnixNano, u8 minSeverity
//	                     (tail filtered: Time > since, Sev >= min —
//	                     the blobctl events -follow cursor)
//	MCluster response: ClusterSnapshot JSON
const MCluster = 0x0702

func init() {
	rpc.RegisterMethodName(MCluster, "monitor.MCluster")
}

// RegisterHandlers wires the monitor's RPC methods onto srv.
func (m *Monitor) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MCluster, m.handleCluster)
}

func (m *Monitor) handleCluster(_ context.Context, body []byte) ([]byte, error) {
	snap := m.Snapshot()
	if len(body) > 0 {
		r := wire.NewReader(body)
		since := r.Varint()
		minSev := trace.Severity(r.Uint8())
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("monitor: cluster query: %w", err)
		}
		snap.Events = m.EventsSince(since, minSev)
	}
	return json.Marshal(snap)
}

// EncodeClusterQuery builds an MCluster request asking only for events
// after since (unix nanoseconds) at or above minSev.
func EncodeClusterQuery(since int64, minSev trace.Severity) []byte {
	w := wire.NewWriter(10)
	w.Varint(since)
	w.Uint8(uint8(minSev))
	return w.Bytes()
}

// FetchCluster retrieves a monitor's snapshot. body is nil for the
// default view or an EncodeClusterQuery result.
func FetchCluster(ctx context.Context, pool *rpc.Pool, addr string, body []byte) (ClusterSnapshot, error) {
	resp, err := pool.Call(ctx, addr, MCluster, body)
	if err != nil {
		return ClusterSnapshot{}, err
	}
	var s ClusterSnapshot
	if err := json.Unmarshal(resp, &s); err != nil {
		return ClusterSnapshot{}, fmt.Errorf("monitor: decode snapshot: %w", err)
	}
	return s, nil
}
