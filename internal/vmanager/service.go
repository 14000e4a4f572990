package vmanager

import (
	"context"
	"fmt"

	"blob/internal/meta"
	"blob/internal/rpc"
	"blob/internal/wire"
)

// RPC method identifiers for the version manager service (0x05xx block).
const (
	MCreate      = 0x0501
	MInfo        = 0x0502
	MAssign      = 0x0503
	MCommit      = 0x0504
	MAbort       = 0x0505
	MLatest      = 0x0506
	MVersionInfo = 0x0507
	MHistory     = 0x0508
	MBlobs       = 0x0509
)

func init() {
	rpc.RegisterMethodName(MCreate, "vmanager.MCreate")
	rpc.RegisterMethodName(MInfo, "vmanager.MInfo")
	rpc.RegisterMethodName(MAssign, "vmanager.MAssign")
	rpc.RegisterMethodName(MCommit, "vmanager.MCommit")
	rpc.RegisterMethodName(MAbort, "vmanager.MAbort")
	rpc.RegisterMethodName(MLatest, "vmanager.MLatest")
	rpc.RegisterMethodName(MVersionInfo, "vmanager.MVersionInfo")
	rpc.RegisterMethodName(MHistory, "vmanager.MHistory")
	rpc.RegisterMethodName(MBlobs, "vmanager.MBlobs")
}

// handleBlobs serves the blob ID list (the repair agent's work list).
func (m *Manager) handleBlobs(_ context.Context, _ []byte) ([]byte, error) {
	ids := m.Blobs()
	w := wire.NewWriter(8 + 8*len(ids))
	w.Uint64Slice(ids)
	return w.Bytes(), nil
}

func (m *Manager) handleInfo(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vmanager info: %w", err)
	}
	info, err := m.Info(blob)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(48)
	w.Uint64(info.ID)
	w.Uint64(info.PageSize)
	w.Uint64(info.TotalPages)
	w.Uint64(info.LatestPublished)
	w.Uint64(info.SizeBytes)
	w.Uint8(uint8(info.Redundancy.K))
	w.Uint8(uint8(info.Redundancy.M))
	return w.Bytes(), nil
}

// DecodeAssignment parses an MAssign response.
func DecodeAssignment(body []byte) (Assignment, error) {
	r := wire.NewReader(body)
	var a Assignment
	a.Version = r.Uint64()
	a.Offset = r.Uint64()
	n := r.Count(3) // three uvarints per border
	a.Borders = make([]meta.Border, 0, n)
	for i := 0; i < n; i++ {
		a.Borders = append(a.Borders, meta.Border{
			Child: meta.NodeRange{Start: r.Uvarint(), Size: r.Uvarint()},
			Ver:   r.Uvarint(),
		})
	}
	return a, r.Err()
}

func (m *Manager) handleLatest(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vmanager latest: %w", err)
	}
	v, size, err := m.Latest(blob)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(16)
	w.Uint64(v)
	w.Uint64(size)
	return w.Bytes(), nil
}

func (m *Manager) handleVersionInfo(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	v := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vmanager versioninfo: %w", err)
	}
	published, size, err := m.VersionInfo(blob, v)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(16)
	w.Bool(published)
	w.Uint64(size)
	return w.Bytes(), nil
}

func (m *Manager) handleHistory(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	from := r.Uint64()
	to := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vmanager history: %w", err)
	}
	recs, err := m.History(blob, from, to)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(8 + 32*len(recs))
	w.Uvarint(uint64(len(recs)))
	for _, rec := range recs {
		w.Uvarint(rec.Version)
		w.Uvarint(rec.Range.First)
		w.Uvarint(rec.Range.Count)
		w.Uint64(rec.WriteID)
		w.Bool(rec.Aborted)
	}
	return w.Bytes(), nil
}

// DecodeHistory parses an MHistory response.
func DecodeHistory(body []byte) ([]WriteRecord, error) {
	r := wire.NewReader(body)
	n := r.Count(historyRecordBytes)
	out := make([]WriteRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, WriteRecord{
			Version: r.Uvarint(),
			Range:   meta.PageRange{First: r.Uvarint(), Count: r.Uvarint()},
			WriteID: r.Uint64(),
			Aborted: r.Bool(),
		})
	}
	return out, r.Err()
}
