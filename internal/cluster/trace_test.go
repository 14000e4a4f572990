package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"blob/internal/erasure"
	"blob/internal/rpc"
	"blob/internal/trace"
)

// TestTracedWriteSpansThreeProcesses is the tracing acceptance test: one
// traced WriteBlob against the simulated cluster must leave spans in at
// least three processes' ring buffers (client, version manager, data
// provider), reassemblable into a single tree rooted at core.WriteBlob —
// in both redundancy modes, whose page pushes are separate fan-outs.
func TestTracedWriteSpansThreeProcesses(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  Config
	}{
		{"replicated", Config{DataProviders: 2, MetaProviders: 2, TraceSampleEvery: 1}},
		{"rs(2,1)", Config{DataProviders: 3, MetaProviders: 2, TraceSampleEvery: 1,
			Redundancy: erasure.Redundancy{K: 2, M: 1}}},
	} {
		t.Run(tt.name, func(t *testing.T) { tracedWriteSpans(t, tt.cfg) })
	}
}

func tracedWriteSpans(t *testing.T, cfg Config) {
	t.Cleanup(rpc.PoisonOnRelease(0xEE)) // as the external tests' launch does
	c, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ctx := context.Background()
	cl, err := c.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	b, err := cl.CreateBlob(ctx, 4096, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 4*4096)
	if _, err := b.Write(ctx, data, 0); err != nil {
		t.Fatal(err)
	}

	// The client's ring holds the root span; its trace id keys the
	// cluster-wide gather.
	var traceID uint64
	for _, sp := range cl.Tracer().Spans() {
		if sp.Name == "core.WriteBlob" {
			traceID = sp.TraceID
		}
	}
	if traceID == 0 {
		t.Fatal("no core.WriteBlob root span recorded on the client")
	}

	spans := c.TraceSpans(traceID)
	if procs := trace.Processes(spans); procs < 3 {
		t.Fatalf("trace %#x spans %d processes, want >= 3:\n%s",
			traceID, procs, trace.FormatTree(trace.BuildTree(spans)))
	}
	roots := trace.BuildTree(spans)
	if len(roots) != 1 || roots[0].Span.Name != "core.WriteBlob" {
		t.Fatalf("expected one tree rooted at core.WriteBlob, got %d roots:\n%s",
			len(roots), trace.FormatTree(roots))
	}
	tree := trace.FormatTree(roots)
	for _, want := range []string{"write.push", "write.meta", "write.commit", "provider.MPutPages", "vmanager."} {
		if !strings.Contains(tree, want) {
			t.Errorf("span tree missing %q:\n%s", want, tree)
		}
	}

	// The same spans are reachable over the wire the way blobctl trace
	// gathers them: every node serves its ring via the MSpans RPC.
	resp, err := cl.Pool().Call(ctx, c.VMAddrs[0], trace.MSpans, trace.EncodeSpansQuery(traceID))
	if err != nil {
		t.Fatalf("MSpans on vmanager: %v", err)
	}
	remote, err := trace.DecodeSpans(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) == 0 {
		t.Fatal("vmanager served no spans for the trace over MSpans")
	}
}
