package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestNilAndDisabledTracers pins the no-op contract: a nil tracer, an
// unsampled root and a child started from an untraced context must all
// pass the context through and hand back nil Ops whose methods are
// safe.
// newSized is New with both rings capped at ringSize, so tests can
// overflow them cheaply.
func newSized(node string, ringSize, sampleEvery int) *Tracer {
	t := New(node, sampleEvery)
	t.spans.size, t.events.size = ringSize, ringSize
	return t
}

func TestNilAndDisabledTracers(t *testing.T) {
	ctx := context.Background()
	var tr *Tracer
	c2, op := tr.Root(ctx, "x")
	if c2 != ctx || op != nil {
		t.Fatal("nil tracer must pass through")
	}
	op.AddBytes(1)
	op.Note("ignored")
	op.EndErr(nil)

	never := newSized("n", 8, 0) // sampleEvery 0: no roots
	c2, op = never.Root(ctx, "x")
	if c2 != ctx || op != nil {
		t.Fatal("unsampled root must pass through")
	}
	if c3, op := Start(ctx, "child"); c3 != ctx || op != nil {
		t.Fatal("child of untraced context must pass through")
	}
	if !FromContext(ctx).Zero() {
		t.Fatal("background context must carry a zero Ctx")
	}
}

// TestRootAllocFree pins the headline constraint: the disabled/unsampled
// paths on the operation hot path allocate nothing.
func TestRootAllocFree(t *testing.T) {
	ctx := context.Background()
	var nilTr *Tracer
	never := newSized("n", 8, 0)
	if avg := testing.AllocsPerRun(200, func() {
		c, op := nilTr.Root(ctx, "w")
		op.End()
		c, op = never.Root(c, "w")
		op.End()
		_, op = Start(c, "child")
		op.EndErr(nil)
		_ = FromContext(c)
	}); avg != 0 {
		t.Fatalf("disabled tracing allocated %.1f/op, want 0", avg)
	}
}

// TestSampling pins 1-in-N root sampling.
func TestSampling(t *testing.T) {
	tr := newSized("n", 1024, 4)
	sampled := 0
	for i := 0; i < 400; i++ {
		if _, op := tr.Root(context.Background(), "op"); op != nil {
			sampled++
			op.End()
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 400 at 1-in-4, want 100", sampled)
	}
}

// TestSpanTreeAcrossTracers builds a trace that hops "processes" (three
// tracers) and checks the reconstructed tree shape and annotations.
func TestSpanTreeAcrossTracers(t *testing.T) {
	client := newSized("client", 64, 1)
	vm := newSized("vm", 64, 1)
	prov := newSized("prov", 64, 1)

	ctx, root := client.ForceRoot(context.Background(), "core.WriteBlob")
	root.AddBytes(4096)

	// Client-side child span.
	pctx, push := Start(ctx, "write.push")
	// "RPC" into the provider: server resumes under the propagated ids.
	_, srv := prov.Resume(context.Background(), FromContext(pctx), "provider.MPutPages")
	srv.AddBytes(4096)
	srv.End()
	push.End()

	// Second hop to the vmanager.
	_, asg := vm.Resume(context.Background(), FromContext(ctx), "vmanager.MAssign")
	asg.Note("retry")
	asg.End()
	root.End()

	var all []Span
	for _, tr := range []*Tracer{client, vm, prov} {
		all = append(all, tr.SpansFor(root.TraceID())...)
	}
	if got := Processes(all); got != 3 {
		t.Fatalf("Processes = %d, want 3", got)
	}
	roots := BuildTree(all)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if r.Span.Name != "core.WriteBlob" || len(r.Children) != 2 {
		t.Fatalf("bad root: %+v (%d children)", r.Span, len(r.Children))
	}
	if r.Children[0].Span.Name != "write.push" || len(r.Children[0].Children) != 1 {
		t.Fatalf("bad push subtree: %+v", r.Children[0].Span)
	}
	if got := r.Children[0].Children[0].Span.Node; got != "prov" {
		t.Fatalf("provider span node = %q", got)
	}
	out := FormatTree(roots)
	for _, want := range []string{"core.WriteBlob", "provider.MPutPages", "[vm]", "4096B", "(retry)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTree output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRecording is the -race stress gate on the ring buffer:
// many goroutines record while others snapshot.
func TestConcurrentRecording(t *testing.T) {
	tr := newSized("n", 256, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range tr.Spans() {
					if sp.ID == 0 {
						t.Error("snapshot returned a zero span")
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				ctx, root := tr.Root(context.Background(), "op")
				_, child := Start(ctx, "child")
				child.AddBytes(int64(i))
				child.EndErr(nil)
				root.End()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if len(tr.Spans()) != 256 {
		t.Fatalf("ring holds %d spans, want full 256", len(tr.Spans()))
	}
}

// TestSpanCodecRoundTrip pins the MSpans wire format.
func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{TraceID: 1, ID: 2, Parent: 0, Name: "a", Node: "n0", Start: 100, Dur: 5, Bytes: 7},
		{TraceID: 1, ID: 3, Parent: 2, Name: "b", Node: "n1", Start: 101, Dur: 2, Note: `x="1"; error: boom`},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("span %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if id, err := DecodeSpansQuery(EncodeSpansQuery(42)); err != nil || id != 42 {
		t.Fatalf("query round trip: %d, %v", id, err)
	}
	if id, err := DecodeSpansQuery(nil); err != nil || id != 0 {
		t.Fatalf("empty query: %d, %v", id, err)
	}
	if _, err := DecodeSpans([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("corrupt body decoded")
	}
}
