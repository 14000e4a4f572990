// Package trace is every process's one recorder. A Tracer keeps two
// record types in fixed-size rings: the spans of end-to-end request
// traces, and the cluster events — structured, severity-tagged state
// transitions such as elections, heartbeat deaths, repair sweeps and
// compactions. It also propagates trace context through
// context.Context and (via the rpc layer's optional frame-header
// extension) across processes, and rebuilds one operation's span tree
// from the rings of every node it touched. Each process serves both
// rings over MSpans and MEvents; the monitor merges event tails
// cluster-wide and blobctl gathers traces.
//
// The design goals, in order:
//
//   - Zero cost when disabled. A nil *Tracer is a valid tracer whose
//     every method is a no-op, and an unsampled operation allocates
//     nothing: Root returns the caller's context unchanged and a nil
//     *Op whose methods are nil-receiver no-ops.
//   - Cheap when recording. Recording a span or an event is one short
//     critical section copying a value into a ring slot; a ring never
//     grows and overwrites its oldest records, so a tracer's memory is
//     bounded at construction.
//   - Reconstructible. Span and trace identities are 64-bit values
//     drawn from a per-tracer splitmix64 sequence seeded randomly, so
//     ids minted by different processes never need coordination; a
//     trace id plus the parent-span links are enough to rebuild the
//     tree from any mix of buffers (BuildTree). Events from different
//     nodes merge by timestamp; each tracer's event Seq is node-local,
//     used for incremental tailing.
//
// The event schema, the wire formats and the propagation rules are
// specified in docs/observability.md.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Ctx is the propagated trace context: the trace's identity and the
// span that is the parent of whatever happens next. The zero value
// means "not traced" and is what every untraced operation carries.
type Ctx struct {
	TraceID uint64
	SpanID  uint64
}

// Zero reports whether the context carries no trace.
func (c Ctx) Zero() bool { return c.TraceID == 0 }

// Span is one recorded unit of work. Spans are plain values: recording
// copies them into the ring, collection copies them out.
type Span struct {
	TraceID uint64
	ID      uint64
	Parent  uint64 // 0 for a root span
	Name    string // static operation name, e.g. "core.WriteBlob"
	Node    string // the recording tracer's node name
	Start   int64  // unix nanoseconds
	Dur     int64  // nanoseconds
	Bytes   int64  // payload bytes the operation moved, when known
	Note    string // annotations: error text, retry/degraded markers
}

// Tracer is a process's one recorder (in a netsim cluster every
// simulated process has its own): the spans of the traces that reach the
// process, and the cluster events it emits (events.go), each in a
// fixed-size ring. The nil tracer is valid and records nothing.
type Tracer struct {
	node string

	spans  ring[Span]
	events ring[Event]

	// seed starts the id sequence and, drawn afresh by every New, names
	// the recorder's incarnation in event tails.
	seed uint64
	ctr  atomic.Uint64

	// sampleEvery selects which Root calls start a trace: 0 never, 1
	// always, N every Nth. Spans of traces that reach the process from
	// elsewhere are recorded regardless.
	sampleEvery uint32
	rootCtr     atomic.Uint32
}

// The per-process ring sizes. Events are far rarer than spans, so their
// ring is the smaller one.
const (
	SpanRing  = 4096
	EventRing = 1024
)

// New creates a tracer for the named node sampling one in sampleEvery
// root operations (0 starts no traces of its own, 1 traces everything).
// Its rings hold SpanRing spans and EventRing events.
func New(node string, sampleEvery int) *Tracer {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Monotonic fallback: ids stay unique within the process.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	t := &Tracer{
		node:        node,
		spans:       ring[Span]{size: SpanRing},
		events:      ring[Event]{size: EventRing},
		seed:        binary.LittleEndian.Uint64(b[:]),
		sampleEvery: uint32(sampleEvery),
	}
	return t
}

// mix is the splitmix64 finalizer: a bijective scramble of the counter
// so ids from a random seed are uniformly spread.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newID mints a process-unique nonzero 64-bit identity.
func (t *Tracer) newID() uint64 {
	id := mix(t.seed + t.ctr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampleRoot decides whether this Root call starts a trace.
func (t *Tracer) sampleRoot() bool {
	switch t.sampleEvery {
	case 0:
		return false
	case 1:
		return true
	default:
		return t.rootCtr.Add(1)%t.sampleEvery == 0
	}
}

// Spans returns a copy of every live span in the ring, oldest first.
func (t *Tracer) Spans() []Span {
	return t.SpansFor(0)
}

// SpansFor returns the ring's spans belonging to traceID (0 matches
// every trace), oldest first.
func (t *Tracer) SpansFor(traceID uint64) []Span {
	if t == nil {
		return nil
	}
	spans, _ := t.spans.since(0, func(_ uint64, sp *Span) bool {
		return traceID == 0 || sp.TraceID == traceID
	})
	return spans
}

// Op is one in-progress span. A nil *Op (untraced operation) is valid:
// every method is a no-op, so call sites need no branches.
type Op struct {
	t    *Tracer
	span Span
}

// ctxKey carries the active trace through a context.Context.
type ctxKey struct{}

// ctxVal is what the context holds: the local tracer (nil when the
// trace merely transits an instrumented-but-untraced process) and the
// propagated ids.
type ctxVal struct {
	t *Tracer
	c Ctx
}

// ContextWith returns a context carrying tracer t and trace context c.
// Most callers use Root or Start instead; the rpc server uses this to
// hand an incoming trace to its handler.
func ContextWith(ctx context.Context, t *Tracer, c Ctx) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, c: c})
}

// FromContext returns the context's trace ids (the zero Ctx when the
// operation is untraced). This is what the rpc layer stamps into the
// frame header.
func FromContext(ctx context.Context) Ctx {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.c
	}
	return Ctx{}
}

// Root begins a new trace for a top-level operation, subject to the
// tracer's sampling. It returns the (possibly trace-carrying) context
// and the root Op; for a nil tracer or an unsampled call both are
// passed through untouched with a nil Op and zero allocations.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Op) {
	if t == nil || !t.sampleRoot() {
		return ctx, nil
	}
	return t.ForceRoot(ctx, name)
}

// ForceRoot begins a trace unconditionally (blobctl trace and tests),
// bypassing sampling. Nil tracers still return a nil Op.
func (t *Tracer) ForceRoot(ctx context.Context, name string) (context.Context, *Op) {
	if t == nil {
		return ctx, nil
	}
	return t.begin(ctx, Ctx{TraceID: t.newID()}, name)
}

// Start begins a child span of whatever trace ctx carries. Untraced
// contexts (or contexts propagated through a process without a tracer)
// return ctx unchanged and a nil Op, allocation-free.
func Start(ctx context.Context, name string) (context.Context, *Op) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return ctx, nil
	}
	return v.t.Resume(ctx, v.c, name)
}

// Resume begins a span under an explicitly propagated parent — the rpc
// server's entry point for an incoming traced request. The returned
// context carries the tracer and the new span as parent for everything
// the handler does.
func (t *Tracer) Resume(ctx context.Context, parent Ctx, name string) (context.Context, *Op) {
	if t == nil || parent.Zero() {
		return ctx, nil
	}
	return t.begin(ctx, parent, name)
}

// begin opens a span of parent's trace under parent's span (none for a
// fresh root) and returns a context carrying it.
func (t *Tracer) begin(ctx context.Context, parent Ctx, name string) (context.Context, *Op) {
	op := &Op{t: t, span: Span{
		TraceID: parent.TraceID,
		ID:      t.newID(),
		Parent:  parent.SpanID,
		Name:    name,
		Node:    t.node,
		Start:   time.Now().UnixNano(),
	}}
	return ContextWith(ctx, t, op.Ctx()), op
}

// Ctx returns the op's trace context (zero for a nil Op).
func (o *Op) Ctx() Ctx {
	if o == nil {
		return Ctx{}
	}
	return Ctx{TraceID: o.span.TraceID, SpanID: o.span.ID}
}

// TraceID returns the op's trace identity (0 for a nil Op).
func (o *Op) TraceID() uint64 {
	if o == nil {
		return 0
	}
	return o.span.TraceID
}

// AddBytes accumulates payload bytes onto the span.
func (o *Op) AddBytes(n int64) {
	if o != nil {
		o.span.Bytes += n
	}
}

// Note appends an annotation (retry counts, degraded-read markers).
// Notes are joined with "; " in the recorded span.
func (o *Op) Note(s string) {
	if o == nil {
		return
	}
	if o.span.Note == "" {
		o.span.Note = s
	} else {
		o.span.Note += "; " + s
	}
}

// Notef appends a formatted annotation.
func (o *Op) Notef(format string, args ...any) {
	if o != nil {
		o.Note(fmt.Sprintf(format, args...))
	}
}

// End completes the span and records it into the tracer's ring.
func (o *Op) End() {
	if o == nil {
		return
	}
	o.span.Dur = time.Now().UnixNano() - o.span.Start
	o.t.spans.push(o.span)
}

// EndErr completes the span, annotating it with err when non-nil.
func (o *Op) EndErr(err error) {
	if o == nil {
		return
	}
	if err != nil {
		o.Note("error: " + err.Error())
	}
	o.End()
}

// TreeNode is one span with its resolved children, ordered by start
// time.
type TreeNode struct {
	Span     Span
	Children []*TreeNode
}

// BuildTree reconstructs span trees from an unordered collection
// gathered across processes. Spans whose parent is absent from the
// collection (including true roots) become top-level nodes; duplicate
// ids (a span collected from two snapshots) are collapsed.
func BuildTree(spans []Span) []*TreeNode {
	nodes := make(map[uint64]*TreeNode, len(spans))
	order := make([]*TreeNode, 0, len(spans))
	for _, sp := range spans {
		if sp.ID == 0 {
			continue
		}
		if _, dup := nodes[sp.ID]; dup {
			continue
		}
		n := &TreeNode{Span: sp}
		nodes[sp.ID] = n
		order = append(order, n)
	}
	var roots []*TreeNode
	for _, n := range order {
		if p, ok := nodes[n.Span.Parent]; ok && n.Span.Parent != n.Span.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortTree := func(ns []*TreeNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Span.Start < ns[j].Span.Start })
	}
	var rec func(n *TreeNode)
	rec = func(n *TreeNode) {
		sortTree(n.Children)
		for _, c := range n.Children {
			rec(c)
		}
	}
	sortTree(roots)
	for _, r := range roots {
		rec(r)
	}
	return roots
}

// Processes counts the distinct node names appearing in the spans.
func Processes(spans []Span) int {
	seen := make(map[string]struct{}, 8)
	for _, sp := range spans {
		seen[sp.Node] = struct{}{}
	}
	return len(seen)
}

// FormatTree renders span trees for logs and blobctl trace: one line
// per span, indented by depth, with duration, node, byte counts and
// notes.
func FormatTree(roots []*TreeNode) string {
	var b strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		sp := n.Span
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%-*s %9.3fms  [%s]", 28-2*depth, sp.Name,
			float64(sp.Dur)/1e6, sp.Node)
		if sp.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", sp.Bytes)
		}
		if sp.Note != "" {
			fmt.Fprintf(&b, "  (%s)", sp.Note)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range roots {
		rec(r, 0)
	}
	return b.String()
}
