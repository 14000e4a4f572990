package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for
// the operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// spanLog collects one client goroutine's spans in memory; it is not
// shared, so recording takes no lock. Logs are merged and written out
// when the run ends.
type spanLog struct {
	epoch time.Time
	base  uint64 // high bits distinguishing this log's ids
	next  uint64
	spans []span
}

func newSpanLog(epoch time.Time, client int) *spanLog {
	return &spanLog{epoch: epoch, base: uint64(client+1) << 40}
}

// begin opens a span; the returned index is passed to end.
func (l *spanLog) begin(op, parent uint64, name string) (idx int, id uint64) {
	l.next++
	id = l.base | l.next
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.epoch))})
	return len(l.spans) - 1, id
}

func (l *spanLog) end(idx int) time.Duration {
	s := &l.spans[idx]
	s.End = int64(time.Since(l.epoch))
	return time.Duration(s.End - s.Start)
}

// add records an already-measured span (a phase duration the client
// library reported) starting at start for d.
func (l *spanLog) add(op, parent uint64, name string, start int64, d time.Duration) {
	l.next++
	l.spans = append(l.spans, span{Op: op, ID: l.base | l.next, Parent: parent, Name: name, Start: start, End: start + int64(d)})
}

// coverage splits every span's length among itself and its direct
// children. A child's exposed time is the part of its interval, clipped
// to the parent, that no earlier sibling covers (siblings may overlap:
// a parallel fan-out, or a round trip that runs beside a transfer); the
// parent's self time is what no child covers. A span's self time and
// its children's exposed times therefore sum to its length.
func coverage(spans []span) (self, exposed map[uint64]time.Duration) {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = make(map[uint64]time.Duration, len(spans))
	exposed = make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		// Stable: siblings that start together keep the order they
		// were recorded in.
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				exposed[k.ID] = time.Duration(hi - lo)
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self, exposed
}

// medianOp is the anatomy of the median operation of one kind: over
// the ops (root spans named root) whose length lies between the 40th
// and 60th percentile, the mean length, the mean self time and the mean
// exposed and full time of each phase (child span) by name, in ms.
// Per op the parts sum to the whole, so these means do too.
type medianOp struct {
	n              int
	total, self    float64
	exposed, whole map[string]float64
}

func medianOpOf(spans []span, root string) medianOp {
	self, exposed := coverage(spans)
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].End-roots[i].Start < roots[j].End-roots[j].Start })
	band := roots[len(roots)*2/5 : (len(roots)*3+4)/5]
	mo := medianOp{n: len(band), exposed: make(map[string]float64), whole: make(map[string]float64)}
	if mo.n == 0 {
		return mo
	}
	in := make(map[uint64]bool, len(band))
	for _, s := range band {
		in[s.ID] = true
		mo.total += ms(time.Duration(s.End - s.Start))
		mo.self += ms(self[s.ID])
	}
	for _, s := range spans {
		if in[s.Parent] {
			mo.exposed[s.Name] += ms(exposed[s.ID])
			mo.whole[s.Name] += ms(time.Duration(s.End - s.Start))
		}
	}
	n := float64(mo.n)
	mo.total /= n
	mo.self /= n
	for name := range mo.exposed {
		mo.exposed[name] /= n
		mo.whole[name] /= n
	}
	return mo
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
