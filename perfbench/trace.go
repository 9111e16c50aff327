package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxKeptSpans bounds the spans one tracer keeps for the span file. A
// simulated fleet day makes millions of Regulate calls; past this cap a
// span still feeds the per-layer totals, but its record is counted as
// dropped instead of kept.
const maxKeptSpans = 200_000

// span is one timed call into a layer, in nanoseconds since the trace began.
type span struct {
	layer  int32
	parent int32 // index of the enclosing kept span, -1 at the top
	id     int64 // session or arrival id, -1 when the call serves none
	start  int64
	end    int64
}

// frame is an open span on a lane's stack.
type frame struct {
	layer   int32
	kept    int32 // index in spans, -1 when dropped
	id      int64
	start   int64
	childNs int64
}

// layerStat accumulates one layer's calls, total and self time. Self time is
// the span's duration minus the time its child spans cover.
type layerStat struct {
	calls   int64
	totalNs int64
	selfNs  int64
}

// tracer records nested spans for one goroutine, in memory. A nil *tracer
// is the untraced run: every method returns at once. Callers resolve a layer
// name to its index once (layer) and open spans by index (beginAt), so a
// span costs two clock reads and no map lookup.
type tracer struct {
	t0      time.Time
	names   []string
	index   map[string]int32
	stats   []layerStat
	stack   []frame
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: map[string]int32{}}
}

func (t *tracer) layer(name string) int32 {
	if t == nil {
		return -1
	}
	if id, ok := t.index[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = id
	t.stats = append(t.stats, layerStat{})
	return id
}

func (t *tracer) beginAt(layer int32, id int64) {
	if t == nil {
		return
	}
	f := frame{layer: layer, kept: -1, id: id, start: int64(time.Since(t.t0))}
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		f.kept = int32(len(t.spans))
		t.spans = append(t.spans, span{layer: layer, parent: parent, id: id, start: f.start})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	st := &t.stats[f.layer]
	st.calls++
	st.totalNs += dur
	st.selfNs += dur - f.childNs
	if f.kept >= 0 {
		t.spans[f.kept].end = now
	}
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
}

// layerSummary is one layer's totals, merged across tracers.
type layerSummary struct {
	Calls  int64
	TotalS float64
	SelfS  float64
}

// summarize merges the per-layer totals of several tracers (one per
// goroutine) by layer name.
func summarize(ts ...*tracer) map[string]layerSummary {
	out := map[string]layerSummary{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i, name := range t.names {
			st := t.stats[i]
			s := out[name]
			s.Calls += st.calls
			s.TotalS += float64(st.totalNs) / 1e9
			s.SelfS += float64(st.selfNs) / 1e9
			out[name] = s
		}
	}
	return out
}

// writeSpans writes the kept spans of every tracer as tab-separated lines
// (lane, index, parent, layer, id, start_ns, end_ns) and returns the number
// of spans written and dropped.
func writeSpans(path string, ts ...*tracer) (kept, dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane\tspan\tparent\tlayer\tid\tstart_ns\tend_ns")
	for lane, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", lane, i, s.parent, t.names[s.layer], s.id, s.start, s.end)
		}
		kept += int64(len(t.spans))
		dropped += t.dropped
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, 0, err
	}
	return kept, dropped, f.Close()
}
