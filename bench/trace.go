package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps the call, the program under test is not changed.
// A span's id is its position in the tracer plus one. Spans of one request
// (one Mine call, one replayed tick) share trace; parent is the span that
// caused this one, or 0 for a root. The struct holds no pointers, so the
// collector never scans the span buffer.
type span struct {
	parent, trace int32
	name          nameID
	start, end    int64 // ns since the tracer was made
}

type nameID uint16

// tracer keeps spans in memory until write is called at the end of the
// run, so that recording costs an append and two clock reads.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

// name interns a span name.
func (t *tracer) name(s string) nameID {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.names {
		if n == s {
			return nameID(i)
		}
	}
	t.names = append(t.names, s)
	return nameID(len(t.names) - 1)
}

// begin opens a span and returns its id.
func (t *tracer) begin(name nameID, parent, trace int32) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, trace: trace, name: name, start: now})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// reset drops the spans recorded so far; a traced mining run keeps only
// its last round, which is what it reports.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// layerTime is what one layer's spans add up to.
type layerTime struct {
	calls int64
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time the spans' children cover
}

// byName sums the recorded spans per name. Children of a span never
// overlap each other here (each is a synchronous call made by its parent),
// so self time is the span minus the sum of its children.
func (t *tracer) byName() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.end - s.start
	}
	sums := make([]layerTime, len(t.names))
	for i, s := range t.spans {
		lt := &sums[s.name]
		lt.calls++
		lt.total += time.Duration(s.end - s.start)
		lt.self += time.Duration(s.end - s.start - child[i+1])
	}
	out := map[string]layerTime{}
	for i, lt := range sums {
		out[t.names[i]] = lt
	}
	return out
}

// write stores every span as one CSV line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,parent,trace,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i+1, s.parent, s.trace, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
