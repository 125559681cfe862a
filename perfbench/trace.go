package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory: name, start, end, the span that caused
// it, and the sweep or request it belongs to. It is safe for the runner's
// worker goroutines to record into concurrently.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`     // sweep or request id
	Parent int           `json:"parent"` // index of the causing span, -1 at the root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

const noParent = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, id string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name, id string, parent int, fn func()) {
	i := t.begin(name, id, parent)
	fn()
	t.end(i)
}

// layer sums the spans of one name: count, total and self time (a span
// minus the part of its interval its children cover).
type layer struct {
	n          int
	total, own time.Duration
}

func (t *tracer) layers() map[string]layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layer)
	for i, s := range t.spans {
		l := out[s.Name]
		l.n++
		l.total += s.End - s.Start
		l.own += s.End - s.Start - covered(s, children[i])
		out[s.Name] = l
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, reach time.Duration
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			sum += v[1] - lo
		}
		reach = max(reach, v[1])
	}
	return sum
}

// write saves the spans as NDJSON under dir and returns the file's path.
func (t *tracer) write(dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return p, f.Close()
}

// finishTrace writes the spans and prints where they went and the
// tracing overhead: the traced sweep time next to the untraced median.
func finishTrace(e env, workload string, tr *tracer, traced, untraced float64) error {
	p, err := tr.write(e.tmp, fmt.Sprintf("trace-%s-%d.ndjson", workload, e.seed))
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), p)
	fmt.Printf("tracing overhead: traced sweep_s %.4f, untraced median sweep_s %.4f (%+.1f%%)\n",
		traced, untraced, 100*(traced/untraced-1))
	return nil
}
