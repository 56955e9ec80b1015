package main

import (
	"encoding/json"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent indexes the span that
// caused it (-1 for a root); Trace groups the spans of one attack or
// one campaign shard.
type span struct {
	Name   string
	Trace  int32
	Parent int32
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// recorder keeps every span of a traced run in memory; they are
// written out once the run ends. It is safe for concurrent use.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	traces []string
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// trace registers a trace id (one attack, one shard) by name.
func (r *recorder) trace(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces = append(r.traces, name)
	return int32(len(r.traces) - 1)
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, trace, parent int32) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: now, End: now})
	return int32(len(r.spans) - 1)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// add records an already-timed span (start and end as wall times).
func (r *recorder) add(name string, trace, parent int32, start, end time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return int32(len(r.spans) - 1)
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover. Children of one parent never overlap here: every
// traced caller waits for one call before making the next.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// encode writes one JSON object per span.
func (r *recorder) encode(enc *json.Encoder) error {
	self := r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	type line struct {
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Trace  string `json:"trace"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	for i, s := range r.spans {
		l := line{ID: i, Parent: s.Parent, Name: s.Name, Start: s.Start, End: s.End, Self: int64(self[i])}
		if s.Trace >= 0 {
			l.Trace = r.traces[s.Trace]
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}
