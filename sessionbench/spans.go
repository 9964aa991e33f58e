package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself records nothing). Times are nanoseconds
// since the recorder started.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Session int32  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write dumps them at exit. Single
// goroutine: the replay and the session loop are sequential.
type recorder struct {
	t0      time.Time
	session int32
	spans   []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now()}
}

// newSession starts a new span session ID for the calls that follow.
func (r *recorder) newSession() int32 {
	r.session++
	return r.session
}

// begin opens a span under parent (0 for none) and returns its ID.
func (r *recorder) begin(name string, parent int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Session: r.session, Name: name,
		Start: time.Since(r.t0).Nanoseconds()})
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (r *recorder) end(id int32) int64 {
	s := &r.spans[id-1]
	s.End = time.Since(r.t0).Nanoseconds()
	return s.End - s.Start
}

// selfTime is one span name's totals: inclusive time, and self time — the
// span's duration minus the part its child spans cover. Children of a
// span never overlap (every recorded call is sequential), so the covered
// part is the sum of the children's durations.
type selfTime struct {
	Name            string
	Count           int
	TotalNs, SelfNs int64
}

func (r *recorder) selfTimes() []selfTime {
	childNs := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - childNs[s.ID]
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

func (r *recorder) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range r.selfTimes() {
		fmt.Fprintf(w, "  %-34s %8d %12.3f %12.3f\n", st.Name, st.Count,
			float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
