package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around its calls into each
// layer's public functions, kept in memory per client (no locking on
// the hot path), and written out when the run ends.

type span struct {
	name   string
	req    int64 // request ID: client<<32 | sequence number
	parent int   // index of the parent span in the same buffer, -1 for a root
	start  time.Duration
	end    time.Duration
}

// spanBuf is one client's span log. Times are offsets from a base
// shared by every client of the run.
type spanBuf struct {
	client int
	base   time.Time
	spans  []span
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, req int64, parent int) int {
	b.spans = append(b.spans, span{name: name, req: req, parent: parent, start: time.Since(b.base)})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) { b.spans[i].end = time.Since(b.base) }

// globalID makes a span index unique across clients.
func (b *spanBuf) globalID(i int) int64 {
	if i < 0 {
		return -1
	}
	return int64(b.client)<<32 | int64(i)
}

// spanTotals sums, per span name, the spans' self time (duration minus
// the part of the interval their children cover) and their duration.
func spanTotals(bufs []*spanBuf) (self, total map[string]time.Duration) {
	self, total = map[string]time.Duration{}, map[string]time.Duration{}
	for _, b := range bufs {
		children := make([][]int, len(b.spans))
		for i, s := range b.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], i)
			}
		}
		for i, s := range b.spans {
			total[s.name] += s.end - s.start
			self[s.name] += s.end - s.start - covered(b.spans, s, children[i])
		}
	}
	return self, total
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(spans []span, parent span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			reach = v.hi
		}
	}
	return total
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		for i, s := range b.spans {
			rec := struct {
				Name    string `json:"name"`
				ID      int64  `json:"id"`
				Parent  int64  `json:"parent"`
				Request int64  `json:"request"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{s.name, b.globalID(i), b.globalID(s.parent), s.req, int64(s.start), int64(s.end)}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
