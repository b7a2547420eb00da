package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
)

// epoch anchors every span of this process on one timeline.
var epoch = time.Now()

// spanRec is one span the benchmark records itself, around a client call
// or a direct call into a layer: name, start, end, the span that caused
// it, and the unit it belongs to.
type spanRec struct {
	name       string
	unit       int
	parent     int // index into the same log; -1 = root
	start, end time.Duration
}

// spanLog is one goroutine's span buffer, kept in memory until the run
// ends. A nil log records nothing, which is the untraced run.
type spanLog struct{ spans []spanRec }

func (l *spanLog) open(name string, unit, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, spanRec{name: name, unit: unit, parent: parent, start: time.Since(epoch)})
	return len(l.spans) - 1
}

func (l *spanLog) close(i int) {
	if l != nil && i >= 0 {
		l.spans[i].end = time.Since(epoch)
	}
}

func (l *spanLog) add(name string, unit, parent int, start, end time.Time) {
	if l != nil {
		l.spans = append(l.spans, spanRec{name, unit, parent, start.Sub(epoch), end.Sub(epoch)})
	}
}

// timed runs fn under a span and returns how long it took.
func (l *spanLog) timed(name string, unit int, fn func()) time.Duration {
	start := time.Now()
	i := l.open(name, unit, -1)
	fn()
	l.close(i)
	return time.Since(start)
}

// writeSpans writes every log's spans as one JSON array. Span ids are
// "<log>:<index>" so parents resolve within a log.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[")
	first := true
	for li, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			if !first {
				w.WriteString(",")
			}
			first = false
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"%d:%d"`, li, s.parent)
			}
			fmt.Fprintf(w, "\n{\"id\":\"%d:%d\",\"parent\":%s,\"unit\":%d,\"name\":%q,\"start_us\":%.1f,\"end_us\":%.1f}",
				li, i, parent, s.unit, s.name, float64(s.start.Nanoseconds())/1e3, float64(s.end.Nanoseconds())/1e3)
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageNames are the lifecycle stages the program's own tracer (PR 9)
// records; the benchmark adds none.
var stageNames = []string{"parse", "submit", "ground", "solve", "validate", "commit", "answer", "exec"}

// stageSamples collects, per stage, the time one sampled unit spent in it
// according to the server's span tree.
type stageSamples struct{ us map[string][]float64 }

// addTrace folds one pulled span tree in: the stage times of the member
// whose submit started the unit's clock (actor), summed over rounds.
func (s *stageSamples) addTrace(tr obs.Trace, actor uint64) {
	sum := map[string]float64{}
	for _, sp := range tr.Spans {
		if actor == 0 || sp.Actor == actor {
			sum[sp.Name] += sp.DurMS * 1e3
		}
	}
	if s.us == nil {
		s.us = map[string][]float64{}
	}
	for name, v := range sum {
		s.us[name] = append(s.us[name], v)
	}
}

func (s *stageSamples) merge(o *stageSamples) {
	if o == nil {
		return
	}
	if s.us == nil {
		s.us = map[string][]float64{}
	}
	for name, v := range o.us {
		s.us[name] = append(s.us[name], v...)
	}
}

// addRecent folds in the server's ring of recently finished traces, for
// workloads whose client calls carry no handle to pull a trace by.
func (s *stageSamples) addRecent(n *node) {
	if n.spec.debug == "" {
		return
	}
	resp, err := http.Get("http://" + n.spec.debug + "/traces/recent")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var traces []obs.Trace
	if json.NewDecoder(resp.Body).Decode(&traces) != nil {
		return
	}
	for _, tr := range traces {
		s.addTrace(tr, 0)
	}
}

// report writes span.<stage>_us medians (0 for a stage the workload never
// enters) and the number of units sampled.
func (s *stageSamples) report(lm map[string]metric) {
	n := 0
	for _, name := range stageNames {
		lm["span."+name+"_us"] = metric{median(s.us[name]), "us"}
		if len(s.us[name]) > n {
			n = len(s.us[name])
		}
	}
	lm["span.sampled"] = metric{float64(n), "count"}
}

// budget compares the layer medians that lie on a unit's blocking path,
// summed, with the end-to-end median. What the layers do not explain —
// waiting for a run, a tick, a queue — is the gap. Reported, not required
// to close.
func budget(sp spec, lm map[string]metric, p50ms float64) {
	v := func(name string) float64 { return lm[name].Value }
	var sum float64
	if sp.isPair() {
		// Last member's submit and wait are two round trips; then compile,
		// the pair's two groundings, one solve, locks and the group commit.
		sum = 2*v("server.rtt_us") + v("sql.compile_us") + 2*v("eq.ground_us") + v("eq.solve_us") +
			2*v("lock.acquire_us") + 2*v("txn.commit_us")
		if sp.shards > 1 {
			// offer, prepare, vote, decide: four server-to-server trips.
			sum += v("dist.match_us") + 4*v("server.rtt_us")
		}
	} else {
		// One round trip; 3 of 10 statements write.
		sum = v("server.rtt_us") + v("sql.compile_us") + v("storage.probe_us") +
			0.3*(v("lock.acquire_us")+v("txn.commit_us"))
	}
	lm["budget_explained_us"] = metric{sum, "us"}
	lm["budget_gap_share"] = metric{1 - ratio(sum, p50ms*1e3), "ratio"}
}
