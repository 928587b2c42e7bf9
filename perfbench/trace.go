package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/obs"
)

// span is one timed crossing of a layer boundary. Spans of one request
// share its X-Malevade-Request-Id; Parent names the layer that caused it.
type span struct {
	ID        string    `json:"id"`
	Layer     string    `json:"layer"`
	Parent    string    `json:"parent,omitempty"`
	Path      string    `json:"path,omitempty"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	ReqBytes  int64     `json:"req_bytes,omitempty"`
	RespBytes int64     `json:"resp_bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: every method is a no-op, so workloads run the
// same code with tracing on or off.
type tracer struct {
	prefix string
	seq    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(prefix string) *tracer { return &tracer{prefix: prefix} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs one SDK call under a fresh request ID, recording the client's
// span around it. The SDK forwards the ID from the context, so server-side
// spans of the same call carry it too.
func (t *tracer) call(ctx context.Context, path string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	id := fmt.Sprintf("%s-%d", t.prefix, t.seq.Add(1))
	start := time.Now()
	err := fn(obs.WithRequestID(ctx, id))
	t.add(span{ID: id, Layer: "client", Path: path, Start: start, End: time.Now()})
	return err
}

// wrap records a span for every request the handler serves, keyed by the
// inbound request ID, with the body sizes that crossed the boundary.
func (t *tracer) wrap(layer, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(span{
			ID: r.Header.Get(obs.RequestIDHeader), Layer: layer, Parent: parent,
			Path: r.URL.Path, Start: start, End: time.Now(),
			ReqBytes: r.ContentLength, RespBytes: cw.n,
		})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isScoring reports whether a path is a scoring call (/v1/score, /v1/label).
func isScoring(path string) bool {
	return path == "/v1/score" || path == "/v1/label"
}

// spanStats are the per-layer figures the live spans give.
type spanStats struct {
	clientSelfMS  float64 // client span minus its first server-side hop
	gatewaySelfMS float64 // gateway span minus the replica spans inside it
	serverSpanMS  float64 // replica span
	retries       int     // replica spans beyond the first under one gateway span
	reqBytes      float64 // scoring request body, first hop
	respBytes     float64 // scoring response body, first hop
}

// analyze groups spans by request ID and derives each layer's self time.
func (t *tracer) analyze() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	type group struct {
		client, gateway *span
		servers         []span
	}
	groups := map[string]*group{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.ID == "" {
			continue // health probes and scrapes, not calls the loop made
		}
		g := groups[s.ID]
		if g == nil {
			g = &group{}
			groups[s.ID] = g
		}
		switch s.Layer {
		case "client":
			g.client = s
		case "gateway":
			g.gateway = s
		default:
			g.servers = append(g.servers, *s)
		}
	}
	var clientSelf, gatewaySelf, serverSpan, reqBytes, respBytes []float64
	var st spanStats
	for _, g := range groups {
		var serverSum time.Duration
		for _, s := range g.servers {
			serverSum += s.dur()
			serverSpan = append(serverSpan, inUnit(s.dur(), "ms"))
		}
		hop := serverSum
		if g.gateway != nil {
			gatewaySelf = append(gatewaySelf, inUnit(g.gateway.dur()-serverSum, "ms"))
			if len(g.servers) > 1 {
				st.retries += len(g.servers) - 1
			}
			hop = g.gateway.dur()
		}
		if g.client == nil {
			continue
		}
		clientSelf = append(clientSelf, inUnit(g.client.dur()-hop, "ms"))
		if !isScoring(g.client.Path) {
			continue
		}
		first := g.gateway
		if first == nil && len(g.servers) > 0 {
			first = &g.servers[0]
		}
		if first != nil {
			reqBytes = append(reqBytes, float64(first.ReqBytes))
			respBytes = append(respBytes, float64(first.RespBytes))
		}
	}
	st.clientSelfMS = mean(clientSelf)
	st.gatewaySelfMS = mean(gatewaySelf)
	st.serverSpanMS = mean(serverSpan)
	st.reqBytes = mean(reqBytes)
	st.respBytes = mean(respBytes)
	return st
}

// traceFile names the span dump of one traced run.
func traceFile(workDir, workload string, seed uint64) string {
	return filepath.Join(workDir, "trace", fmt.Sprintf("%s-%d.jsonl", workload, seed))
}
