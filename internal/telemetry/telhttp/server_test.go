package telhttp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pacifier/internal/telemetry"
)

// newTestServer builds a Server over a fresh registry and fleet, mounted
// on an httptest instance.
func newTestServer(t *testing.T) (*Server, *telemetry.Registry, *telemetry.Fleet, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	fleet := telemetry.NewFleet()
	s := NewServer(reg, fleet)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, reg, fleet, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestHealthAndReadyEndpoints: /healthz is always 200; /readyz is not
// routed, since no process the server runs in can be not-ready.
func TestHealthAndReadyEndpoints(t *testing.T) {
	_, _, _, ts := newTestServer(t)
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/readyz: %d, want 404 (not routed)", resp.StatusCode)
	}
}

// TestMetricsEndpoint: correct content type, application counters and
// runtime gauges present, output lint-clean.
func TestMetricsEndpoint(t *testing.T) {
	_, reg, _, ts := newTestServer(t)
	reg.Counter("pacifier_test_hits_total", "Hits.").Add(5)
	reg.Histogram("pacifier_test_lat", "Latency.").Observe(9)

	resp, body := get(t, ts.URL+"/metrics")
	if got := resp.Header.Get("Content-Type"); got != telemetry.PromContentType {
		t.Errorf("content type = %q, want %q", got, telemetry.PromContentType)
	}
	for _, want := range []string{
		"pacifier_test_hits_total 5",
		`pacifier_test_lat_bucket{le="+Inf"} 1`,
		"go_goroutines",
		"go_heap_alloc_bytes",
		"process_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := telemetry.LintProm([]byte(body)); err != nil {
		t.Errorf("/metrics output fails linter: %v\n%s", err, body)
	}
}

// TestFleetEndpoint: /api/fleet returns the JSON snapshot.
func TestFleetEndpoint(t *testing.T) {
	_, _, fleet, ts := newTestServer(t)
	id := fleet.Add("fft/p16", "abc123")
	fleet.Start(id)
	fleet.Finish(id, telemetry.StateDone, 30*time.Millisecond, "")

	resp, body := get(t, ts.URL+"/api/fleet")
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("content type = %q", got)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Total != 1 || snap.Done != 1 {
		t.Errorf("snapshot = %+v, want 1 job done", snap)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].Label != "fft/p16" || snap.Jobs[0].Hash != "abc123" {
		t.Errorf("job view wrong: %+v", snap.Jobs)
	}
}

// sseEvent is one parsed SSE frame from /api/fleet/stream.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses n `event:`-bearing frames off an SSE stream.
func readSSE(t *testing.T, r io.Reader, n int) []sseEvent {
	t.Helper()
	scanner := bufio.NewScanner(r)
	var out []sseEvent
	var cur sseEvent
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
				if len(out) == n {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	t.Fatalf("stream ended after %d/%d events: %v", len(out), n, scanner.Err())
	return nil
}

// TestFleetStreamDeliversTransitionsInOrder is the end-to-end SSE test:
// a client connected over HTTP sees every job-state transition as an
// `event: job` frame, in fleet sequence order — history replayed first,
// then live updates — with each job's lifecycle states in order.
func TestFleetStreamDeliversTransitionsInOrder(t *testing.T) {
	_, _, fleet, ts := newTestServer(t)

	// Two transitions happen before the client connects (history)...
	a := fleet.Add("fft/p16", "h1")
	fleet.Start(a)

	resp, err := http.Get(ts.URL + "/api/fleet/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("content type = %q", got)
	}

	// ...and three more while it is connected (live).
	go func() {
		fleet.Finish(a, telemetry.StateDone, time.Millisecond, "")
		b := fleet.Add("lu/p16", "h2")
		fleet.Start(b)
		fleet.Finish(b, telemetry.StateFailed, time.Millisecond, "boom")
	}()

	events := readSSE(t, resp.Body, 6)
	var lastSeq int64
	var states []telemetry.JobState
	for _, e := range events {
		if e.event != "job" {
			t.Errorf("event type %q, want job", e.event)
		}
		var u telemetry.JobUpdate
		if err := json.Unmarshal([]byte(e.data), &u); err != nil {
			t.Fatalf("bad event payload %q: %v", e.data, err)
		}
		if u.Seq != lastSeq+1 {
			t.Fatalf("out-of-order: seq %d after %d", u.Seq, lastSeq)
		}
		lastSeq = u.Seq
		states = append(states, u.State)
	}
	want := []telemetry.JobState{telemetry.StateQueued, telemetry.StateRunning, telemetry.StateDone, telemetry.StateQueued, telemetry.StateRunning, telemetry.StateFailed}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s (full: %v)", i, states[i], want[i], states)
		}
	}
	if fe := events[len(events)-1]; !strings.Contains(fe.data, "boom") {
		t.Errorf("failure update lacks error text: %s", fe.data)
	}
}

// TestSlowSubscriberDropAccounting pins the fleet's slow-consumer
// contract behind the SSE feed: a subscriber that never drains its
// channel loses exactly the updates beyond its buffer — each counted in
// pacifier_fleet_sse_dropped_total — while what it did receive, and the
// full history replayed to any later subscriber (including one arriving
// over HTTP after the drops), stays gap-free and in sequence order.
func TestSlowSubscriberDropAccounting(t *testing.T) {
	// The drop counter lives in the process-global registry and resolves
	// at fleet construction, so enable telemetry before the fleet exists.
	telemetry.Enable()
	_, _, fleet, ts := newTestServer(t)
	dropped := telemetry.C("pacifier_fleet_sse_dropped_total",
		"SSE updates dropped on slow subscribers.")
	before := dropped.Value()

	// Never drained; the requested buffer of 1 clamps to history(0)+64.
	slow, cancelSlow := fleet.Subscribe(1)
	defer cancelSlow()

	const jobs = 50 // 3 transitions each: 150 updates >> the slow buffer
	for i := 0; i < jobs; i++ {
		id := fleet.Add(fmt.Sprintf("job%d/p4", i), "h")
		fleet.Start(id)
		fleet.Finish(id, telemetry.StateDone, time.Millisecond, "")
	}
	total := int64(3 * jobs)

	wantDrops := total - int64(cap(slow))
	if wantDrops <= 0 {
		t.Fatalf("test vacuous: %d updates fit the %d-slot buffer", total, cap(slow))
	}
	if got := dropped.Value() - before; got != wantDrops {
		t.Fatalf("dropped counter advanced by %d, want %d", got, wantDrops)
	}
	// What the slow subscriber did get is the uninterrupted prefix.
	for i := int64(1); i <= int64(cap(slow)); i++ {
		u := <-slow
		if u.Seq != i {
			t.Fatalf("slow subscriber saw seq %d at position %d", u.Seq, i)
		}
	}

	// Drops on one subscriber must not corrupt the history: a fresh SSE
	// client connecting over HTTP after the fact replays all updates,
	// in order, with no gaps.
	resp, err := http.Get(ts.URL + "/api/fleet/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, int(total))
	for i, e := range events {
		var u telemetry.JobUpdate
		if err := json.Unmarshal([]byte(e.data), &u); err != nil {
			t.Fatalf("bad event payload %q: %v", e.data, err)
		}
		if u.Seq != int64(i+1) {
			t.Fatalf("replay after drops out of order: seq %d at position %d", u.Seq, i+1)
		}
	}
	if got := dropped.Value() - before; got != wantDrops {
		t.Fatalf("history replay itself dropped updates: counter moved %d -> %d",
			wantDrops, got)
	}
}

// TestServeBindsAndStops exercises the standalone Serve helper on a
// kernel-assigned port.
func TestServeBindsAndStops(t *testing.T) {
	srv, addr, stop, err := Serve("127.0.0.1:0", telemetry.NewRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if srv == nil || addr == nil {
		t.Fatal("Serve returned nil server or address")
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz over real listener: %d", resp.StatusCode)
	}
	stop()
	if _, err := http.Get("http://" + addr.String() + "/healthz"); err == nil {
		t.Error("server still answering after stop")
	}
}
