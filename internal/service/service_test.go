package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/policy"
)

// tinySpec is a fast single-cell run used by the end-to-end tests.
func tinySpec() JobSpec {
	return JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
		DurationSec: 2, Rounds: 1, Seed: 7, Trace: true,
	}
}

func postJob(t *testing.T, url string, spec JobSpec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func waitTerminal(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, url+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if terminal(view.State) {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return JobView{}
}

// TestDaemonEndToEnd drives the full acceptance path over HTTP:
// submit → stream progress → fetch result + trace → resubmit the
// identical spec and get the byte-identical payload from the cache.
func TestDaemonEndToEnd(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 2})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(string(body), "true") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	// The registry is served with axes.
	if code, body := getBody(t, ts.URL+"/experiments"); code != 200 ||
		!strings.Contains(string(body), "fig8") || !strings.Contains(string(body), "axes") {
		t.Fatalf("experiments: %d %s", code, body)
	}
	// The scheme registry is served too: canonical names, aliases and
	// tunable axes, straight from policy.Infos.
	if code, body := getBody(t, ts.URL+"/schemes"); code != 200 ||
		!strings.Contains(string(body), "Ariadne") || !strings.Contains(string(body), "baseline") ||
		!strings.Contains(string(body), "HotThreshold") {
		t.Fatalf("schemes: %d %s", code, body)
	}

	first := postJob(t, ts.URL, tinySpec())
	if first.State == StateDone || first.Cached {
		t.Fatalf("first submission claims cached: %+v", first)
	}

	// Stream NDJSON progress to completion; the last line is terminal.
	resp, err := http.Get(ts.URL + "/jobs/" + first.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no stream events")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("terminal stream event %+v", last)
	}

	view := waitTerminal(t, ts.URL, first.ID)
	if view.State != StateDone || view.Completed != 1 || view.Total != 1 || !view.HasTrace {
		t.Fatalf("terminal view %+v", view)
	}

	code, result1 := getBody(t, ts.URL+"/jobs/"+first.ID+"/result")
	if code != 200 {
		t.Fatalf("result: %d %s", code, result1)
	}
	var rr RunResult
	if err := json.Unmarshal(result1, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Cells) != 1 || rr.Cells[0].FPS <= 0 || len(rr.Cells[0].Counters) == 0 {
		t.Fatalf("run result lacks per-cell counters: %+v", rr)
	}

	code, traceJSON := getBody(t, ts.URL+"/jobs/"+first.ID+"/trace")
	if code != 200 || !bytes.Contains(traceJSON, []byte("traceEvents")) {
		t.Fatalf("trace: %d (%d bytes)", code, len(traceJSON))
	}

	// Identical resubmission: answered from the cache, byte-identical.
	second := postJob(t, ts.URL, tinySpec())
	if second.ID == first.ID {
		t.Fatal("job IDs must be distinct")
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	code, result2 := getBody(t, ts.URL+"/jobs/"+second.ID+"/result")
	if code != 200 || !bytes.Equal(result1, result2) {
		t.Fatalf("cached payload differs (%d bytes vs %d)", len(result1), len(result2))
	}
	// The cached job's stream still resolves: one terminal event.
	resp, err = http.Get(ts.URL + "/jobs/" + second.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("cached stream empty")
	}
	resp.Body.Close()

	// The obs registry saw the hit.
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	snap := m.Metrics()
	if hits, _ := snap.Counter("service.cache.hits"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1\n%s", hits, metrics)
	}
	if misses, _ := snap.Counter("service.cache.misses"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	// A different spec (seed change) misses the cache.
	other := tinySpec()
	other.Seed = 8
	third := postJob(t, ts.URL, other)
	if third.Cached {
		t.Fatal("different seed hit the cache")
	}
	waitTerminal(t, ts.URL, third.ID)
}

// TestDaemonSSE: Accept: text/event-stream switches the stream to SSE
// framing.
func TestDaemonSSE(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	spec := tinySpec()
	spec.Trace = false
	view := postJob(t, ts.URL, spec)

	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+view.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "data: {") {
		t.Fatalf("not SSE-framed: %q", buf.String())
	}
}

// TestDaemonCancel cancels a many-round job mid-flight and asserts cell
// dispatch stopped: the job resolves "cancelled" with a strict subset
// of cells completed, and its payload is not cached.
func TestDaemonCancel(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	spec := JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
		DurationSec: 2, Rounds: 64, Seed: 3, Workers: 1,
	}
	view := postJob(t, ts.URL, spec)

	// Wait until at least one cell completed, so cancellation is
	// observable as "dispatch stopped partway".
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := m.Get(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/jobs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitTerminal(t, ts.URL, view.ID)
	if final.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	if final.Completed == 0 || final.Completed >= 64 {
		t.Fatalf("completed %d cells, want a strict subset", final.Completed)
	}
	// Result endpoint reports the terminal-but-empty condition.
	code, _ := getBody(t, ts.URL+"/jobs/"+view.ID+"/result")
	if code != http.StatusGone {
		t.Fatalf("result status %d, want 410", code)
	}
	// Cancelled payloads must not be cached: resubmitting runs afresh.
	again := postJob(t, ts.URL, spec)
	if again.Cached {
		t.Fatal("cancelled job polluted the cache")
	}
	m.Cancel(again.ID)
	waitTerminal(t, ts.URL, again.ID)
}

// TestDaemonExperimentJob runs a registered experiment through the
// daemon and checks the structured payload.
func TestDaemonExperimentJob(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	view := postJob(t, ts.URL, JobSpec{Kind: KindExperiment, Experiment: "table1", Fast: true, Rounds: 1})
	final := waitTerminal(t, ts.URL, view.ID)
	if final.State != StateDone {
		t.Fatalf("state %q (%s)", final.State, final.Error)
	}
	code, body := getBody(t, ts.URL+"/jobs/"+view.ID+"/result")
	if code != 200 {
		t.Fatalf("result %d", code)
	}
	var er ExperimentResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.ID != "table1" || er.Text == "" || er.Result == nil {
		t.Fatalf("experiment payload %+v", er)
	}
	// No trace for experiment jobs.
	if code, _ := getBody(t, ts.URL+"/jobs/"+view.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace status %d, want 404", code)
	}
}

// TestDaemonPolicySweepJob runs the registry-driven scheme sweep through
// the daemon: every registered scheme — the related-work SWAM and
// Ariadne included — must produce a cell on both devices and codecs.
func TestDaemonPolicySweepJob(t *testing.T) {
	if testing.Short() {
		t.Skip("28-cell sweep")
	}
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	view := postJob(t, ts.URL, JobSpec{Kind: KindExperiment, Experiment: "policy-sweep", Fast: true, Rounds: 1})
	final := waitTerminal(t, ts.URL, view.ID)
	if final.State != StateDone {
		t.Fatalf("state %q (%s)", final.State, final.Error)
	}
	code, body := getBody(t, ts.URL+"/jobs/"+view.ID+"/result")
	if code != 200 {
		t.Fatalf("result %d", code)
	}
	var er ExperimentResult
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	var sweep experiments.PolicySweepResult
	raw, _ := json.Marshal(er.Result)
	if err := json.Unmarshal(raw, &sweep); err != nil {
		t.Fatal(err)
	}
	want := len(policy.Names()) * 2 * 2 // scheme × device × codec
	if len(sweep.Cells) != want {
		t.Fatalf("sweep produced %d cells, want %d", len(sweep.Cells), want)
	}
	for _, name := range []string{"SWAM", "Ariadne"} {
		c := sweep.Cell("Pixel3", name, "lz4")
		if c == nil || c.FPS <= 0 {
			t.Fatalf("scheme %s missing from sweep: %+v", name, c)
		}
	}
}

// TestDaemonValidation: malformed and unknown specs get 400s, unknown
// jobs 404s.
func TestDaemonValidation(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	for _, body := range []string{
		`{`, // malformed JSON
		`{"kind":"run","device":"iPhone"}`,
		`{"kind":"experiment","experiment":"nope"}`,
		`{"kind":"run","bogus_field":1}`, // unknown field
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/trace", "/jobs/nope/stream"} {
		if code, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, code)
		}
	}
}

// TestManagerDrain: drain rejects new jobs and waits for in-flight ones.
func TestManagerDrain(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 2})
	view, err := m.Submit(JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
		DurationSec: 1, Rounds: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	v, err := m.Get(view.ID)
	if err != nil || v.State != StateDone {
		t.Fatalf("after drain: %+v, %v", v, err)
	}
	if _, err := m.Submit(JobSpec{Kind: KindRun}); err != ErrDraining {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestManagerQueueBounds: submissions beyond the queue cap are rejected
// with ErrQueueFull.
func TestManagerQueueBounds(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, MaxRunningJobs: 1, MaxQueuedJobs: 1})
	mk := func(seed int64) JobSpec {
		return JobSpec{
			Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
			DurationSec: 2, Rounds: 8, Seed: seed, Workers: 1,
		}
	}
	// Fill the running slot and the queue. Submissions race the first
	// job's start, so tolerate either job holding the running slot.
	var ids []string
	var full bool
	for seed := int64(1); seed <= 3; seed++ {
		view, err := m.Submit(mk(seed))
		if err != nil {
			if err == ErrQueueFull {
				full = true
				break
			}
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	if !full {
		t.Fatalf("queue never filled (accepted %d jobs)", len(ids))
	}
	for _, id := range ids {
		m.Cancel(id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprint() // keep fmt imported if assertions above change
}

// TestInternalCellsOversizedRange: a range far past the job's matrix
// is refused with 400 before anything sized by the request is
// allocated, and the worker keeps serving.
func TestInternalCellsOversizedRange(t *testing.T) {
	_, addr := workerAddr(t)
	body, _ := json.Marshal(shardRequest{Spec: tinySpec(), From: 0, To: 1 << 34, Version: codeVersion()})
	resp, err := http.Post("http://"+addr+internalCellsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized range: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized range: status %d", resp.StatusCode)
	}
}
