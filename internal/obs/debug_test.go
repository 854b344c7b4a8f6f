package obs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	ftrace "repro/internal/obs/trace"
)

// TestDebugServerCloseReleasesPort checks Close actually tears the listener
// down: the same concrete address must be immediately re-bindable, and a
// second Close must be a safe no-op.
func TestDebugServerCloseReleasesPort(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0", New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address %s not released after Close: %v", addr, err)
	}
	ln.Close()
}

// TestDebugServerCloseNoGoroutineLeak asserts the serve goroutine (and any
// handler goroutines) are gone after Close.
func TestDebugServerCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ds, err := ServeDebug("127.0.0.1:0", New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/obs", ds.Addr))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := ds.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+1 || time.Now().After(deadline) {
			if n > before+1 {
				t.Fatalf("goroutines leaked across Close: %d before, %d after", before, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugTraceEndpoint checks the live capture endpoint end to end: an
// instant window (sec=0) serves valid Chrome trace JSON of the events
// recorded since the mark, bad parameters answer 400, and without a recorder
// the endpoint answers 404.
func TestDebugTraceEndpoint(t *testing.T) {
	rec := ftrace.New(0)
	rec.Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, 1, 2)
	ds, err := ServeDebug("127.0.0.1:0", New(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/cypress/trace?sec=0", ds.Addr))
	if err != nil {
		t.Fatal(err)
	}
	c, perr := ftrace.ReadChromeJSON(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", resp.StatusCode)
	}
	if perr != nil {
		t.Fatalf("trace endpoint served unparseable JSON: %v", perr)
	}
	if err := c.Validate(false); err != nil {
		t.Fatalf("trace endpoint capture invalid: %v", err)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/cypress/trace?sec=banana", ds.Addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sec: status %d, want 400", resp.StatusCode)
	}

	noRec, err := ServeDebug("127.0.0.1:0", New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer noRec.Close()
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/cypress/trace", noRec.Addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recorder-less trace endpoint: status %d, want 404", resp.StatusCode)
	}
}

// TestCaptureDebugAddrServesLiveTrace: -debug.addr alone attaches a flight
// recorder, so the live capture endpoint answers without -trace, and
// /debug/obs carries the recorder's spans table.
func TestCaptureDebugAddrServesLiveTrace(t *testing.T) {
	var stderr bytes.Buffer
	stop, err := Capture("obstest", &stderr, false, "", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop(nil)
	addr, ok := strings.CutPrefix(strings.TrimSpace(stderr.String()), "obstest: debug server on http://")
	if !ok {
		t.Fatalf("no debug address on stderr: %q", stderr.String())
	}
	base := "http://" + strings.TrimSuffix(addr, "/debug/pprof/")
	AttachedRecorder().Begin(ftrace.CatMerge, ftrace.NamePair, 1).End(2, 0)

	resp, err := http.Get(base + "/debug/cypress/trace?sec=0")
	if err != nil {
		t.Fatal(err)
	}
	c, perr := ftrace.ReadChromeJSON(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint without -trace: status %d, want 200", resp.StatusCode)
	}
	if perr != nil {
		t.Fatalf("trace endpoint served unparseable JSON: %v", perr)
	}
	if err := c.Validate(false); err != nil {
		t.Fatalf("live capture invalid: %v", err)
	}

	resp, err = http.Get(base + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"spans"`) || !strings.Contains(string(body), `"pair"`) {
		t.Errorf("/debug/obs lacks the spans table: %s", body)
	}
}

// TestDebugServerCloseAbortsPendingCapture starts a long capture window and
// closes the server underneath it: the handler must abort promptly with 503
// instead of pinning Close for the full window.
func TestDebugServerCloseAbortsPendingCapture(t *testing.T) {
	rec := ftrace.New(0)
	ds, err := ServeDebug("127.0.0.1:0", New(), rec)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/cypress/trace?sec=60", ds.Addr))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 1024)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		done <- result{status: resp.StatusCode, body: sb.String()}
	}()

	select {
	case <-ds.waiting: // the handler is about to block on its 60 s window
	case r := <-done:
		t.Fatalf("capture request ended before its wait began: status %d, err %v", r.status, r.err)
	case <-time.After(5 * time.Second):
		t.Fatal("capture request never reached its wait")
	}
	start := time.Now()
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > shutdownTimeout {
		t.Fatalf("Close took %v; pending capture pinned it past the drain deadline", elapsed)
	}
	select {
	case r := <-done:
		if r.err == nil && r.status != http.StatusServiceUnavailable {
			t.Fatalf("pending capture finished with status %d (%q), want 503", r.status, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending capture request never completed after Close")
	}
}
