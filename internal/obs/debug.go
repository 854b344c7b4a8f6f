package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"time"

	ftrace "repro/internal/obs/trace"
)

// published guards against double-Publish of the same expvar name (expvar
// panics on duplicates, and tests may wire several sinks in one process).
var (
	publishMu sync.Mutex
	published = map[string]*expvar.Func{}
	current   = map[string]*Sink{}
)

// Publish exposes the sink's live Report as an expvar under name. Publishing
// the same name again rebinds it to the new sink (the expvar layer keeps one
// Func; the Func reads whichever sink is current).
func (s *Sink) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	current[name] = s
	if published[name] != nil {
		return
	}
	f := expvar.Func(func() any {
		publishMu.Lock()
		sink := current[name]
		publishMu.Unlock()
		return sink.Report()
	})
	published[name] = &f
	expvar.Publish(name, f)
}

// shutdownTimeout bounds how long Close waits for in-flight handlers before
// force-closing their connections. Live trace captures watch the quit channel,
// so they abort well inside this window.
const shutdownTimeout = 5 * time.Second

// DebugServer is a live pprof/expvar endpoint for the long-running CLIs.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	Addr string // concrete listen address (resolves ":0")

	quit chan struct{} // closed by Close; long-running handlers must watch it
	// waiting gets one token (dropped when full, so the handler never blocks
	// on it) each time a live capture starts its wait; tests sync on it.
	waiting chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// ServeDebug starts an HTTP server on addr exposing:
//
//	/debug/pprof/...           the standard net/http/pprof profile endpoints
//	/debug/vars                expvar (including the published "cypress" report)
//	/debug/obs                 the sink's Report with the recorder's spans, as indented JSON
//	/debug/cypress/trace?sec=N a live flight-recorder capture
//
// The server runs on its own goroutine until Close. The sink may be nil;
// pprof endpoints still work (the process can always be profiled), /debug/obs
// then serves an empty report. The capture endpoint marks the recorder's
// current time, waits N seconds (default 1, capped at 60), and serves the
// events recorded since the mark as Chrome trace-event JSON — a window into
// the running pipeline, loadable in Perfetto. With a nil recorder it answers
// 404. The wait aborts early when the server is closed, so a pending capture
// never stalls Close.
func ServeDebug(addr string, s *Sink, rec *ftrace.Recorder) (*DebugServer, error) {
	s.Publish("cypress")
	quit := make(chan struct{})
	waiting := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reportOf(s, rec).WriteJSON(w)
	})
	mux.HandleFunc("/debug/cypress/trace", func(w http.ResponseWriter, r *http.Request) {
		if !rec.Enabled() {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		sec := 1
		if v := r.URL.Query().Get("sec"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad sec=%q", v), http.StatusBadRequest)
				return
			}
			sec = n
		}
		if sec > 60 {
			sec = 60
		}
		since := rec.Now()
		if sec > 0 {
			t := time.NewTimer(time.Duration(sec) * time.Second)
			defer t.Stop()
			select {
			case waiting <- struct{}{}:
			default:
			}
			select {
			case <-t.C:
			case <-quit:
				http.Error(w, "debug server closing", http.StatusServiceUnavailable)
				return
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rec.WriteChromeJSONSince(w, since)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{
		srv:     &http.Server{Handler: mux},
		ln:      ln,
		Addr:    ln.Addr().String(),
		quit:    quit,
		waiting: waiting,
	}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Close shuts the debug server down gracefully: it stops accepting new
// connections, signals long-running handlers (live trace captures) to abort,
// and waits up to shutdownTimeout for in-flight requests to drain before
// force-closing whatever remains. Safe to call more than once.
func (d *DebugServer) Close() error {
	d.closeOnce.Do(func() {
		close(d.quit)
		// Close the listener directly: Shutdown only closes listeners the
		// serve goroutine has already registered, so shutting down right
		// after ServeDebug returns could otherwise leave the port bound.
		_ = d.ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := d.srv.Shutdown(ctx)
		if errors.Is(err, net.ErrClosed) {
			// Shutdown drained every handler and then reported that its own
			// close of the listener, closed above, came second. Which close
			// wins depends on whether the serve goroutine has already seen
			// the first one and let go of the listener.
			err = nil
		}
		if err != nil {
			// Deadline hit with handlers still running: sever them.
			if cerr := d.srv.Close(); err == context.DeadlineExceeded && cerr != nil {
				err = cerr
			}
		}
		d.closeErr = err
	})
	return d.closeErr
}

// reportOf snapshots s with rec's totals as its spans table.
func reportOf(s *Sink, rec *ftrace.Recorder) *Report {
	r := s.Report()
	r.Spans = rec.Totals()
	return r
}

// Capture switches observability on for one run of a command, as its
// -stats, -trace and -debug.addr flags ask, and returns the function that
// switches it off again. stats or debugAddr attach a fresh sink, any of the
// three attaches a flight recorder (the one clock the report's spans table
// and the live capture endpoint read), and debugAddr serves both through
// ServeDebug. The command defers stop, which writes the text report to
// report when stats is set (a nil report leaves the reporting to the
// caller), closes the debug server, writes the recorder's capture to
// tracePath as Chrome trace-event JSON when one is named, and detaches both.
// What Capture and stop print goes to stderr, prefixed with cmd.
func Capture(cmd string, stderr io.Writer, stats bool, tracePath, debugAddr string) (stop func(report io.Writer), err error) {
	var sink *Sink
	if stats || debugAddr != "" {
		sink = New()
	}
	var rec *ftrace.Recorder
	if sink != nil || tracePath != "" {
		rec = ftrace.New(0)
	}
	var srv *DebugServer
	if debugAddr != "" {
		if srv, err = ServeDebug(debugAddr, sink, rec); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "%s: debug server on http://%s/debug/pprof/\n", cmd, srv.Addr)
	}
	Attach(sink, rec)
	return func(report io.Writer) {
		if stats && report != nil {
			fmt.Fprintln(report)
			reportOf(sink, rec).WriteText(report)
		}
		if srv != nil {
			srv.Close()
		}
		if tracePath != "" {
			if err := writeChromeFile(rec, tracePath); err != nil {
				fmt.Fprintf(stderr, "%s: -trace: %v\n", cmd, err)
			} else {
				fmt.Fprintf(stderr, "%s: flight-recorder trace: %d events (%d dropped) -> %s\n",
					cmd, rec.Total(), rec.Drops(), tracePath)
			}
		}
		Attach(nil, nil)
	}, nil
}

// writeChromeFile exports rec to path as Chrome trace-event JSON.
func writeChromeFile(rec *ftrace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
