package obs

import (
	"fmt"
	"io"
	"os"

	ftrace "repro/internal/obs/trace"
)

// Capture switches observability on for one run of a command, as its -stats
// and -trace flags ask, and returns the function that switches it off again.
// stats attaches a fresh sink, and either flag attaches a flight recorder
// (the one clock the report's spans table reads). The command defers stop,
// which writes the text report to report when stats is set (a nil report
// leaves the reporting to the caller), writes the recorder's capture to
// tracePath as Chrome trace-event JSON when one is named, and detaches both.
// What stop prints goes to stderr, prefixed with cmd.
func Capture(cmd string, stderr io.Writer, stats bool, tracePath string) (stop func(report io.Writer)) {
	var sink *Sink
	if stats {
		sink = New()
	}
	var rec *ftrace.Recorder
	if stats || tracePath != "" {
		rec = ftrace.New(0)
	}
	Attach(sink, rec)
	return func(report io.Writer) {
		if stats && report != nil {
			r := sink.Report()
			r.Spans = rec.Totals()
			fmt.Fprintln(report)
			r.WriteText(report)
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
	}
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
