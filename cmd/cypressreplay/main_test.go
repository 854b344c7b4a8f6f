package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/merge"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

const goldenDir = "../../internal/merge/testdata/golden"

// modes are the four reports the command prints, by the name they carry in
// testdata/stdout_pin.txt.
var modes = []struct {
	name string
	args []string
}{
	{"rank3", []string{"-rank", "3", "-limit", "0"}},
	{"rankall", []string{"-rank", "all", "-limit", "0"}},
	{"matrix", []string{"-matrix"}},
	{"predict", []string{"-predict"}},
}

// cli runs the command in process and returns what it printed and its exit
// status.
func cli(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// stdoutPins reads testdata/stdout_pin.txt: "fixture mode" -> "sha256 bytes".
func stdoutPins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/stdout_pin.txt")
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] == "#" {
			continue
		}
		pins[f[0]+" "+f[1]] = f[2] + " " + f[3]
	}
	return pins
}

// TestStdoutPinned holds every report to the stdout the command printed
// before its materializing branches were deleted (the table was captured from
// that binary, whose default and -stream paths agreed), over the golden
// fixtures as plain, indexed and CYPB-blocked files and at two -par values:
// the container, the projection and the worker count never show in the output.
func TestStdoutPinned(t *testing.T) {
	pins := stdoutPins(t)
	for _, fixture := range []string{"jacobi7", "jacobi64"} {
		plain := filepath.Join(goldenDir, fixture+".cyp")
		data, err := os.ReadFile(plain)
		if err != nil {
			t.Fatal(err)
		}
		m, err := merge.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var blocked bytes.Buffer
		if _, err := m.EncodeBlocked(&blocked, 1); err != nil {
			t.Fatal(err)
		}
		cypb := filepath.Join(t.TempDir(), fixture+".cypb")
		if err := os.WriteFile(cypb, blocked.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files := []string{plain, filepath.Join(goldenDir, fixture+".cypi"), cypb}
		for _, mode := range modes {
			want, ok := pins[fixture+" "+mode.name]
			if !ok {
				t.Fatalf("no pin for %s %s", fixture, mode.name)
			}
			for _, file := range files {
				for _, par := range []string{"1", "4"} {
					args := append([]string{"-par", par}, mode.args...)
					stdout, stderr, status := cli(append(args, file)...)
					if status != 0 {
						t.Fatalf("%v %s: exit %d: %s", args, file, status, stderr)
					}
					got := fmt.Sprintf("%x %d", sha256.Sum256([]byte(stdout)), len(stdout))
					if got != want {
						head := strings.SplitAfterN(stdout, "\n", 6)
						t.Errorf("%v %s: stdout is %s, pinned %s; it begins:\n%s",
							args, file, got, want, strings.Join(head[:len(head)-1], ""))
					}
				}
			}
		}
	}
}

// TestUsageErrors: a rank the trace does not have and the deleted -stream
// flag are usage errors (exit 2), not replay failures.
func TestUsageErrors(t *testing.T) {
	file := filepath.Join(goldenDir, "jacobi7.cyp")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rank", "7", file}, "rank 7 out of range [0,7)"},
		{[]string{"-rank", "1000000", file}, "out of range [0,7)"},
		{[]string{"-stream", "-rank", "3", file}, "flag provided but not defined: -stream"},
	} {
		_, stderr, status := cli(tc.args...)
		if status != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, status, stderr, tc.want)
		}
	}
}

// TestStatsAndTraceCapture drives -stats and -trace through run: the stderr
// report must show the decode, replay and simulation layers reporting, the
// capture must be a valid drop-free Chrome trace, and nothing may stay
// attached after the command returns.
func TestStatsAndTraceCapture(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "capture.json")
	stdout, stderr, status := cli("-stats", "-trace", capture, "-predict", filepath.Join(goldenDir, "jacobi7.cyp"))
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	if !strings.Contains(stdout, "predicted execution time") {
		t.Errorf("no prediction on stdout:\n%s", stdout)
	}
	for _, key := range []string{"dec_traces", "replay_events_emitted", "sim_events_processed"} {
		m := regexp.MustCompile(`(?m)^\s+` + key + `\s+(\d+)$`).FindStringSubmatch(stderr)
		if m == nil || m[1] == "0" {
			t.Errorf("-stats report has no non-zero %s:\n%s", key, stderr)
		}
	}
	f, err := os.Open(capture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ftrace.ReadChromeJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(true); err != nil {
		t.Error(err)
	}
	if len(c.Events) == 0 {
		t.Error("capture recorded no events")
	}
	if obs.Attached() != nil || obs.AttachedRecorder() != nil {
		t.Error("sink or recorder still attached after run returned")
	}
}
