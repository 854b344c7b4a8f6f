// Command cypressarchive manages a content-addressed corpus of merged
// CYPRESS traces (internal/corpus): runs with identical communication
// structure share one stored structure stream, and each additional run
// costs only a compressed payload delta. Reconstruction is byte-identical
// to the ingested standalone encoding.
//
// Usage:
//
//	cypressarchive -dir corpus add run1.cyp run2.cyp   # ingest trace files
//	cypressarchive -dir corpus ls                      # list content hashes
//	cypressarchive -dir corpus get HASH [-o out.cyp]   # reconstruct exact bytes
//	cypressarchive -dir corpus stats                   # corpus totals as JSON
//	cypressarchive -dir corpus rm HASH                 # tombstone a trace
//	cypressarchive -dir corpus gc                      # compact, drop tombstones
//
// add accepts any container cypresstrace writes: bare CYPR streams are
// ingested verbatim; gzip and CYPB block containers are decoded and
// re-encoded canonically first (the corpus stores exact bytes, so the
// canonical form is what get later reproduces). Hashes are printed and
// parsed as 16 hex digits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	cypress "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cypressarchive:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cypressarchive -dir DIR COMMAND
commands:
  add FILE...                     ingest trace files
  ls                              list content hashes
  get HASH [-o FILE]              reconstruct a trace's exact bytes
  get HASH -rank N [-limit N]     print one rank's decompressed events
  stats                           corpus totals as JSON
  rm HASH                         tombstone a trace
  gc                              compact, drop tombstones`)
	os.Exit(2)
}

func main() {
	dir := flag.String("dir", "", "corpus directory (created on first add)")
	cacheBytes := flag.Int64("cache", 0, "decoded-trace cache budget in bytes (0 = default)")
	traceFile := flag.String("trace", "", "capture a flight-recorder timeline of the command and write Chrome trace-event JSON to this file (load in Perfetto)")
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		usage()
	}
	stop, err := obs.Capture("cypressarchive", os.Stderr, false, *traceFile, "")
	if err != nil {
		fail(err)
	}
	defer stop(os.Stderr)

	c, err := cypress.OpenCorpus(*dir, cypress.CorpusOptions{CacheBytes: *cacheBytes})
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			fail(err)
		}
	}()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "add":
		if len(args) == 0 {
			usage()
		}
		for _, path := range args {
			id, err := addFile(c, path)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%016x  %s\n", id, path)
		}
	case "ls":
		for _, id := range c.Hashes() {
			fmt.Printf("%016x\n", id)
		}
	case "get":
		fs := flag.NewFlagSet("get", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		rank := fs.Int("rank", -1, "print this rank's decompressed events instead of trace bytes (rank-projected decode)")
		limit := fs.Int("limit", 50, "with -rank: max events to print (0 = all)")
		var hash string
		if len(args) > 0 && args[0][0] != '-' {
			hash, args = args[0], args[1:]
		}
		fs.Parse(args)
		if hash == "" && fs.NArg() == 1 {
			hash = fs.Arg(0)
		}
		if hash == "" {
			usage()
		}
		if *rank >= 0 {
			if err := getRank(c, parseHash(hash), *rank, *limit); err != nil {
				fail(err)
			}
			return
		}
		enc, err := c.GetBytes(parseHash(hash))
		if err != nil {
			fail(err)
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if _, err := w.Write(enc); err != nil {
			fail(err)
		}
	case "stats":
		st, err := c.Stats()
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fail(err)
		}
	case "rm":
		if len(args) != 1 {
			usage()
		}
		if err := c.Delete(parseHash(args[0])); err != nil {
			fail(err)
		}
	case "gc":
		if err := c.GC(); err != nil {
			fail(err)
		}
	default:
		usage()
	}
}

// addFile ingests one trace file. A bare CYPR stream is stored verbatim;
// gzip and CYPB containers are opened and ingested as a trace, which the
// corpus stores in its canonical standalone encoding: the byte-identity
// contract covers exactly the bytes the corpus was handed.
func addFile(c *cypress.Corpus, path string) (cypress.TraceID, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if bytes.HasPrefix(data, []byte("CYPR")) {
		return c.IngestBytes(data)
	}
	res, err := cypress.OpenTrace(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return c.Ingest(res)
}

// getRank serves one rank's event sequence through the rank-projected decode
// path: only the selected rank's timing payloads are materialized, matching
// cypressreplay -rank's output format.
func getRank(c *cypress.Corpus, id cypress.TraceID, rank, limit int) error {
	res, release, err := c.GetProjected(id, rank)
	if err != nil {
		return err
	}
	defer release()
	if rank >= res.Merged.NumRanks {
		fmt.Fprintf(os.Stderr, "cypressarchive: rank %d out of range [0,%d)\n", rank, res.Merged.NumRanks)
		os.Exit(2)
	}
	fmt.Printf("trace: ranks=%d events=%d cst-vertices=%d\n",
		res.Merged.NumRanks, res.Merged.EventCount, res.Merged.Tree.NumVertices())
	printed := 0
	return res.Streamer().Replay(rank, func(e *trace.Event) {
		if limit > 0 && printed >= limit {
			return
		}
		fmt.Printf("  %6d: %s dur=%.0fns\n", printed, e.String(), e.DurationNS)
		printed++
	})
}

func parseHash(s string) cypress.TraceID {
	var h uint64
	// A malformed hash is a usage error (exit 2, like a bad -rank in
	// cypressreplay), not a runtime failure.
	if _, err := fmt.Sscanf(s, "%x", &h); err != nil || len(s) != 16 {
		fmt.Fprintf(os.Stderr, "cypressarchive: bad hash %q: want 16 hex digits\n", s)
		os.Exit(2)
	}
	return h
}
