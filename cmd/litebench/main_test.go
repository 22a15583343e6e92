package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lite/internal/bench"
)

// writeFeed records the given results as an on-disk feed and returns
// its path.
func writeFeed(t *testing.T, results ...bench.JSONResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "feed.json")
	if err := bench.WriteJSON(path, results); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportPassesMatchingFeed(t *testing.T) {
	tab, err := bench.Run("trace")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFeed(t, bench.NewJSONResult("trace", tab, time.Millisecond, nil))
	var out, errOut bytes.Buffer
	if code := compareReport(path, &out, &errOut); code != 0 {
		t.Fatalf("compareReport = %d on a fresh feed, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "trace") {
		t.Fatalf("no ok line for trace in %q", out.String())
	}
}

// TestCompareReportFailsRecordedError: a feed entry that recorded an
// experiment failure must fail the guard and name the recorded error,
// even when every other entry matches.
func TestCompareReportFailsRecordedError(t *testing.T) {
	tab, err := bench.Run("trace")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFeed(t,
		bench.NewJSONResult("trace", tab, time.Millisecond, nil),
		bench.NewJSONResult("lease", nil, time.Millisecond, errors.New("lease: cold connect took 0us")),
	)
	var out, errOut bytes.Buffer
	if code := compareReport(path, &out, &errOut); code == 0 {
		t.Fatalf("compareReport passed a feed with a recorded failure; stdout:\n%s", out.String())
	}
	if msg := errOut.String(); !strings.Contains(msg, "lease") || !strings.Contains(msg, "cold connect took 0us") {
		t.Fatalf("failure message %q does not name the entry and its recorded error", msg)
	}
}
