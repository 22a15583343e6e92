package bench

import (
	"encoding/json"
	"os"
	"time"

	"lite/internal/obs"
	"lite/internal/params"
)

// JSONHist is a histogram summary in the JSON feed.
type JSONHist struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	MinNs  int64  `json:"min_ns"`
	MaxNs  int64  `json:"max_ns"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// JSONMetrics is a metric snapshot in the JSON feed.
type JSONMetrics struct {
	Counters   map[string]int64 `json:"counters,omitempty"`
	Histograms []JSONHist       `json:"histograms,omitempty"`
}

// JSONResult is one experiment's machine-readable record: the table
// rows, the virtual duration the experiment simulated, the host wall
// time it took to simulate it (deliberately separate fields — one is
// the measurement, the other the cost of obtaining it), and the
// metric snapshot when collection was enabled.
type JSONResult struct {
	ID        string       `json:"id"`
	Title     string       `json:"title,omitempty"`
	Header    []string     `json:"header,omitempty"`
	Rows      [][]string   `json:"rows,omitempty"`
	Notes     []string     `json:"notes,omitempty"`
	VirtualNs int64        `json:"virtual_ns"`
	WallNs    int64        `json:"wall_ns"`
	Events    int64        `json:"events,omitempty"`
	Metrics   *JSONMetrics `json:"metrics,omitempty"`
	Error     string       `json:"error,omitempty"`
	// EventsPerSec is the simulator's speed in events per CPU second as
	// measured by the experiment (zero for experiments that don't
	// measure it).
	// Host-dependent: the bench guard compares it within a ±25% band,
	// unlike the exact virtual_ns comparison.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// JSONReport is the top-level BENCH_*.json document. Params snapshots
// the cost model the figures were produced under (durations in
// nanoseconds), so a recorded virtual-time number can never be read
// against the wrong calibration.
type JSONReport struct {
	Benchmark string         `json:"benchmark"`
	Params    *params.Config `json:"params,omitempty"`
	Results   []JSONResult   `json:"results"`
}

// NewJSONResult converts one experiment outcome into its JSON record.
func NewJSONResult(id string, tab *Table, wall time.Duration, err error) JSONResult {
	r := JSONResult{ID: id, WallNs: wall.Nanoseconds()}
	if err != nil {
		r.Error = err.Error()
		return r
	}
	r.Title = tab.Title
	r.Header = tab.Header
	r.Rows = tab.Rows
	r.Notes = tab.Notes
	r.VirtualNs = int64(tab.Virtual)
	r.Events = tab.Events
	r.EventsPerSec = tab.EventsPerSec
	if tab.Metrics != nil {
		r.Metrics = newJSONMetrics(tab.Metrics)
	}
	return r
}

func newJSONMetrics(s *obs.Snapshot) *JSONMetrics {
	m := &JSONMetrics{Counters: s.Counters}
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		m.Histograms = append(m.Histograms, JSONHist{
			Name:   name,
			Count:  h.Count(),
			SumNs:  int64(h.Sum()),
			MinNs:  int64(h.Min()),
			MaxNs:  int64(h.Max()),
			MeanNs: int64(h.Mean()),
			P50Ns:  int64(h.Quantile(0.5)),
			P99Ns:  int64(h.Quantile(0.99)),
			P999Ns: int64(h.Quantile(0.999)),
		})
	}
	return m
}

// WriteJSON writes the report to path, indented so the feed diffs
// cleanly in review.
func WriteJSON(path string, results []JSONResult) error {
	cfg := params.Default()
	data, err := json.MarshalIndent(JSONReport{Benchmark: "litebench", Params: &cfg, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (*JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
