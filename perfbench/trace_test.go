package main

import (
	"testing"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// rpcTree is one op shaped like an rpc-small call: the wait runs
// alongside its sibling NIC and wire spans.
func rpcTree(wireEnd simtime.Time) []obs.SpanView {
	return []obs.SpanView{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "lite.rpc", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "lite.check", Start: 0, End: 10},
		{ID: 4, Parent: 2, Name: "lite.rpc.wait", Start: 10, End: 100},
		{ID: 5, Parent: 2, Name: "rnic.tx", Start: 10, End: 20},
		{ID: 6, Parent: 2, Name: "fabric.wire", Start: 20, End: wireEnd},
	}
}

func TestSelfTimesPartitionOverlappingSiblings(t *testing.T) {
	st, err := selfTimesOf(rpcTree(40), []uint64{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]simtime.Time{"lite.check": 10, "rnic.tx": 10, "fabric.wire": 20, "lite.rpc.wait": 60}
	for name, v := range want {
		if st.name[name] != v {
			t.Errorf("self(%s) = %v, want %v", name, st.name[name], v)
		}
	}
	if st.name["lite.rpc"] != 0 || st.name["bench.op"] != 0 {
		t.Errorf("fully covered spans kept self time: lite.rpc %v, bench.op %v", st.name["lite.rpc"], st.name["bench.op"])
	}
	if st.layer["lite"] != 70 || st.total != 100 {
		t.Errorf("lite layer %v of %v, want 70 of 100", st.layer["lite"], st.total)
	}
	// Under lite.rpc the children last 10+90+10+20 = 130 over a union of 100.
	if st.overlap != 30 {
		t.Errorf("overlap = %v, want 30", st.overlap)
	}
}

func TestSelfTimesRejectTreesThatDoNotNest(t *testing.T) {
	// The wire span outlives its parent and the op.
	if _, err := selfTimesOf(rpcTree(120), []uint64{1}, true); err == nil {
		t.Error("a span ending after its parent passed the strict check")
	}
	if _, err := selfTimesOf(rpcTree(120), []uint64{1}, false); err != nil {
		t.Errorf("non-strict attribution failed: %v", err)
	}
	lone := []obs.SpanView{{ID: 1, Name: "bench.op", Start: 0, End: 5}}
	if _, err := selfTimesOf(lone, []uint64{1}, true); err == nil {
		t.Error("an op with no span under its root passed the strict check")
	}
	if _, err := selfTimesOf(lone, []uint64{2}, false); err == nil {
		t.Error("a missing root span was not reported")
	}
}

func TestKeepsUpComparesLateCompletionsWithLateArrivals(t *testing.T) {
	for _, c := range []struct {
		arrived, done int64
		want          bool
	}{{1000, 1000, true}, {1000, 950, true}, {1000, 949, false}, {0, 0, true}} {
		tl := Tally{LateArrivals: c.arrived, LateDone: c.done}
		if got := tl.keepsUp(); got != c.want {
			t.Errorf("keepsUp(%d arrived, %d done) = %v, want %v", c.arrived, c.done, got, c.want)
		}
	}
}
