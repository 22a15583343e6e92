package graph

import (
	"fmt"
	"testing"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
	"lite/internal/workload"
)

// Run ids feed barrier ids and LMR names ("pg<id>-contrib-…",
// "dsm<id>-home-…") that ride inside control messages. Taken from a
// process-global counter, the tenth run in one process mints a
// two-digit id, its messages grow a byte, and a seed-identical run
// drifts. Ids are deployment-scoped (lite.Deployment.NextAppSeq), so
// every run on a fresh deployment must replay exactly.

const determinismRuns = 12

type engineRun func(*cluster.Cluster, *lite.Deployment, Config, *workload.Graph) (*Result, error)

// replayEngine runs one engine determinismRuns times in this process,
// each on a fresh deployment, and requires the same ranks and virtual
// end time every time.
func replayEngine(t *testing.T, name string, run engineRun) {
	t.Helper()
	g := workload.NewPowerLawGraph(7, 400, 3000)
	var firstRanks string
	var firstEnd simtime.Time
	for i := 0; i < determinismRuns; i++ {
		cls, dep := newLITECluster(t, 3)
		res, err := run(cls, dep, DefaultConfig([]int{0, 1, 2}, 2, 3), g)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, i+1, err)
		}
		ranks, end := fmt.Sprint(res.Ranks), cls.Env.Now()
		if i == 0 {
			firstRanks, firstEnd = ranks, end
			continue
		}
		if ranks != firstRanks {
			t.Fatalf("%s run %d: ranks differ from run 1", name, i+1)
		}
		if end != firstEnd {
			t.Fatalf("%s run %d ended at %v, run 1 at %v: run state leaked between simulations", name, i+1, end, firstEnd)
		}
	}
}

func TestLITEGraphReplaysAcrossRuns(t *testing.T) { replayEngine(t, "LITE-Graph", RunLITE) }

func TestDSMGraphReplaysAcrossRuns(t *testing.T) { replayEngine(t, "LITE-Graph-DSM", RunDSM) }
