package mapreduce

import (
	"fmt"
	"testing"

	"lite/internal/simtime"
)

// TestLITEMRReplaysAcrossRuns runs LITE-MR twelve times in this
// process, each on a fresh deployment, and requires the same counts
// and virtual end time every time. The run id feeds the
// "mr<id>-a<attempt>-…" LMR names carried in control messages; taken
// from a process-global counter, the tenth run's names grow a byte and
// its timeline drifts. Ids are deployment-scoped
// (lite.Deployment.NextAppSeq).
func TestLITEMRReplaysAcrossRuns(t *testing.T) {
	input := testInput(20000)
	var firstCounts string
	var firstEnd simtime.Time
	for i := 0; i < 12; i++ {
		cls, dep := newLITECluster(t, 3)
		cfg := DefaultConfig(0, []int{1, 2}, 2, 2)
		cfg.ChunkSize = 4096
		res, err := RunLITE(cls, dep, cfg, input)
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		counts, end := fmt.Sprint(res.Counts), cls.Env.Now()
		if i == 0 {
			firstCounts, firstEnd = counts, end
			continue
		}
		if counts != firstCounts {
			t.Fatalf("run %d: word counts differ from run 1", i+1)
		}
		if end != firstEnd {
			t.Fatalf("run %d ended at %v, run 1 at %v: run state leaked between simulations", i+1, end, firstEnd)
		}
	}
}
