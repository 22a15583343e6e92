package dsm

import (
	"bytes"
	"testing"

	"lite/internal/simtime"
)

// TestBootReplaysAcrossRuns boots a DSM and moves data through it
// twelve times in this process, each on a fresh deployment, and
// requires the same DSM name, data and virtual end time every time.
// The name ("dsm<id>", prefix of every home LMR name) rides inside
// name-lookup control messages; taken from a process-global counter it
// depends on how many DSMs earlier simulations booted. Ids are
// deployment-scoped (lite.Deployment.NextAppSeq).
func TestBootReplaysAcrossRuns(t *testing.T) {
	var firstName string
	var firstEnd simtime.Time
	for i := 0; i < 12; i++ {
		cls, dep := testEnv(t, 3)
		want := bytes.Repeat([]byte{byte(i + 1)}, 6000)
		var got []byte
		var name string
		cls.GoOn(0, "app", func(p *simtime.Proc) {
			sys, err := Boot(p, cls, dep, []int{0, 1, 2}, 1<<16, DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			name = sys.name
			w := sys.Node(0)
			w.Acquire(p)
			if err := w.Write(p, 100, want); err != nil {
				t.Error(err)
				return
			}
			if err := w.Release(p); err != nil {
				t.Error(err)
				return
			}
			r := sys.Node(2)
			r.Acquire(p)
			got = make([]byte, len(want))
			if err := r.Read(p, 100, got); err != nil {
				t.Error(err)
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: node 2 read back different data", i+1)
		}
		end := cls.Env.Now()
		if i == 0 {
			firstName, firstEnd = name, end
			continue
		}
		if name != firstName {
			t.Fatalf("run %d booted DSM %q, run 1 %q: names must restart per deployment", i+1, name, firstName)
		}
		if end != firstEnd {
			t.Fatalf("run %d ended at %v, run 1 at %v: run state leaked between simulations", i+1, end, firstEnd)
		}
	}
}
