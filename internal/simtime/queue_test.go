package simtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// testRand is a tiny deterministic PRNG so the randomized workloads
// replay identically run to run.
type testRand uint64

func (x *testRand) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = testRand(v)
	return v
}

// TestQueueMatchesSortedOracle pushes a seeded mix of events through
// the queue, popping as it goes the way the scheduler does (the clock
// follows each popped event), and requires the pop order to equal a
// sort of every pushed event on (t, seq). The mix covers same-instant
// events pushed at the current time, ties with events pushed for that
// instant earlier, near (sub-µs and µs) events, millisecond timers and
// multi-second timers.
func TestQueueMatchesSortedOracle(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := testRand(seed*0x9e3779b97f4a7c15 | 1)
		var q queue
		var now Time
		var seq int64
		var pushed, popped []event
		// future holds instants already scheduled ahead of the clock,
		// so later pushes (and run-queue pushes once the clock gets
		// there) can tie with them.
		var future []Time
		earlyAt := make(map[Time]bool) // instants pushed ahead of the clock
		ties := 0                      // run-queue pushes tying such an instant
		push := func(at Time) {
			seq++
			ev := event{t: at, seq: seq}
			if at == now {
				if earlyAt[at] {
					ties++
				}
			} else {
				earlyAt[at] = true
				future = append(future, at)
			}
			q.push(now, ev)
			pushed = append(pushed, ev)
		}
		pop := func() bool {
			ev, ok := q.pop()
			if ok {
				now = ev.t
				popped = append(popped, ev)
			}
			return ok
		}
		for step := 0; step < 4000; step++ {
			switch rng.next() % 10 {
			case 0, 1:
				push(now)
			case 2:
				push(now + Time(rng.next()%300))
			case 3:
				push(now + Time(rng.next()%100_000))
			case 4:
				push(now + Time(2_000_000+rng.next()%20_000_000))
			case 5:
				push(now + Time(1+rng.next()%5)*time.Second + Time(rng.next()%1_000))
			case 6:
				if len(future) > 0 {
					if at := future[rng.next()%uint64(len(future))]; at >= now {
						push(at)
					}
				}
			default:
				pop()
			}
		}
		for pop() {
		}
		want := append([]event(nil), pushed...)
		sort.Slice(want, func(i, j int) bool {
			return want[i].t < want[j].t || want[i].t == want[j].t && want[i].seq < want[j].seq
		})
		if len(popped) != len(want) {
			t.Fatalf("seed %d: popped %d events, pushed %d", seed, len(popped), len(want))
		}
		for i := range want {
			if popped[i].t != want[i].t || popped[i].seq != want[i].seq {
				t.Fatalf("seed %d: pop %d = (t=%d seq=%d), want (t=%d seq=%d)",
					seed, i, popped[i].t, popped[i].seq, want[i].t, want[i].seq)
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: mix produced no same-instant tie between the run queue and the heap", seed)
		}
	}
}

// mixedWorkload drives env with a mixed delay distribution — yields,
// ns- and µs-scale sleeps, ms-scale sleeps, multi-second timers —
// plus cross-proc signals, wait timeouts and scheduler callbacks. It
// returns the full dispatch trace.
func mixedWorkload(env *Env, procs, steps int) ([]string, error) {
	var trace []string
	var wake Cond
	for pi := 0; pi < procs; pi++ {
		pi := pi
		env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
			rng := testRand(pi*2654435761 + 1)
			for k := 0; k < steps; k++ {
				trace = append(trace, fmt.Sprintf("%d p%d.%d", p.Now(), pi, k))
				switch rng.next() % 8 {
				case 0:
					p.Yield()
				case 1:
					p.Sleep(Time(rng.next() % 300))
				case 2:
					p.Sleep(Time(rng.next() % 100_000))
				case 3:
					p.Sleep(Time(2_000_000 + rng.next()%20_000_000))
				case 4:
					p.Sleep(Time(4_500_000_000 + rng.next()%3_000_000_000))
				case 5:
					t := p.Now() + Time(rng.next()%5_000)
					p.Env().At(t, func(e *Env) {
						trace = append(trace, fmt.Sprintf("%d cb%d.%d", e.Now(), pi, k))
					})
				case 6:
					wake.Signal(p.Env())
					p.Yield()
				case 7:
					if !wake.WaitTimeout(p, Time(rng.next()%3_000_000)) {
						trace = append(trace, fmt.Sprintf("%d timeout%d.%d", p.Now(), pi, k))
					}
				}
			}
			// Drain any waiters left on the cond so the run can finish.
			wake.Broadcast(p.Env())
		})
	}
	err := env.Run()
	return trace, err
}

// TestMixedWorkloadReplays runs one randomized multi-process workload
// twice on fresh environments and requires identical dispatch traces
// whose timestamps never go backwards.
func TestMixedWorkloadReplays(t *testing.T) {
	first, err := mixedWorkload(NewEnv(), 24, 40)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mixedWorkload(NewEnv(), 24, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 24*40 {
		t.Fatalf("workload too small to be meaningful: %d trace entries", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(first), len(second))
	}
	var last int64
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("traces diverge at step %d: %q vs %q", i, first[i], second[i])
		}
		var at int64
		fmt.Sscan(first[i], &at)
		if at < last {
			t.Fatalf("time went backwards at step %d: %q after %d", i, first[i], last)
		}
		last = at
	}
}

// TestSameInstantSeqOrder pins the tie-break rule: events scheduled for
// the same instant dispatch in scheduling (seq) order, whether they
// sit in the run queue or in the heap the clock is entering from.
func TestSameInstantSeqOrder(t *testing.T) {
	env := NewEnv()
	var got []int
	const at = Time(1000)
	for i := 0; i < 32; i++ {
		i := i
		env.At(at, func(*Env) { got = append(got, i) })
	}
	// A second instant reached via a timer wake, mixing run-queue
	// entries (scheduled at now) with heap entries (scheduled before).
	const at2 = at + 500
	env.At(at2, func(e *Env) { got = append(got, 100) })
	env.At(at, func(e *Env) {
		e.At(at2, func(*Env) { got = append(got, 101) })
	})
	env.Go("driver", func(p *Proc) { p.SleepUntil(at2 + 1) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 34 {
		t.Fatalf("got %d events, want 34", len(got))
	}
	for i := 0; i < 32; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order violated at %d: got %v", i, got[:32])
		}
	}
	// seq order at at2: the boot-time callback (100) was scheduled
	// before the one armed during the at-batch (101).
	if got[32] != 100 || got[33] != 101 {
		t.Fatalf("cross-instant seq order violated: tail %v", got[32:])
	}
}

// TestFarFutureOverflow checks that timers tens of seconds out fire in
// (t, seq) order, including when nearer timers are inserted after
// them.
func TestFarFutureOverflow(t *testing.T) {
	env := NewEnv()
	var got []Time
	times := []Time{
		90 * time.Second,
		10 * time.Second,
		5 * time.Second,
		30 * time.Second,
		10 * time.Second, // duplicate instant: seq breaks the tie
	}
	for _, at := range times {
		at := at
		env.At(at, func(e *Env) {
			got = append(got, e.Now())
			// Schedule a nearer event from inside a far-future event;
			// it must still sort correctly.
			e.After(time.Millisecond, func(e *Env) { got = append(got, e.Now()) })
		})
	}
	env.Go("driver", func(p *Proc) { p.SleepUntil(100 * time.Second) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{
		5 * time.Second, 5*time.Second + time.Millisecond,
		10 * time.Second, 10 * time.Second, 10*time.Second + time.Millisecond, 10*time.Second + time.Millisecond,
		30 * time.Second, 30*time.Second + time.Millisecond,
		90 * time.Second, 90*time.Second + time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestDenseTimersInOrder schedules one callback every 100 µs across
// 40 ms, all up front, and requires them to fire in strictly
// increasing time with an exact event count.
func TestDenseTimersInOrder(t *testing.T) {
	env := NewEnv()
	var got []Time
	for i := 1; i <= 400; i++ {
		env.At(Time(i)*100*time.Microsecond, func(e *Env) { got = append(got, e.Now()) })
	}
	env.Go("driver", func(p *Proc) { p.SleepUntil(41 * time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("got %d events, want 400", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	// 400 callbacks + the driver's spawn wake + its sleep wake.
	if env.Events() != 402 {
		t.Fatalf("Events() = %d, want 402", env.Events())
	}
}

// TestDeadlockReported checks that a stuck simulation names the parked
// processes instead of hanging.
func TestDeadlockReported(t *testing.T) {
	env := NewEnv()
	var c Cond
	env.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := env.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Fatalf("parked = %v, want [stuck]", dl.Parked)
	}
	if !strings.Contains(dl.Error(), "stuck") {
		t.Fatalf("error text %q does not name the process", dl.Error())
	}
}

// TestSyncAccessors covers the small inspection surface of the sync
// primitives and the process accessors.
func TestSyncAccessors(t *testing.T) {
	env := NewEnv()
	var mu Mutex
	var c Cond
	sem := NewSemaphore(2)
	ch := NewChan[int](2)
	env.Go("main", func(p *Proc) {
		if p.Name() != "main" {
			t.Errorf("Name() = %q", p.Name())
		}
		p.SetTrace("tag")
		if p.Trace() != "tag" {
			t.Errorf("Trace() = %v", p.Trace())
		}
		acct := &CPUAccount{}
		p.SetCPUAccount(acct)
		if p.CPUAccount() != acct {
			t.Error("CPUAccount() did not round-trip")
		}
		p.Work(time.Microsecond)
		if acct.Busy() != time.Microsecond {
			t.Errorf("Busy() = %v, want 1µs", acct.Busy())
		}
		mu.Lock(p)
		if !mu.Locked() {
			t.Error("Locked() = false with the lock held")
		}
		mu.Unlock(p)
		if mu.Locked() {
			t.Error("Locked() = true after unlock")
		}
		if !sem.TryAcquire(p) || sem.Available() != 1 {
			t.Errorf("TryAcquire/Available = %d, want 1", sem.Available())
		}
		sem.Release(p.Env())
		if !ch.TrySend(p, 7) || ch.Len() != 1 {
			t.Errorf("TrySend/Len = %d, want 1", ch.Len())
		}
		if v, ok := ch.TryRecv(p); !ok || v != 7 {
			t.Errorf("TryRecv = %d, %v", v, ok)
		}
		if ch.Closed() {
			t.Error("Closed() = true before Close")
		}
		ch.Close(p)
		if !ch.Closed() {
			t.Error("Closed() = false after Close")
		}
		env.Go("waiter", func(p *Proc) { c.Wait(p) })
		p.Yield()
		if c.Waiters() != 1 {
			t.Errorf("Waiters() = %d, want 1", c.Waiters())
		}
		c.Signal(p.Env())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestServerAccessors covers the resource-server inspection surface.
func TestServerAccessors(t *testing.T) {
	env := NewEnv()
	var srv Server
	ms := NewMultiServer(2)
	env.Go("main", func(p *Proc) {
		srv.Process(p, 10*time.Microsecond)
		if srv.FreeAt() != 10*time.Microsecond {
			t.Errorf("FreeAt() = %v, want 10µs", srv.FreeAt())
		}
		if srv.BusyTotal() != 10*time.Microsecond {
			t.Errorf("BusyTotal() = %v, want 10µs", srv.BusyTotal())
		}
		ms.Process(p, 4*time.Microsecond)
		if ms.BusyTotal() != 4*time.Microsecond {
			t.Errorf("MultiServer.BusyTotal() = %v, want 4µs", ms.BusyTotal())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEnvRun measures raw scheduler throughput: one process
// sleeping in a tight loop, so every event is a self-wake (the
// continuation-stealing fast path).
func BenchmarkEnvRun(b *testing.B) {
	env := NewEnv()
	env.Go("timer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(100)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkWakeStorm measures cross-proc wakeups under fan-out: 1024
// processes all sleeping to the same instants, so every round is a
// thundering herd through the same heap instant.
func BenchmarkWakeStorm(b *testing.B) {
	const procs = 1024
	env := NewEnv()
	for pi := 0; pi < procs; pi++ {
		env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.SleepUntil(Time(i+1) * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/s")
}
