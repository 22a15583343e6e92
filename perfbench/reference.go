package main

import (
	"container/heap"
	"fmt"
	"syscall"
)

// The host figures are normalised by a fixed reference workload run
// beside the measurement. This host's CPU time per unit of work moves
// in regimes: other tenants' load makes the same window cost up to half
// as much again for minutes at a time. A pass of the reference, run
// right before each window and each boot in the same process, sees the
// same regime, so the ratio of the two does not. The reference is a
// small discrete-event loop of the simulator's kind (a timer heap, map
// lookups, goroutine hand-offs, 4 KB copies) written here and using no
// code of the repository, so no change to the program can move it. It
// allocates nothing once warmed up: its cost cannot depend on the
// simulator's heap or on the GC.

// refSeconds is one reference pass's CPU time on an uncontended 2 GHz
// Xeon vCPU. Normalised figures are CPU seconds at that speed.
const refSeconds = 0.030

const (
	refEvents  = 60000
	refPending = 4096
	refKeys    = 8192
	refBufSize = 16 << 20
)

type refEvent struct {
	at   uint64
	seq  int
	next *refEvent
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refState is the reference's preallocated working set.
type refState struct {
	pool  []refEvent
	queue refQueue
	index map[int]*refEvent
	buf   []byte
	hand  chan *refEvent
	back  chan int
}

var ref *refState

// refResidentMB is what building and warming the reference added to
// the resident set; peak_rss_mb leaves it out.
var refResidentMB float64

func newRef() (*refState, error) {
	// The copy buffer is mapped outside the Go heap, so it does not
	// raise the GC's heap goal and with it the simulator's peak RSS.
	buf, err := syscall.Mmap(-1, 0, refBufSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference buffer: %w", err)
	}
	r := &refState{
		pool:  make([]refEvent, refEvents),
		queue: make(refQueue, 0, refPending+1),
		index: make(map[int]*refEvent, refKeys),
		buf:   buf,
		hand:  make(chan *refEvent),
		back:  make(chan int),
	}
	// The hand-off partner lives as long as the process.
	go func() {
		sum := 0
		for e := range r.hand {
			if e == nil {
				r.back <- sum
				sum = 0
				continue
			}
			sum += e.seq
		}
	}()
	r.pass() // fault in the buffer and grow the map and queue once
	return r, nil
}

// pass runs the reference workload once.
func (r *refState) pass() int {
	r.queue = r.queue[:0]
	clear(r.index)
	var blk [4096]byte
	x := uint64(7)
	for i := range r.pool {
		x = refMix(x)
		k := int(x % refKeys)
		e := &r.pool[i]
		*e = refEvent{at: x % 1000000, seq: i, next: r.index[k]}
		heap.Push(&r.queue, e)
		r.index[k] = e
		if r.queue.Len() > refPending {
			ev := heap.Pop(&r.queue).(*refEvent)
			if i%4 == 0 {
				r.hand <- ev
			}
		}
		if i%16 == 0 {
			off := int(x>>20) % (len(r.buf) - len(blk))
			copy(blk[:], r.buf[off:])
			copy(r.buf[(off*7)%(len(r.buf)-len(blk)):], blk[:])
		}
	}
	r.hand <- nil
	return <-r.back
}

// refMix is the splitmix64 finalizer, kept here so the reference uses
// no repository code at all.
func refMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// referenceCPU is the CPU seconds of one reference pass now.
func referenceCPU() (float64, error) {
	if ref == nil {
		before, err := statusMB("VmRSS")
		if err != nil {
			return 0, err
		}
		if ref, err = newRef(); err != nil {
			return 0, err
		}
		after, err := statusMB("VmRSS")
		if err != nil {
			return 0, err
		}
		refResidentMB = after - before
	}
	t := cpuTime()
	ref.pass()
	return (cpuTime() - t).Seconds(), nil
}
