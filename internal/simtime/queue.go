package simtime

// This file implements the event queue: a same-instant run queue in
// front of a binary min-heap.
//
//   - runq: a FIFO ring for events scheduled at exactly the current
//     instant (signals, yields, zero-length sleeps). Pushing and
//     popping are O(1) with no ordering work at all, because seq
//     order and FIFO push order coincide.
//   - heap: a min-heap on (t, seq) for every strictly-future event.
//
// Ordering contract: pop returns events in strictly nondecreasing
// (t, seq) order, so every seeded experiment replays bit-identically.
//
// Both tiers hold events by value and retain their capacity, so the
// steady state allocates nothing per event.

func evless(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// evring is a growable FIFO ring of events (power-of-two capacity).
type evring struct {
	ev   []event
	head int
	n    int
}

func (r *evring) push(ev event) {
	if r.n == len(r.ev) {
		r.grow()
	}
	r.ev[(r.head+r.n)&(len(r.ev)-1)] = ev
	r.n++
}

func (r *evring) grow() {
	nc := 16
	if len(r.ev) > 0 {
		nc = len(r.ev) * 2
	}
	ne := make([]event, nc)
	for i := 0; i < r.n; i++ {
		ne[i] = r.ev[(r.head+i)&(len(r.ev)-1)]
	}
	r.ev = ne
	r.head = 0
}

func (r *evring) peek() *event { return &r.ev[r.head] }

func (r *evring) pop() event {
	ev := r.ev[r.head]
	r.ev[r.head] = event{}
	r.head = (r.head + 1) & (len(r.ev) - 1)
	r.n--
	return ev
}

// queue is the scheduler's event queue.
type queue struct {
	runq evring
	heap []event // min-heap on (t, seq)
}

// push enqueues ev. wakeAt/At clamp timestamps to now, so ev.t >= now;
// events at exactly now short-circuit into the run queue.
func (q *queue) push(now Time, ev event) {
	if ev.t == now {
		q.runq.push(ev)
		return
	}
	q.heapPush(ev)
}

// pop removes and returns the earliest event in (t, seq) order, or
// ok=false when the queue is empty.
func (q *queue) pop() (event, bool) {
	if q.runq.n > 0 {
		// Every run-queue event is at the current instant, and a heap
		// event can tie it only if it was pushed before the clock got
		// here; the lower seq goes first.
		if len(q.heap) > 0 && evless(&q.heap[0], q.runq.peek()) {
			return q.heapPop(), true
		}
		return q.runq.pop(), true
	}
	if len(q.heap) > 0 {
		return q.heapPop(), true
	}
	return event{}, false
}

func (q *queue) heapPush(ev event) {
	q.heap = append(q.heap, ev)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evless(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *queue) heapPop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	q.heap = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evless(&h[r], &h[l]) {
			m = r
		}
		if !evless(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
