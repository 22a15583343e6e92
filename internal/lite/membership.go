package lite

import (
	"encoding/binary"
	"sort"

	"lite/internal/detrand"
	"lite/internal/simtime"
)

// Failure detection (§3.3 extended): the cluster manager probes every
// node with periodic keepalive RPCs. After HeartbeatMiss consecutive
// missed beats it declares the node dead, bumps a monotonically
// increasing membership epoch, and broadcasts the new view to every
// live instance. Instances use the view to fail outstanding RPCs to
// dead nodes immediately (instead of waiting out the transport
// timeout), to refuse new sends toward them, and to release
// quarantined reply buffers from before the epoch advance.
//
// The detector is conservative in both directions: a node that answers
// a later probe (a false suspicion during a link flap, or a silent
// restart) is revived with another epoch bump, and a probe reply
// carrying a stale epoch triggers an anti-entropy re-broadcast so a
// node that missed a membership message converges on the next beat.

// membState is the manager's authoritative membership bookkeeping.
// moves is the committed live-migration table ({src, fn} -> new home);
// handoff holds prepared-but-uncommitted migrations (routing-inert;
// they only gate commits, see migrate.go). Both are part of the view
// modeled as surviving manager restarts on the HA pair.
type membState struct {
	epoch   uint64
	dead    map[int]bool
	miss    map[int]int
	moves   map[migKey]int
	handoff map[migKey]int
	// broadcasting/dirty coalesce concurrent view changes into one
	// broadcast stream: while a broadcast is in flight, further epoch
	// bumps mark the view dirty instead of starting their own
	// 475-message fan-out, and the in-flight broadcaster re-ships the
	// final view once. Without this a leaf failure (25 near-simultaneous
	// declarations) cost O(deaths x nodes) correlated control messages —
	// and the overlapping fan-outs could pair a freshly bumped epoch
	// with a stale dead list, which receivers then pinned as current.
	broadcasting bool
	dirty        bool
}

func (m *membState) init() {
	m.dead = make(map[int]bool)
	m.miss = make(map[int]int)
	m.moves = make(map[migKey]int)
	m.handoff = make(map[migKey]int)
}

// purgeHandoffs drops prepared-but-uncommitted migrations touching the
// given node (as source or target): the migration can no longer
// commit, so the record must not gate a future one.
func (m *membState) purgeHandoffs(node int) {
	// Deleting while ranging is safe, and dropping entries is
	// order-independent.
	for k, t := range m.handoff {
		if k.src == node || t == node {
			delete(m.handoff, k)
		}
	}
}

// movesList returns the committed moves as a deterministically ordered
// slice for broadcast payloads.
func (m *membState) movesList() []moveRec {
	out := make([]moveRec, 0, len(m.moves))
	for k, dst := range m.moves {
		out = append(out, moveRec{src: k.src, fn: k.fn, dst: dst})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].src != out[b].src {
			return out[a].src < out[b].src
		}
		return out[a].fn < out[b].fn
	})
	return out
}

// deadList returns the dead set as a sorted slice (broadcast payloads
// and map iterations must be deterministic).
func (m *membState) deadList() []int {
	var out []int
	for n := range m.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// NodeDead reports whether this instance's membership view has
// declared the node dead.
func (i *Instance) NodeDead(node int) bool { return i.deadView[node] }

// MembershipEpoch returns the membership epoch this instance has seen.
func (i *Instance) MembershipEpoch() uint64 { return i.epoch }

// ManagerEpoch returns the manager's authoritative epoch.
func (d *Deployment) ManagerEpoch() uint64 { return d.memb.epoch }

// proberLoop runs on the manager node, one daemon per probed peer.
//
// With ProbeStagger set, each prober's phase is offset by a
// deterministic hash of its target before the first beat. All probers
// otherwise share the boot instant as their phase, so every beat is a
// synchronized n-1 probe burst and a leaf failure makes all of the
// leaf's probers time out, declare, and broadcast in the same instant —
// the correlated O(n^2) storm the churn experiment measures. The offset
// is a pure function of the target id, so the spread replays bit for
// bit.
func (i *Instance) proberLoop(p *simtime.Proc, target int) {
	if i.opts.ProbeStagger && i.opts.HeartbeatInterval > 0 {
		p.Sleep(simtime.Time(detrand.Mix64(uint64(target)) % uint64(i.opts.HeartbeatInterval)))
	}
	for {
		p.Sleep(i.opts.HeartbeatInterval)
		if i.stopped {
			continue // manager down: detector paused until restart
		}
		m := &i.dep.memb
		peerEpoch, err := i.ctlPing(p, target)
		if err != nil {
			if m.dead[target] {
				continue
			}
			m.miss[target]++
			i.obsReg().Add("lite.heartbeat.misses", 1)
			if m.miss[target] >= i.opts.HeartbeatMiss {
				i.declareDead(p, target)
			}
			continue
		}
		m.miss[target] = 0
		if m.dead[target] {
			// False suspicion (or a restart whose join we missed):
			// bring the node back with a fresh epoch.
			i.reviveNode(p, target)
			continue
		}
		if peerEpoch < m.epoch {
			// Anti-entropy: the peer missed a membership broadcast.
			i.sendMembership(p, target)
		}
	}
}

// declareDead marks the target dead, bumps the epoch, and broadcasts.
// Declaring an already-dead node is a no-op: concurrent declarations of
// the same node must collapse to one epoch bump and one broadcast, not
// one per declarer.
func (i *Instance) declareDead(p *simtime.Proc, target int) {
	m := &i.dep.memb
	if m.dead[target] {
		return
	}
	m.dead[target] = true
	m.purgeHandoffs(target)
	m.epoch++
	i.obsReg().Add("lite.membership.epochs", 1)
	i.obsReg().Add("lite.membership.deaths", 1)
	i.broadcastMembership(p)
}

// reviveNode clears the target's dead mark with a new epoch.
func (i *Instance) reviveNode(p *simtime.Proc, target int) {
	m := &i.dep.memb
	delete(m.dead, target)
	m.miss[target] = 0
	m.epoch++
	i.obsReg().Add("lite.membership.epochs", 1)
	i.obsReg().Add("lite.membership.revivals", 1)
	i.broadcastMembership(p)
}

// broadcastMembership ships the manager's current view to every live
// instance (applied locally for the manager itself). Sends are bounded
// by the heartbeat timeout; a node that misses the message converges
// through anti-entropy on the next probe.
//
// Overlapping broadcasts coalesce: if one fan-out is already in
// flight, the caller marks the view dirty and returns; the in-flight
// broadcaster re-ships the final view once before it finishes. Each
// lap snapshots (epoch, dead, moves) together, so a peer never
// receives a fresh epoch paired with a stale view — the interleaving
// that previously made receivers pin an outdated dead list as current
// and drop the corrected broadcast as a replay.
func (i *Instance) broadcastMembership(p *simtime.Proc) {
	m := &i.dep.memb
	if m.broadcasting {
		// Apply locally right away (the manager's own view must fail
		// pending RPCs to the newly dead promptly); only the remote
		// fan-out is deferred to the in-flight broadcaster.
		i.applyMembership(m.epoch, m.deadList(), m.movesList())
		m.dirty = true
		return
	}
	m.broadcasting = true
	defer func() { m.broadcasting = false }()
	for {
		m.dirty = false
		epoch := m.epoch
		dead := m.deadList()
		moves := m.movesList()
		i.applyMembership(epoch, dead, moves)
		for _, peer := range i.dep.Instances {
			pid := peer.node.ID
			if pid == i.node.ID || m.dead[pid] {
				continue
			}
			_ = i.ctlMembership(p, pid, epoch, dead, moves)
		}
		i.obsReg().Add("lite.membership.broadcasts", 1)
		if !m.dirty {
			return
		}
	}
}

// sendMembership ships the current view to one node.
func (i *Instance) sendMembership(p *simtime.Proc, target int) {
	m := &i.dep.memb
	_ = i.ctlMembership(p, target, m.epoch, m.deadList(), m.movesList())
}

// applyMembership installs a membership view on this instance. Stale
// epochs are ignored. Outstanding RPCs to now-dead nodes fail with
// ErrNodeDead, ring-space waiters toward them are woken so they can
// abort, and quarantined reply buffers from before the new epoch are
// released (any straggler reply from that era was sent by a peer now
// declared dead or restarted, so it can no longer arrive).
func (i *Instance) applyMembership(epoch uint64, dead []int, moves []moveRec) {
	if epoch <= i.epoch || i.stopped {
		return
	}
	i.epoch = epoch
	oldDead := i.deadView
	i.deadView = make(map[int]bool, len(dead))
	for _, n := range dead {
		i.deadView[n] = true
	}
	// Connection-pool reconciliation: revoke spares toward the newly
	// dead, re-arm the replenisher (jittered) for the newly revived.
	i.reconcileLeases(oldDead, epoch)
	// Install the committed-moves view. Entries sourced at this node
	// are preserved even if the broadcast predates their commit: the
	// node itself completed the handoff, and forgetting that would let
	// it execute calls on state it no longer owns.
	moved := make(map[migKey]int, len(moves))
	for _, mv := range moves {
		moved[migKey{mv.src, mv.fn}] = mv.dst
	}
	for k, v := range i.moved {
		if k.src == i.node.ID {
			moved[k] = v
		}
	}
	i.moved = moved
	env := i.cls.Env
	for _, token := range i.sortedPendingTokens() {
		pc := i.pending[token]
		if pc.done || pc.abandoned || pc.probe || !i.deadView[pc.dst] {
			continue
		}
		pc.err = ErrNodeDead
		pc.done = true
		pc.cond.Broadcast(env)
	}
	for _, token := range i.scratch.releaseBefore(epoch) {
		delete(i.pending, token)
	}
	for _, key := range i.sortedBindKeys() {
		if i.deadView[key.node] {
			i.bindings[key].space.Broadcast(env)
		}
	}
}

// sortedPendingTokens returns the pending-call tokens in a stable
// order; broadcasting wakeups in map-iteration order would make the
// simulation timeline depend on Go's map randomization.
func (i *Instance) sortedPendingTokens() []uint32 {
	toks := make([]uint32, 0, len(i.pending))
	for t := range i.pending {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(a, b int) bool { return toks[a] < toks[b] })
	return toks
}

// sortedBindKeys returns the binding keys in a stable order.
func (i *Instance) sortedBindKeys() []bindKey {
	keys := make([]bindKey, 0, len(i.bindings))
	for k := range i.bindings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].node != keys[b].node {
			return keys[a].node < keys[b].node
		}
		return keys[a].fn < keys[b].fn
	})
	return keys
}

// ---- control-plane wire helpers ----

// ctlPing sends one keepalive and returns the peer's membership epoch.
func (i *Instance) ctlPing(p *simtime.Proc, dst int) (uint64, error) {
	out, err := i.call(p, &rpcCall{dst: dst, fn: funcControl, input: []byte{copPing}, maxReply: 9, pri: PriHigh, timeout: i.opts.HeartbeatTimeout, probe: true})
	if err != nil {
		return 0, err
	}
	if len(out) < 9 || out[0] != cstOK {
		return 0, ErrRemoteFailed
	}
	return binary.LittleEndian.Uint64(out[1:]), nil
}

// ctlMembership pushes an (epoch, dead set, committed moves) view to
// dst.
func (i *Instance) ctlMembership(p *simtime.Proc, dst int, epoch uint64, dead []int, moves []moveRec) error {
	req := make([]byte, 13+4*len(dead)+12*len(moves))
	req[0] = copMembership
	binary.LittleEndian.PutUint64(req[1:], epoch)
	binary.LittleEndian.PutUint16(req[9:], uint16(len(dead)))
	off := 11
	for _, n := range dead {
		binary.LittleEndian.PutUint32(req[off:], uint32(n))
		off += 4
	}
	binary.LittleEndian.PutUint16(req[off:], uint16(len(moves)))
	off += 2
	for _, mv := range moves {
		binary.LittleEndian.PutUint32(req[off:], uint32(mv.src))
		binary.LittleEndian.PutUint32(req[off+4:], uint32(mv.fn))
		binary.LittleEndian.PutUint32(req[off+8:], uint32(mv.dst))
		off += 12
	}
	_, err := i.call(p, &rpcCall{dst: dst, fn: funcControl, input: req, maxReply: 1, pri: PriHigh, timeout: i.opts.HeartbeatTimeout})
	return err
}

// ctlJoin announces this node to the manager after a restart.
func (i *Instance) ctlJoin(p *simtime.Proc) error {
	_, err := i.call(p, &rpcCall{dst: i.opts.ManagerNode, fn: funcControl, input: []byte{copJoin}, maxReply: 1, pri: PriHigh, timeout: i.opts.RPCTimeout})
	return err
}

// handleJoin runs on the manager when a restarted node announces
// itself: revive it under a fresh epoch so every instance drops its
// dead mark and releases pre-restart quarantines.
func (i *Instance) handleJoin(p *simtime.Proc, src int) {
	m := &i.dep.memb
	m.miss[src] = 0
	delete(m.dead, src)
	// Any migration the node had in flight died with it; its prepared
	// records must not gate a fresh attempt.
	m.purgeHandoffs(src)
	m.epoch++
	i.obsReg().Add("lite.membership.epochs", 1)
	i.obsReg().Add("lite.membership.joins", 1)
	i.broadcastMembership(p)
}
