package lite

import (
	"encoding/binary"

	"lite/internal/hostmem"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// localAtomicCost is the host cost of a node-local atomic operation.
const localAtomicCost = 150 // nanoseconds, see use below

// rawFetchAdd atomically adds delta to the 8-byte word at (node, pa)
// and returns the previous value. Remote words go through the NIC's
// masked atomic engine; local words execute directly.
func (i *Instance) rawFetchAdd(p *simtime.Proc, node int, pa hostmem.PAddr, delta uint64, pri Priority) (uint64, error) {
	if node == i.node.ID {
		p.Work(localAtomicCost)
		var b [8]byte
		if err := i.node.Mem.Read(pa, b[:]); err != nil {
			return 0, err
		}
		old := binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], old+delta)
		return old, i.node.Mem.Write(pa, b[:])
	}
	return i.remoteAtomic(p, node, pa, rnic.WR{Kind: rnic.OpFetchAdd, Add: delta}, pri)
}

// rawCmpSwap atomically compares the word at (node, pa) with cmp and,
// if equal, replaces it with swap. It returns the previous value.
func (i *Instance) rawCmpSwap(p *simtime.Proc, node int, pa hostmem.PAddr, cmp, swap uint64, pri Priority) (uint64, error) {
	if node == i.node.ID {
		p.Work(localAtomicCost)
		var b [8]byte
		if err := i.node.Mem.Read(pa, b[:]); err != nil {
			return 0, err
		}
		old := binary.LittleEndian.Uint64(b[:])
		if old == cmp {
			binary.LittleEndian.PutUint64(b[:], swap)
			if err := i.node.Mem.Write(pa, b[:]); err != nil {
				return 0, err
			}
		}
		return old, nil
	}
	return i.remoteAtomic(p, node, pa, rnic.WR{Kind: rnic.OpCmpSwap, Compare: cmp, Swap: swap}, pri)
}

// rawMaskCmpSwap is rawCmpSwap under masks: the compare applies only
// under cmpMask and the swap replaces only the bits under swapMask
// (ConnectX extended-atomic semantics). The local fast path computes
// exactly what the responder NIC would.
func (i *Instance) rawMaskCmpSwap(p *simtime.Proc, node int, pa hostmem.PAddr, cmp, swap, cmpMask, swapMask uint64, pri Priority) (uint64, error) {
	if node == i.node.ID {
		p.Work(localAtomicCost)
		var b [8]byte
		if err := i.node.Mem.Read(pa, b[:]); err != nil {
			return 0, err
		}
		old := binary.LittleEndian.Uint64(b[:])
		if old&cmpMask == cmp&cmpMask {
			binary.LittleEndian.PutUint64(b[:], old&^swapMask|swap&swapMask)
			if err := i.node.Mem.Write(pa, b[:]); err != nil {
				return 0, err
			}
		}
		return old, nil
	}
	return i.remoteAtomic(p, node, pa, rnic.WR{
		Kind: rnic.OpMaskCmpSwap, Compare: cmp, Swap: swap,
		CompareMask: cmpMask, SwapMask: swapMask,
	}, pri)
}

// rawMaskFetchAdd is rawFetchAdd with carries confined by the boundary
// mask (each set bit ends an independent field; see rnic.MaskedAdd).
func (i *Instance) rawMaskFetchAdd(p *simtime.Proc, node int, pa hostmem.PAddr, delta, boundary uint64, pri Priority) (uint64, error) {
	if node == i.node.ID {
		p.Work(localAtomicCost)
		var b [8]byte
		if err := i.node.Mem.Read(pa, b[:]); err != nil {
			return 0, err
		}
		old := binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], rnic.MaskedAdd(old, delta, boundary))
		return old, i.node.Mem.Write(pa, b[:])
	}
	return i.remoteAtomic(p, node, pa, rnic.WR{
		Kind: rnic.OpMaskFetchAdd, Add: delta, BoundaryMask: boundary,
	}, pri)
}

func (i *Instance) remoteAtomic(p *simtime.Proc, node int, pa hostmem.PAddr, wr rnic.WR, pri Priority) (uint64, error) {
	qp, _, release := i.pickQP(p, node, pri)
	defer release()
	var result uint64
	var buf [8]byte
	wr.WRID = i.wrID()
	wr.Signaled = true
	wr.LocalBuf = buf[:]
	wr.Len = 8
	wr.RemoteKey = i.dep.Instances[node].globalMR.Key()
	wr.RemoteOff = int64(pa)
	wr.AtomicResult = &result
	p.Work(i.cfg.NICDoorbell)
	if err := i.node.NIC.PostSend(p.Now(), qp, wr); err != nil {
		return 0, err
	}
	cqe := i.sendDisp.Wait(p, wr.WRID)
	if err := statusErr(cqe.Status); err != nil {
		return 0, err
	}
	return result, nil
}

// resolveWord resolves (lh, off) to the node and physical address of
// an 8-byte word, which must not straddle chunks.
func (i *Instance) resolveWord(h LH, off int64, need Perm, ten uint16) (int, hostmem.PAddr, error) {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return 0, 0, err
	}
	if e.perm&need == 0 {
		return 0, 0, ErrPermission
	}
	parts, err := split(e.ls, off, 8)
	if err != nil {
		return 0, 0, err
	}
	if len(parts) != 1 {
		return 0, 0, ErrBounds
	}
	pt := parts[0]
	pa := pt.c.pa + hostmem.PAddr(pt.cOff)
	if pa&7 != 0 {
		return 0, 0, ErrAlign
	}
	return pt.c.node, pa, nil
}

// fetchAddInternal implements LT_fetch-add on LMR space.
func (i *Instance) fetchAddInternal(p *simtime.Proc, h LH, off int64, delta uint64, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawFetchAdd(p, node, pa, delta, pri)
}

// testSetInternal implements LT_test-set on LMR space: it atomically
// sets the word to val if it was zero and returns the previous value.
func (i *Instance) testSetInternal(p *simtime.Proc, h LH, off int64, val uint64, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawCmpSwap(p, node, pa, 0, val, pri)
}

// casInternal implements LT_cas on LMR space: compare the word at
// (h, off) with cmp and, if equal, replace it with swap. Returns the
// previous value; the caller infers success by comparing it to cmp.
func (i *Instance) casInternal(p *simtime.Proc, h LH, off int64, cmp, swap uint64, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawCmpSwap(p, node, pa, cmp, swap, pri)
}

// casMaskedInternal implements masked LT_cas on LMR space (ConnectX
// extended atomics: compare under cmpMask, swap bits under swapMask).
func (i *Instance) casMaskedInternal(p *simtime.Proc, h LH, off int64, cmp, swap, cmpMask, swapMask uint64, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawMaskCmpSwap(p, node, pa, cmp, swap, cmpMask, swapMask, pri)
}

// faaMaskedInternal implements masked LT_faa on LMR space: fetch-add
// with carries confined to the fields delimited by boundary.
func (i *Instance) faaMaskedInternal(p *simtime.Proc, h LH, off int64, delta, boundary uint64, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawMaskFetchAdd(p, node, pa, delta, boundary, pri)
}

// ---- distributed locks (§7.2) ----

// Lock names a LITE distributed lock: a 64-bit word at an owner node
// plus a FIFO wait queue maintained there.
type Lock struct {
	ID    uint64
	Owner int
	pa    hostmem.PAddr
}

// lockState is the owner-node bookkeeping for one lock.
type lockState struct {
	pa            hostmem.PAddr
	waiting       []*Call // parked LT_lock wait RPCs, FIFO
	pendingGrants int     // releases that arrived before the wait RPC
}

// Lock-protocol opcodes carried over funcLock.
const (
	lopWait byte = iota + 1
	lopRelease
	lopAlloc
)

// allocLockInternal creates a lock whose word and wait queue live at
// the owner node.
func (i *Instance) allocLockInternal(p *simtime.Proc, owner int, pri Priority) (Lock, error) {
	p.Work(i.cfg.LITECheck)
	if owner == i.node.ID {
		return i.allocLockLocal(), nil
	}
	out, err := i.call(p, &rpcCall{dst: owner, fn: funcLock, input: []byte{lopAlloc}, maxReply: 17, pri: pri, timeout: i.opts.RPCTimeout})
	if err != nil {
		return Lock{}, err
	}
	if len(out) < 17 || out[0] != cstOK {
		return Lock{}, ErrRemoteFailed
	}
	return Lock{
		ID:    binary.LittleEndian.Uint64(out[1:]),
		Owner: owner,
		pa:    hostmem.PAddr(binary.LittleEndian.Uint64(out[9:])),
	}, nil
}

func (i *Instance) allocLockLocal() Lock {
	i.lockSeq++
	id := uint64(i.node.ID)<<32 | i.lockSeq&0xffffffff
	pa := i.scratchAlloc(8)
	_ = i.node.Mem.Write(pa, make([]byte, 8))
	i.locks[id] = &lockState{pa: pa}
	return Lock{ID: id, Owner: i.node.ID, pa: pa}
}

// lockInternal implements LT_lock: one fetch-add acquires an
// uncontended lock in a single RTT (~2.2 us in the paper); contended
// callers park in a FIFO queue at the owner and are woken by exactly
// one message, minimizing network traffic (§7.2).
func (i *Instance) lockInternal(p *simtime.Proc, lk Lock, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	old, err := i.rawFetchAdd(p, lk.Owner, lk.pa, 1, pri)
	if err != nil {
		return err
	}
	if old == 0 {
		return nil
	}
	req := make([]byte, 9)
	req[0] = lopWait
	binary.LittleEndian.PutUint64(req[1:], lk.ID)
	// The reply IS the grant; it arrives when the lock is handed over,
	// so wait without an RPC timeout.
	_, err = i.call(p, &rpcCall{dst: lk.Owner, fn: funcLock, input: req, maxReply: 1, pri: pri})
	return err
}

// unlockInternal implements LT_unlock.
func (i *Instance) unlockInternal(p *simtime.Proc, lk Lock, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	old, err := i.rawFetchAdd(p, lk.Owner, lk.pa, ^uint64(0), pri) // -1
	if err != nil {
		return err
	}
	if old <= 1 {
		return nil // no waiters
	}
	req := make([]byte, 9)
	req[0] = lopRelease
	binary.LittleEndian.PutUint64(req[1:], lk.ID)
	_, err = i.call(p, &rpcCall{dst: lk.Owner, fn: funcLock, input: req, maxReply: 1, pri: pri, timeout: i.opts.RPCTimeout})
	return err
}

// handleLock executes lock-protocol requests at the owner node.
func (i *Instance) handleLock(p *simtime.Proc, c *Call) {
	in := c.Input
	if len(in) < 1 {
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
		return
	}
	switch in[0] {
	case lopAlloc:
		lk := i.allocLockLocal()
		out := make([]byte, 17)
		out[0] = cstOK
		binary.LittleEndian.PutUint64(out[1:], lk.ID)
		binary.LittleEndian.PutUint64(out[9:], uint64(lk.pa))
		_ = i.replyRPCInternal(p, c, out, PriHigh)

	case lopWait:
		id := binary.LittleEndian.Uint64(in[1:])
		st, ok := i.locks[id]
		if !ok {
			_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
			return
		}
		if st.pendingGrants > 0 {
			st.pendingGrants--
			_ = i.replyRPCInternal(p, c, []byte{cstOK}, PriHigh)
			return
		}
		st.waiting = append(st.waiting, c) // grant later

	case lopRelease:
		id := binary.LittleEndian.Uint64(in[1:])
		st, ok := i.locks[id]
		if !ok {
			_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
			return
		}
		if len(st.waiting) > 0 {
			next := st.waiting[0]
			st.waiting = st.waiting[1:]
			_ = i.replyRPCInternal(p, next, []byte{cstOK}, PriHigh)
		} else {
			st.pendingGrants++
		}
		_ = i.replyRPCInternal(p, c, []byte{cstOK}, PriHigh)

	default:
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
	}
}

// ---- distributed barrier (§7.2) ----

// barrierState tracks arrivals for one barrier generation at the
// manager node.
type barrierState struct {
	arrived []*Call
}

// barrierInternal implements LT_barrier: wait until n participants
// have reached barrier id.
func (i *Instance) barrierInternal(p *simtime.Proc, id uint64, n int, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	req := make([]byte, 13)
	binary.LittleEndian.PutUint64(req[0:], id)
	binary.LittleEndian.PutUint32(req[8:], uint32(n))
	out, err := i.call(p, &rpcCall{dst: i.opts.ManagerNode, fn: funcBarrier, input: req, maxReply: 1, pri: pri})
	if err != nil {
		return err
	}
	if len(out) < 1 || out[0] != cstOK {
		return ErrRemoteFailed
	}
	return nil
}

// handleBarrier executes barrier arrivals at the manager node.
func (i *Instance) handleBarrier(p *simtime.Proc, c *Call) {
	if len(c.Input) < 12 {
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
		return
	}
	id := binary.LittleEndian.Uint64(c.Input[0:])
	n := int(binary.LittleEndian.Uint32(c.Input[8:]))
	bs := i.dep.barriers[id]
	if bs == nil {
		bs = &barrierState{}
		i.dep.barriers[id] = bs
	}
	bs.arrived = append(bs.arrived, c)
	if len(bs.arrived) >= n {
		for _, w := range bs.arrived {
			_ = i.replyRPCInternal(p, w, []byte{cstOK}, PriHigh)
		}
		delete(i.dep.barriers, id)
	}
}
