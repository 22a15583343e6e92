package lite

import (
	"errors"

	"lite/internal/detrand"
	"lite/internal/simtime"
)

// RPC retry layer: a bounded-attempt exponential-backoff-with-jitter
// wrapper over one LT_RPC call. The jitter is derived deterministically
// from the simulation clock and the call's coordinates — never from
// wall-clock or a global RNG — so a run with a given fault plan
// replays bit for bit.

// maxRetryBackoff caps a single backoff sleep.
const maxRetryBackoff = 20 * 1000 * 1000 // 20ms

// rpcRetryT issues the RPC with up to opts.RetryAttempts attempts.
// Between attempts it sleeps base<<attempt plus jitter. Once the
// membership view declares the target dead the call fails fast with
// ErrNodeDead; if the membership epoch advanced across a failed
// attempt, the binding is dropped so the next attempt renegotiates
// against the (possibly restarted) server. A second consecutive
// timeout also forces a rebind, which heals a ring whose head-update
// credits were lost to message drops.
//
// The retryable errors are handled very differently. A timeout is
// ambiguous — the call may have executed with only the reply lost — so
// user-function attempts all carry one client sequence number and the
// server's dedup window guarantees single execution; each timed-out
// attempt also bumps the call's ambiguous-attempt count, which lets a
// restarted server (whose window died with it) answer the retry with
// the terminal ErrMaybeExecuted instead of re-executing. An overload
// shed is a definitive "did NOT execute": the retry backs off and
// tries again — stretching the backoff to any Retry-After hint the
// fair admission policy shipped — but never rebinds (the binding is
// healthy; the server is just full) and never counts toward the
// rebind-forcing timeout streak.
func (i *Instance) rpcRetryT(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, pri Priority, timeout simtime.Time, ten uint16) ([]byte, error) {
	attempts := i.opts.RetryAttempts
	if attempts < 1 {
		attempts = 1
	}
	var meta *callMeta
	if fn >= FirstUserFunc && dst != i.node.ID {
		meta = &callMeta{seq: i.seqID()}
	}
	dst = i.resolveMoved(dst, fn)
	var lastErr error
	timeouts := 0
	movedHops := 0
	for a := 0; a < attempts; a++ {
		if i.stopped {
			return nil, ErrNodeDead
		}
		if dst != i.node.ID && i.deadView[dst] {
			return nil, ErrNodeDead
		}
		i.pacerWait(p, dst, fn)
		epochBefore := i.epoch
		out, err := i.call(p, &rpcCall{dst: dst, fn: fn, input: input, maxReply: maxReply, pri: pri, timeout: timeout, meta: meta, tenant: ten})
		if err == nil {
			return out, nil
		}
		var me *MovedError
		if errors.As(err, &me) {
			// The function migrated: learn the new home and re-issue
			// there. A redirect is not a failure, so it does not consume
			// a retry attempt; the hop bound catches a routing loop from
			// wildly stale views.
			i.learnMove(dst, fn, me.To)
			movedHops++
			if movedHops > len(i.dep.Instances)+1 {
				return nil, err
			}
			i.obsReg().Add("lite.retry.moved", 1)
			dst = i.resolveMoved(me.To, fn)
			a--
			continue
		}
		if !retryable(err) {
			if errors.Is(err, ErrMaybeExecuted) {
				i.obsReg().Add("lite.retry.maybe_executed", 1)
			}
			return nil, err
		}
		lastErr = err
		if a == attempts-1 {
			break
		}
		i.obsReg().Add("lite.retry.attempts", 1)
		delay := i.retryDelay(p, a)
		if errors.Is(err, ErrOverloaded) {
			i.obsReg().Add("lite.retry.overloads", 1)
			timeouts = 0
			var oe *OverloadError
			if errors.As(err, &oe) {
				// The hint also feeds the client-side pacer, so sibling
				// callers on this node hold off instead of piling on.
				i.pacerLearn(p, dst, fn, oe.RetryAfter)
				if oe.RetryAfter > delay {
					// The server estimated when this client's share
					// frees up; waiting less just buys another shed.
					i.obsReg().Add("lite.retry.hint_waits", 1)
					delay = oe.RetryAfter
				}
			}
		} else {
			timeouts++
			if meta != nil {
				meta.attempt++
			}
			if i.epoch != epochBefore || timeouts >= 2 {
				i.obsReg().Add("lite.retry.rebinds", 1)
				i.resetBinding(dst, fn)
			}
		}
		p.Sleep(delay)
	}
	return nil, lastErr
}

// retryable reports whether an error is worth another attempt.
// ErrNodeDead is terminal; name-service and permission errors are
// definitive answers, not transport failures — and so is
// ErrMaybeExecuted, which by construction can never become
// unambiguous by retrying.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrOverloaded)
}

// retryDelay returns the backoff before attempt a+1: base<<a, capped,
// with deterministic jitter in [0, d/2) mixed from the current virtual
// time, the node id, and the attempt number.
func (i *Instance) retryDelay(p *simtime.Proc, a int) simtime.Time {
	d := i.opts.RetryBackoff
	if d <= 0 {
		d = 100 * 1000 // 100us
	}
	d <<= uint(a)
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	j := detrand.Mix64(uint64(p.Now()) ^ uint64(i.node.ID)<<40 ^ uint64(a)<<56)
	return d + simtime.Time(j%uint64(d/2+1))
}
