package lite

import "lite/internal/simtime"

// RPCRetry is RPC through the bounded retry layer: timeouts are
// retried with exponential backoff and deterministic jitter, bindings
// are renegotiated after membership changes, and the call fails fast
// with ErrNodeDead once the target is declared dead.
func (c *Client) RPCRetry(p *simtime.Proc, dst, fn int, input []byte, maxReply int64) ([]byte, error) {
	return c.RPCRetryT(p, dst, fn, input, maxReply, c.inst.opts.RPCTimeout)
}

// RPCRetryT is RPCRetry with an explicit per-attempt timeout; zero
// falls back to the deployment's RPCTimeout (a retry wrapper around an
// unbounded wait would never fire).
func (c *Client) RPCRetryT(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, timeout simtime.Time) ([]byte, error) {
	c.enter(p)
	if timeout <= 0 {
		timeout = c.inst.opts.RPCTimeout
	}
	return c.inst.rpcRetryT(p, dst, fn, input, maxReply, c.pri, timeout, c.tenant)
}

// NodeDead reports whether this client's node has been told (via a
// membership broadcast) that the given node is dead.
func (c *Client) NodeDead(node int) bool { return c.inst.NodeDead(node) }

// MembershipEpoch returns the membership epoch this client's node has
// seen. Applications that cache routing or handle state keyed on
// cluster membership can compare epochs to find out when to rebuild.
func (c *Client) MembershipEpoch() uint64 { return c.inst.MembershipEpoch() }
