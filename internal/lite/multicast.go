package lite

import "lite/internal/simtime"

// MulticastRPC sends the same LT_RPC to every destination concurrently
// and returns once all destinations have replied, with the replies in
// destination order. This is the multicast extension the paper added
// to LITE while building LITE-DSM's invalidation protocol (§8.4): "a
// simple implementation by generating concurrent LT_RPC requests to
// the destinations and replying to the RPC client after all the
// destinations reply."
func (c *Client) MulticastRPC(p *simtime.Proc, dsts []int, fn int, input []byte, maxReply int64) ([][]byte, error) {
	c.enter(p)
	if len(dsts) == 0 {
		return nil, nil
	}
	replies := make([][]byte, len(dsts))
	errs := make([]error, len(dsts))
	var wg simtime.WaitGroup
	wg.Add(len(dsts))
	for k, dst := range dsts {
		k, dst := k, dst
		c.inst.cls.GoOn(c.inst.node.ID, "lite-mcast", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			replies[k], errs[k] = c.inst.call(q, &rpcCall{dst: dst, fn: fn, input: input, maxReply: maxReply, pri: c.pri, timeout: c.inst.opts.RPCTimeout, tenant: c.tenant})
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return replies, err
		}
	}
	return replies, nil
}
