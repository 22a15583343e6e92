package main

import "lite/internal/simtime"

// probe is a reading of the public busy-time and cache probes taken at
// one edge of the measured window; per-layer utilizations are the
// difference of two readings over the window's virtual length.
type probe struct {
	egress, tx, rx, dma []simtime.Time // per node
	uplink              []simtime.Time // per (leaf, spine)
	serverBusy          simtime.Time   // CPUAccount.Busy summed over the servers
	keyHit, keyMiss     int64
	pteHit, pteMiss     int64
}

func takeProbe(r *rig) probe {
	c := r.cls
	var pr probe
	for _, nd := range c.Nodes {
		pr.egress = append(pr.egress, c.Fab.EgressBusy(nd.ID))
		tx, rx, dma := nd.NIC.PipelineBusy()
		pr.tx, pr.rx, pr.dma = append(pr.tx, tx), append(pr.rx, rx), append(pr.dma, dma)
		kh, km, ph, pm := nd.NIC.CacheStats()
		pr.keyHit += kh
		pr.keyMiss += km
		pr.pteHit += ph
		pr.pteMiss += pm
	}
	if leafNodes := c.Cfg.ClosLeafNodes; leafNodes > 0 {
		leaves := (len(c.Nodes) + leafNodes - 1) / leafNodes
		for l := 0; l < leaves; l++ {
			for s := 0; s < c.Cfg.ClosSpines; s++ {
				pr.uplink = append(pr.uplink, c.Fab.UplinkBusy(l, s))
			}
		}
	}
	for _, s := range r.servers {
		pr.serverBusy += c.Nodes[s].CPU.Busy()
	}
	return pr
}

// maxBusy is the highest per-resource busy fraction between two
// readings over a window of length span.
func maxBusy(a, b []simtime.Time, span simtime.Time) float64 {
	var m simtime.Time
	for i := range b {
		var d simtime.Time
		if i < len(a) {
			d = b[i] - a[i]
		} else {
			d = b[i]
		}
		if d > m {
			m = d
		}
	}
	return share(float64(m), float64(span))
}
