package main

import (
	"github.com/peace-mesh/peace/internal/transport"
)

// counterRows maps a per-layer metric to the registry instrument behind
// it. Server rows are summed over the servers of a workload (and, for the
// roam workloads, over its epochs); client rows over its clients.
var serverCounters = map[string]string{
	"transport.duplicates":     "duplicates",
	"transport.queue_drops":    "queue_drops",
	"transport.rejects":        "rejects",
	"transport.tickets_issued": "tickets_issued",
	"transport.handoffs_in":    "handoffs_in",
	"backbone.gossip_rounds":   "backbone_gossip_rounds",
	"backbone.envelope_drops":  "backbone_envelope_drops",
}

var clientCounters = map[string]string{
	"transport.retransmits":      "retransmits",
	"transport.resume_fallbacks": "resume_fallbacks",
}

// collect adds what the servers', routers' and clients' registries hold
// to the workload's per-layer counts. It is called once per environment,
// after its last operation.
func collect(res *result, servers []*transport.Server, clients []*transport.Client) {
	add := func(name string, v int64) {
		res.Layer.set(name, res.Layer.value(name)+float64(v), "count", 0)
	}
	// A workload without transport clients still reports their rows.
	for name := range clientCounters {
		add(name, 0)
	}
	var cacheSize, batched int64
	for _, srv := range servers {
		snap := srv.Stats().Snapshot()
		for name, inst := range serverCounters {
			add(name, snap.Value(inst))
		}
		res.io.readDatagrams += snap.Value("read_datagrams")
		res.io.readBatches += snap.Value("read_batches")
		res.io.writeDatagrams += snap.Value("write_datagrams")
		res.io.writeBatches += snap.Value("write_batches")
		cacheSize += snap.Value("reply_cache_size")
		batched = max(batched, snap.Value("batched_io"))

		router := srv.Router().Metrics().Snapshot()
		add("core.router_expensive_verifications", router.Value("router_expensive_verifications"))
		add("core.router_sessions", router.Value("router_sessions"))
		add("core.router_session_log", router.Value("router_session_log"))
	}
	for _, cl := range clients {
		snap := cl.Stats().Snapshot()
		for name, inst := range clientCounters {
			add(name, snap.Value(inst))
		}
	}
	// Gauges describe the environment just finished, not a sum over epochs.
	res.Layer.set("transport.reply_cache_size", float64(cacheSize), "count", 0)
	res.Layer.set("transport.batched_io", float64(batched), "count", 0)
	res.Layer.set("transport.read_batch_fill", ratio(res.io.readDatagrams, res.io.readBatches), "count", 0)
	res.Layer.set("transport.write_batch_fill", ratio(res.io.writeDatagrams, res.io.writeBatches), "count", 0)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
