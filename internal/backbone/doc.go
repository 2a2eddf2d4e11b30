// Package backbone is the inter-router plane of a metropolitan PEACE
// deployment: N mesh routers under one network operator discover each
// other over configured links, gossip peer liveness and distance-vector
// reachability, flood session-ownership hints, and relay data frames
// multi-hop across the backbone.
//
// Links are authenticated under the routers' NO-issued certificates
// (internal/cert): a RouterHello / RouterWelcome exchange signs fresh DH
// shares with the long-term router keys, and everything after rides in
// AEAD-sealed LinkEnvelopes with per-sender replay windows. The control
// plane is driven by events, with the gossip tick behind it for
// liveness, retransmission and expiry: configuring a peer dials it, a
// completed handshake sends the link's first round, and a route learned
// or shortened pulls the next round in.
//
// The headline path is roaming handoff. A user moving to a new AP
// presents its resumption ticket there; the adopting router validates
// the epoch pins, re-logs the M.2 accountability escrow
// (core.MeshRouter.AdoptResumedSession) and — because the ticket names a
// different issuing router — notifies its backbone Node, which floods an
// OwnerAd announcing the ownership transfer. During the grace window the
// previous router forwards in-flight data frames toward the adopting
// router instead of rejecting them, then releases the session (the audit
// log entry stays). The flood is the only copy an ad needs when nothing
// is lost: each ad is numbered per link, gossip rounds acknowledge the
// numbers, and a round re-sends only what stayed unacknowledged — while
// a link that is (re-)established starts from every unexpired ad, so a
// router cut off by a partition converges once the partition heals.
package backbone
