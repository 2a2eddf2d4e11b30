// Package backbone is the inter-router plane of a metropolitan PEACE
// deployment: N mesh routers under one network operator discover each
// other over configured links, gossip peer liveness and distance-vector
// reachability, flood session-ownership hints, and relay data frames
// multi-hop across the backbone.
//
// Links are authenticated under the routers' NO-issued certificates
// (internal/cert): a router hello / welcome exchange signs fresh DH
// shares with the long-term router keys, and everything after rides in
// AEAD-sealed link envelopes with per-sender replay windows. The package
// owns these wire formats (wire.go); their frame kinds are in transport's
// one kind table.
//
// A Node is one loop. A single goroutine owns its links, routes and
// ownership table and steps them at a time now: a step takes the inbox,
// runs the gossip tick when a round is due, flushes everything sealed in
// one sendmmsg, and returns the next deadline, which becomes the socket's
// read deadline. The router's shard loops hand adoptions and relays to
// the inbox and read the ownership and hop tables; they seal nothing. A
// handoff waits at most backboneFlushDelay there for the ones after it.
//
// A handoff goes like this. A user moving to a new AP presents its
// resumption ticket there. The adopting router checks the epoch pins,
// re-logs the M.2 escrow, and hands the node an owner ad for the backbone.
// During the grace window the previous router relays in-flight frames to
// the adopter, then releases the session; its audit log entry stays. Ads
// are numbered per link and re-sent until a round acknowledges them, and
// a link that comes up again starts from every unexpired ad, so a router
// that was cut off catches up after the partition heals.
package backbone
