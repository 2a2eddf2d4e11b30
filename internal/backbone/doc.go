// Package backbone is the inter-router plane of a metropolitan PEACE
// deployment: N mesh routers under one network operator discover each
// other over configured links, gossip peer liveness and distance-vector
// reachability, and route messages multi-hop to one router: data frames
// for sessions that moved, and each handoff's ownership to the router
// the session left.
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
// re-logs the M.2 escrow, and hands the node an owner ad, which the node
// relays to the previous router and to no other. During the grace window
// the previous router relays in-flight frames to the adopter, then
// releases the session; its audit log entry stays. The previous router
// acknowledges each ad end to end, and the adopter re-sends an ad at the
// tick until it is acknowledged or expires, so a loss or a partition
// heals by itself. Routers on the path forward the ad without keeping
// it.
package backbone
