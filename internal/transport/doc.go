// Package transport puts the PEACE router–user protocol on the wire, and
// nothing else: a versioned, length-framed datagram codec over UDP
// carrying its messages (M.1–M.3 beacons/requests/confirms, URL/CRL
// updates, puzzle challenges, resumes, keepalives and session data), plus
// the client- and router-side handshake state machines that make the
// three-message AKA survive a real lossy network: per-session
// retransmission with exponential backoff, duplicate suppression with
// confirm replay, and a concurrent server loop that feeds bursts of access
// requests through the router's bounded ingest queue so the
// batch-verification pipeline is exercised by real traffic.
//
// Frame layout (one frame per datagram, strict):
//
//	magic "PEAC" (4) ‖ version 1 B ‖ kind 1 B ‖ u32(len) ‖ payload
//
// The payload is the message's existing Marshal encoding (internal/core,
// internal/cert, internal/puzzle); the codec adds no per-message framing
// of its own. Decoding never panics on hostile bytes — see the fuzz
// targets — and rejects bad magic, unknown versions/kinds, length
// mismatches and oversized payloads before any allocation.
//
// The frame kind table is the one table for every PEACE datagram. The
// backbone's kinds carry formats internal/backbone owns; the user–user
// AKA's kinds (M̃.1–M̃.3, specified and tested in internal/core) are
// reserved and not served.
package transport
