// Package batchio is the batched datagram I/O layer under the PEACE data
// plane. It wraps a UDP socket in a ReadBatch/WriteBatch interface that
// moves up to K datagrams per syscall via Linux recvmmsg/sendmmsg (raw
// syscalls behind build tags — the module stays dependency-free) and
// falls back to a portable loop of single ReadFrom/WriteTo calls on
// every other platform and on wrapped conns (e.g. the chaos
// fault-injecting PacketConn). Both implementations satisfy the same
// contract tests. On the mmsg path, writes coalesce equal-size runs to
// one destination into UDP GSO trains, and EnableGRO lets a socket take
// such trains whole: ReadBatch cuts them back into datagrams, carrying
// what does not fit into the next call.
//
// Around the socket sit the allocation-free plumbing pieces the server,
// shard loops, and backbone node share:
//
//   - Pool: a sync.Pool-backed, leak-checked buffer pool. Every hot-path
//     frame lives in a *Buf whose Release returns it; an atomic
//     outstanding counter makes leaks assertable in tests.
//   - Ring: a per-read-loop ring of pooled receive slots. A slot's bytes
//     and source address are the ring's until the next Prepare; a
//     handler that keeps either past its batch copies it.
//   - Egress: a coalescing writer. Replies, relays, and gossip queue
//     into a sendmmsg batch that flushes when full or after a small
//     deadline, so syscall amortization does not cost latency at low
//     load.
package batchio
