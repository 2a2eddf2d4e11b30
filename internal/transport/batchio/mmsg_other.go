//go:build !linux || !(amd64 || arm64)

package batchio

import "net"

// upgradeUDP has no multi-datagram syscall path on this target; Upgrade
// falls back to the portable single-datagram implementation.
func upgradeUDP(uc *net.UDPConn) (Conn, bool) { return nil, false }

// EnableGRO has no receive-offload path on this target: trains arrive as
// the datagrams the kernel already split, and nothing is turned on.
func EnableGRO(c Conn, observe func(trains, segments, truncated int)) bool { return false }
