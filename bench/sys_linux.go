package main

import (
	"net"
	"os"
	"strings"
	"syscall"
)

// udpSegment is the UDP_SEGMENT socket option (linux/udp.h), which the
// syscall package predates.
const udpSegment = 103

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return "linux " + strings.TrimSpace(string(b))
}

// gsoSupported reports whether the kernel accepts UDP_SEGMENT on a
// loopback UDP socket — the condition under which batchio's egress sends
// runs of equal-size datagrams as one segmented train.
func gsoSupported() bool {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return false
	}
	defer conn.Close()
	rc, err := conn.(*net.UDPConn).SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 1200)
	}); err != nil {
		return false
	}
	return serr == nil
}
