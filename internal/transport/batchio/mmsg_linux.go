//go:build linux && (amd64 || arm64)

package batchio

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// UDP_SEGMENT is the cmsg type (and socket option) selecting UDP
// generic segmentation offload: one sendmsg carries a train of
// equal-size segments the kernel splits after a single traversal of the
// stack. The syscall package predates it, so the constant lives here.
const udpSegment = 103

// UDP_GRO is the socket option (and cmsg type) for UDP generic receive
// offload: the kernel may deliver a sender's GSO train, or segments it
// merged itself, as one read whose cmsg names the segment size.
const udpGRO = 104

// gsoMaxSegs caps one coalesced send below the kernel's
// UDP_MAX_SEGMENTS (64); gsoMaxBytes keeps the train inside one UDP
// payload.
const (
	gsoMaxSegs  = 60
	gsoMaxBytes = 64000
)

// cmsgSeg is one control-message block carrying a segment size — the
// uint16 of UDP_SEGMENT on writes, the int of UDP_GRO on reads — padded
// so a slice of them keeps each cmsghdr 8-byte aligned.
type cmsgSeg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

// cmsgSegSize is the control buffer each read header offers the kernel.
const cmsgSegSize = int(unsafe.Sizeof(cmsgSeg{}))

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-written datagram length, padded to 8-byte alignment. The layout
// is why this file is gated to amd64/arm64 — 32-bit targets pack the
// struct differently and take the portable fallback instead.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// hdrBlock is the reusable per-direction syscall scratch: mmsg headers,
// iovecs, and raw sockaddr storage, one triple per batch slot. It lives
// on the conn and is guarded by the direction's mutex, so steady-state
// batches run without a single allocation.
type hdrBlock struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names [][syscall.SizeofSockaddrAny]byte
	// ctrls holds one control block per header: the UDP_SEGMENT of a
	// write train, or the UDP_GRO segment size a read may come back with.
	// runs is the datagram count behind each write header, so partial
	// sendmmsg results map back to datagrams; rx is what the read split
	// learned about each received slot.
	ctrls []cmsgSeg
	runs  []int
	rx    []rxSlot
}

// rxSlot is one received slot as the split sees it: its length, the
// size of its segments (the whole length for a lone datagram), and how
// many datagrams it holds.
type rxSlot struct{ n, seg, segs int }

func (b *hdrBlock) ensure(n int) {
	if cap(b.hdrs) >= n {
		b.hdrs = b.hdrs[:n]
		b.iovs = b.iovs[:n]
		b.names = b.names[:n]
		b.ctrls = b.ctrls[:n]
		b.runs = b.runs[:n]
		b.rx = b.rx[:n]
		return
	}
	b.hdrs = make([]mmsghdr, n)
	b.iovs = make([]syscall.Iovec, n)
	b.names = make([][syscall.SizeofSockaddrAny]byte, n)
	b.ctrls = make([]cmsgSeg, n)
	b.runs = make([]int, n)
	b.rx = make([]rxSlot, n)
}

// mmsgConn moves batches of datagrams with one recvmmsg/sendmmsg per
// call. Syscalls run non-blocking inside RawConn read/write callbacks,
// so the conn keeps the netpoller's deadline and close semantics.
type mmsgConn struct {
	uc *net.UDPConn
	rc syscall.RawConn

	rmu sync.Mutex
	rbl hdrBlock
	// carried holds the segments of trains that did not fit the caller's
	// slots; observe sees each read that split or dropped a train.
	carried carry
	observe func(trains, segments, truncated int)

	wmu sync.Mutex
	wbl hdrBlock

	// The syscall callbacks are built once, so a batch hands RawConn the
	// same func value every time instead of a closure that escapes to the
	// heap per call. Their arguments and results ride in rx and tx,
	// guarded by the direction's mutex.
	recvFn  func(fd uintptr) bool
	topUpFn func(fd uintptr)
	sendFn  func(fd uintptr) bool
	rx      sysCall
	tx      sysCall

	// gso is the segmentation-offload probe state: 0 untried, 1
	// confirmed by a successful train, -1 refused by the kernel (old
	// kernel or unsupported route) — refusal permanently falls back to
	// one datagram per header.
	gso atomic.Int32
}

// sysCall is one recvmmsg/sendmmsg: the headers it passes, whether a
// read may park on the netpoller when nothing is queued, and its result.
type sysCall struct {
	hdrs []mmsghdr
	wait bool
	n    int
	err  syscall.Errno
}

func upgradeUDP(uc *net.UDPConn) (Conn, bool) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, false
	}
	c := &mmsgConn{uc: uc, rc: rc}
	c.recvFn = c.recvOnce
	c.topUpFn = func(fd uintptr) { c.recvOnce(fd) }
	c.sendFn = c.sendOnce
	return c, true
}

// EnableGRO turns on UDP generic receive offload for the socket behind c
// and reports whether it is on. It is for a socket whose every read is a
// ReadBatch into slots large enough for a whole train (64 KiB): ReadBatch
// cuts each train back into its datagrams, while a plain ReadFrom — the
// Single fallback, a wrapped conn — would return the train as one merged
// datagram. Conns without the mmsg path are left alone. observe, when
// non-nil, sees every ReadBatch on c that split or dropped a train.
//
// The option belongs to the socket, so every Upgrade of it splits trains,
// whichever one turned it on.
func EnableGRO(c Conn, observe func(trains, segments, truncated int)) bool {
	mc, ok := c.(*mmsgConn)
	if !ok {
		return false
	}
	var serr error
	if err := mc.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil || serr != nil {
		return false
	}
	mc.rmu.Lock()
	mc.observe = observe
	mc.rmu.Unlock()
	return true
}

// ReadBatch hands out carried segments first, then reads the socket
// into the slots left: with nothing delivered yet it waits, otherwise it
// only tops the batch up with what is already queued.
func (c *mmsgConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.rbl.ensure(len(ms))
	k := c.carried.take(ms)
	for k < len(ms) {
		n, err := c.recv(ms[k:], k == 0)
		if err != nil {
			if k > 0 {
				return k, nil // the next call reports it
			}
			return 0, err
		}
		if n == 0 {
			break
		}
		k += c.split(ms[k:], n)
		if k > 0 {
			break
		}
		// Every slot held a truncated train: nothing to hand back yet.
	}
	return k, nil
}

// recv runs one recvmmsg into ms, each header offering a control block
// for the UDP_GRO segment size. With wait it parks until a datagram
// arrives; without, an empty socket returns 0. The top-up runs under
// Control rather than Read: Read holds the descriptor's read lock, which
// another conn's read loop on the same socket keeps while it is parked,
// so a top-up through it would wait for that loop's next datagram.
func (c *mmsgConn) recv(ms []Message, wait bool) (int, error) {
	b := &c.rbl
	for i := range ms {
		buf := ms[i].Buf
		iov := &b.iovs[i]
		iov.Base = &buf[0]
		iov.SetLen(len(buf))
		h := &b.hdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    &b.names[i][0],
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     iov,
			Iovlen:  1,
			Control: (*byte)(unsafe.Pointer(&b.ctrls[i])),
		}
		h.hdr.SetControllen(cmsgSegSize)
		h.len = 0
	}
	c.rx = sysCall{hdrs: b.hdrs[:len(ms)], wait: wait}
	var err error
	if wait {
		err = c.rc.Read(c.recvFn)
	} else {
		err = c.rc.Control(c.topUpFn)
	}
	if err != nil {
		return 0, err
	}
	if c.rx.err != 0 {
		return 0, c.rx.err
	}
	return c.rx.n, nil
}

func (c *mmsgConn) recvOnce(fd uintptr) bool {
	r := &c.rx
	r1, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		if r.wait {
			return false
		}
		e, r1 = 0, 0
	}
	r.err = e
	if e == 0 {
		r.n = int(r1)
	}
	return true
}

// split turns the n slots recvmmsg filled at the head of ms into
// datagrams and returns how many slots now hold one. A slot whose
// UDP_GRO segment size is below its length is a train: its first
// segment stays in place and each further one is copied once into the
// slots that follow, after the slots received behind it have been moved
// out of the way. Segments beyond the caller's slots go to the carry, in
// order, ahead of everything received after them. A train the kernel
// truncated (MSG_TRUNC) is dropped whole; a lone datagram that did not
// fit keeps ReadFrom's silent truncation.
func (c *mmsgConn) split(ms []Message, n int) int {
	b := &c.rbl
	trains, segments, truncated := 0, 0, 0
	// Size every slot up, closing the gaps dropped trains leave.
	w := 0
	for i := 0; i < n; i++ {
		h := &b.hdrs[i]
		size, gso := int(h.len), groSize(h, &b.ctrls[i])
		if gso > 0 && h.hdr.Flags&syscall.MSG_TRUNC != 0 {
			truncated++
			continue
		}
		if w != i {
			size = copy(ms[w].Buf, ms[i].Buf[:size])
		}
		parseSockaddr(&ms[w], &b.names[i])
		segs, _, _ := splitCoalesced(size, gso, 0)
		seg := size
		if segs > 1 {
			seg = gso
			trains++
			segments += segs
		}
		b.rx[w] = rxSlot{n: size, seg: seg, segs: segs}
		w++
	}
	// Find where the caller's slots run out; from there on, carry.
	total := 0
	for i := 0; i < w; i++ {
		r := &b.rx[i]
		if total+r.segs <= len(ms) {
			total += r.segs
			continue
		}
		_, fit, cut := splitCoalesced(r.n, r.seg, len(ms)-total)
		c.carried.push(ms[i].Buf[cut:r.n], r.seg, &ms[i])
		for j := i + 1; j < w; j++ {
			c.carried.push(ms[j].Buf[:b.rx[j].n], b.rx[j].seg, &ms[j])
		}
		r.n, r.segs = cut, fit
		total += fit
		w = i + 1
		break
	}
	// Lay the segments out back to front: slot i's datagrams start at the
	// number of datagrams ahead of it, which is never below i, so every
	// slot written is either i itself or one already emptied.
	p := total
	for i := w - 1; i >= 0; i-- {
		r := b.rx[i]
		if r.segs == 0 {
			continue
		}
		src := &ms[i]
		dst := p - r.segs
		for j := r.segs - 1; j >= 0; j-- {
			lo := j * r.seg
			hi := min(lo+r.seg, r.n)
			if dst+j == i {
				src.N = hi
				continue
			}
			d := &ms[dst+j]
			d.N = copy(d.Buf, src.Buf[lo:hi])
			d.copyAddr(src)
		}
		p = dst
	}
	if c.observe != nil && trains+truncated > 0 {
		c.observe(trains, segments, truncated)
	}
	return total
}

// groSize returns the UDP_GRO segment size a read header came back with,
// or 0 when the kernel attached none.
func groSize(h *mmsghdr, ctrl *cmsgSeg) int {
	if h.hdr.Controllen < uint64(syscall.CmsgLen(4)) ||
		ctrl.hdr.Level != syscall.IPPROTO_UDP || ctrl.hdr.Type != udpGRO {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&ctrl.data[0])))
}

// carry holds, in arrival order, the segments a ReadBatch could not fit
// into its caller's slots; the next ReadBatch hands them out before it
// reads the socket again. Both slices keep their capacity, so a steady
// state carries without allocating.
type carry struct {
	bytes []byte
	segs  []carriedSeg
	next  int
}

// carriedSeg is one carried datagram: where its bytes sit in carry.bytes
// and its source address (ipLen 0 when the kernel reported none).
type carriedSeg struct {
	off, n int
	ipLen  int
	ip     [16]byte
	port   int
}

// push queues the datagrams of data, segments of seg bytes each, as
// received from src's address.
func (k *carry) push(data []byte, seg int, src *Message) {
	base := len(k.bytes)
	k.bytes = append(k.bytes, data...)
	segs, _, _ := splitCoalesced(len(data), seg, 0)
	for j := 0; j < segs; j++ {
		lo := j * seg
		s := carriedSeg{off: base + lo, n: min(seg, len(data)-lo)}
		if src.Addr != nil {
			s.ipLen = copy(s.ip[:], src.ua.IP)
			s.port = src.ua.Port
		}
		k.segs = append(k.segs, s)
	}
}

// take fills ms with carried segments and returns how many it filled.
func (k *carry) take(ms []Message) int {
	i := 0
	for ; i < len(ms) && k.next < len(k.segs); i++ {
		s := &k.segs[k.next]
		m := &ms[i]
		m.N = copy(m.Buf, k.bytes[s.off:s.off+s.n])
		m.Addr = nil
		if s.ipLen > 0 {
			m.setIPPort(s.ip[:s.ipLen], s.port)
		}
		k.next++
	}
	if k.next == len(k.segs) {
		k.bytes, k.segs, k.next = k.bytes[:0], k.segs[:0], 0
	}
	return i
}

func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	for i := range ms {
		if _, ok := ms[i].Addr.(*net.UDPAddr); !ok {
			// Non-UDP addr (wrapped conns hand these out): fall back to
			// per-datagram writes for the whole batch.
			return c.writeSingles(ms)
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbl.ensure(len(ms))
	nh, hadTrain, err := c.buildCoalesced(ms)
	if err != nil {
		return 0, err
	}
	sent, err := c.sendHdrs(nh)
	if err == nil {
		if hadTrain {
			c.gso.CompareAndSwap(0, 1)
		}
		return sent, nil
	}
	if hadTrain && c.gso.CompareAndSwap(0, -1) && sent < len(ms) {
		// The very first train was refused: disable segmentation for the
		// life of the conn and finish this batch one datagram per header.
		nh, _, _ = c.buildCoalesced(ms[sent:])
		n2, err2 := c.sendHdrs(nh)
		return sent + n2, err2
	}
	return sent, err
}

// buildCoalesced lays out the write headers for one batch. With GSO
// available, a run of consecutive equal-size datagrams to one
// destination becomes a single segmented send (cmsg UDP_SEGMENT): the
// kernel walks the UDP stack once per train instead of once per
// datagram. recvmmsg/sendmmsg alone only amortize syscall entry — the
// per-datagram stack traversal they leave behind is what caps pps, and
// trains are what remove it.
func (c *mmsgConn) buildCoalesced(ms []Message) (nh int, hadTrain bool, err error) {
	useGSO := c.gso.Load() >= 0
	for i := 0; i < len(ms); {
		m := &ms[i]
		run := 1
		if useGSO && m.N > 0 && 2*m.N <= gsoMaxBytes {
			for run < gsoMaxSegs && (run+1)*m.N <= gsoMaxBytes && i+run < len(ms) &&
				ms[i+run].N == m.N && SameAddr(ms[i+run].Addr, m.Addr) {
				run++
			}
		}
		for j := 0; j < run; j++ {
			s := &ms[i+j]
			iov := &c.wbl.iovs[i+j]
			iov.Base = nil
			if s.N > 0 {
				iov.Base = &s.Buf[0]
			}
			iov.SetLen(s.N)
		}
		nl, perr := putSockaddr(&c.wbl.names[nh], m.Addr.(*net.UDPAddr))
		if perr != nil {
			return 0, false, perr
		}
		h := &c.wbl.hdrs[nh]
		h.hdr = syscall.Msghdr{
			Name:    &c.wbl.names[nh][0],
			Namelen: nl,
			Iov:     &c.wbl.iovs[i],
			Iovlen:  uint64(run),
		}
		h.len = 0
		if run > 1 {
			ctrl := &c.wbl.ctrls[nh]
			ctrl.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
			ctrl.hdr.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl.data[0])) = uint16(m.N)
			h.hdr.Control = (*byte)(unsafe.Pointer(ctrl))
			h.hdr.SetControllen(syscall.CmsgSpace(2))
			hadTrain = true
		}
		c.wbl.runs[nh] = run
		nh++
		i += run
	}
	return nh, hadTrain, nil
}

// sendHdrs pushes nh prepared headers through sendmmsg, retrying after
// partial acceptance, and returns how many datagrams the accepted
// headers carried (a train counts every segment).
func (c *mmsgConn) sendHdrs(nh int) (int, error) {
	datagrams, sentH := 0, 0
	for sentH < nh {
		c.tx = sysCall{hdrs: c.wbl.hdrs[sentH:nh]}
		if err := c.rc.Write(c.sendFn); err != nil {
			return datagrams, err
		}
		if c.tx.err != 0 {
			return datagrams, c.tx.err
		}
		for i := 0; i < c.tx.n; i++ {
			datagrams += c.wbl.runs[sentH+i]
		}
		sentH += c.tx.n
	}
	return datagrams, nil
}

func (c *mmsgConn) sendOnce(fd uintptr) bool {
	t := &c.tx
	r1, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&t.hdrs[0])), uintptr(len(t.hdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	t.err = e
	if e == 0 {
		t.n = int(r1)
	}
	return true
}

func (c *mmsgConn) writeSingles(ms []Message) (int, error) {
	for i := range ms {
		m := &ms[i]
		if _, err := c.uc.WriteTo(m.Buf[:m.N], m.Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

func (c *mmsgConn) LocalAddr() net.Addr               { return c.uc.LocalAddr() }
func (c *mmsgConn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }
func (c *mmsgConn) Close() error                      { return c.uc.Close() }

// putSockaddr serializes ua into name and returns the sockaddr length.
// Ports are written byte-wise so the code is endianness-agnostic.
func putSockaddr(name *[syscall.SizeofSockaddrAny]byte, ua *net.UDPAddr) (uint32, error) {
	port := ua.Port
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, nil
	}
	if len(ua.IP) != net.IPv6len {
		return 0, net.InvalidAddrError("batchio: destination has no usable IP")
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	copy(sa.Addr[:], ua.IP)
	return syscall.SizeofSockaddrInet6, nil
}

// parseSockaddr installs the kernel-written source address into the
// slot's reusable UDPAddr.
func parseSockaddr(m *Message, name *[syscall.SizeofSockaddrAny]byte) {
	raw := (*syscall.RawSockaddrAny)(unsafe.Pointer(name))
	switch raw.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		m.setIPPort(sa.Addr[:], int(p[0])<<8|int(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		m.setIPPort(sa.Addr[:], int(p[0])<<8|int(p[1]))
	default:
		m.Addr = nil
	}
}
