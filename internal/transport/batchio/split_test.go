package batchio

import "testing"

// splitReference is splitCoalesced walked byte by byte: each byte joins
// the current segment until that segment holds gso bytes.
func splitReference(n, gso, free int) (segs, fit, cut int) {
	seg := make([]int, n)
	cur, used := 0, 0
	for b := range seg {
		if gso > 0 && gso < n && used == gso {
			cur, used = cur+1, 0
		}
		seg[b] = cur
		used++
	}
	segs = cur + 1
	fit = min(segs, max(free, 0))
	for _, s := range seg {
		if s < fit {
			cut++
		}
	}
	return segs, fit, cut
}

func FuzzSplitCoalesced(f *testing.F) {
	for _, c := range [][3]int{
		{3840, 64, 32}, {19200, 1200, 32}, {537, 100, 32}, {1200, 100, 8},
		{64, 64, 1}, {0, 0, 1}, {100, 0, 0}, {100, -5, 4}, {65507, 1, 64},
	} {
		f.Add(uint16(c[0]), int32(c[1]), int8(c[2]))
	}
	f.Fuzz(func(t *testing.T, n uint16, gso int32, free int8) {
		segs, fit, cut := splitCoalesced(int(n), int(gso), int(free))
		rs, rf, rc := splitReference(int(n), int(gso), int(free))
		if segs != rs || fit != rf || cut != rc {
			t.Fatalf("splitCoalesced(%d, %d, %d) = %d, %d, %d; byte-wise %d, %d, %d",
				n, gso, free, segs, fit, cut, rs, rf, rc)
		}
	})
}
