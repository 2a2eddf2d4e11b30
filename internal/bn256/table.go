package bn256

import (
	"math/big"
	"sync"
)

// This file implements fixed-base scalar multiplication with precomputed
// window tables. For a base B of order n, the table stores d·16^j·B for
// every window position j and digit d, so a 256-bit multiplication costs
// at most 64 point additions and no doublings. The canonical generators
// g1 and g2 get process-wide tables built lazily on first use, so a
// binary that never exponentiates a generator never pays for them.

const (
	tableWindowBits = 4
	tableWindows    = 256 / tableWindowBits // scalars are < 2^256 after reduction
	tableDigits     = 1<<tableWindowBits - 1
)

// curveTable holds win[j][d-1] = d·16^j·B for a fixed curve base B.
// Entries are Jacobian points and are never mutated after construction,
// so a table may be shared between goroutines.
type curveTable struct {
	win [tableWindows][tableDigits]*curvePoint
}

func newCurveTable(base *curvePoint) *curveTable {
	t := &curveTable{}
	cur := newCurvePoint().Set(base)
	for j := 0; j < tableWindows; j++ {
		t.win[j][0] = newCurvePoint().Set(cur)
		for d := 1; d < tableDigits; d++ {
			t.win[j][d] = newCurvePoint().Add(t.win[j][d-1], cur)
		}
		// cur ← 16·cur for the next window.
		next := newCurvePoint().Double(t.win[j][7]) // 8·16^j·B doubled
		cur.Set(next)
	}
	return t
}

// mul sets c = k·B. The scalar is reduced mod Order first (the table is
// only valid for bases of order n, which all table bases are).
func (t *curveTable) mul(c *curvePoint, k *big.Int) *curvePoint {
	k = reduceTableScalar(k)
	sum := newCurvePoint().SetInfinity()
	for j := 0; j < tableWindows; j++ {
		pos := j * tableWindowBits
		d := (k.Bit(pos+3) << 3) | (k.Bit(pos+2) << 2) | (k.Bit(pos+1) << 1) | k.Bit(pos)
		if d != 0 {
			sum.Add(sum, t.win[j][d-1])
		}
	}
	return c.Set(sum)
}

// twistTable is the G2 counterpart of curveTable.
type twistTable struct {
	win [tableWindows][tableDigits]*twistPoint
}

func newTwistTable(base *twistPoint) *twistTable {
	t := &twistTable{}
	cur := newTwistPoint().Set(base)
	for j := 0; j < tableWindows; j++ {
		t.win[j][0] = newTwistPoint().Set(cur)
		for d := 1; d < tableDigits; d++ {
			t.win[j][d] = newTwistPoint().Add(t.win[j][d-1], cur)
		}
		next := newTwistPoint().Double(t.win[j][7])
		cur.Set(next)
	}
	return t
}

func (t *twistTable) mul(c *twistPoint, k *big.Int) *twistPoint {
	k = reduceTableScalar(k)
	sum := newTwistPoint().SetInfinity()
	for j := 0; j < tableWindows; j++ {
		pos := j * tableWindowBits
		d := (k.Bit(pos+3) << 3) | (k.Bit(pos+2) << 2) | (k.Bit(pos+1) << 1) | k.Bit(pos)
		if d != 0 {
			sum.Add(sum, t.win[j][d-1])
		}
	}
	return c.Set(sum)
}

// reduceTableScalar brings k into [0, Order) when it does not already fit
// the table's 256-bit digit range. Scalars already in range are returned
// as-is (no allocation on the hot path).
func reduceTableScalar(k *big.Int) *big.Int {
	if k.Sign() < 0 || k.BitLen() > tableWindowBits*tableWindows {
		return new(big.Int).Mod(k, Order)
	}
	return k
}

// Lazy process-wide tables for the canonical generators.
var (
	curveGenTableOnce sync.Once
	curveGenTable     *curveTable

	twistGenTableOnce sync.Once
	twistGenTable     *twistTable
)

func baseCurveTable() *curveTable {
	curveGenTableOnce.Do(func() { curveGenTable = newCurveTable(curveGen) })
	return curveGenTable
}

func baseTwistTable() *twistTable {
	twistGenTableOnce.Do(func() { twistGenTable = newTwistTable(twistGen) })
	return twistGenTable
}
