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
// binary that never exponentiates a generator never pays for them;
// G1Table / G2Table build the same for any other long-lived base.

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

// G1Table is a precomputed fixed-base table for a G1 element. It is
// immutable after construction and safe for concurrent use.
type G1Table struct {
	t *curveTable
}

// NewG1Table precomputes the window table for base (≈ 1000 point
// additions, paid once). The base must not be the identity.
func NewG1Table(base *G1) *G1Table {
	return &G1Table{t: newCurveTable(base.p)}
}

// Mul sets e = base^k and returns e.
func (tb *G1Table) Mul(e *G1, k *big.Int) *G1 {
	if e.p == nil {
		e.p = newCurvePoint()
	}
	tb.t.mul(e.p, k)
	return e
}

// G2Table is a precomputed fixed-base table for a G2 element. It is
// immutable after construction and safe for concurrent use.
type G2Table struct {
	t *twistTable
}

// NewG2Table precomputes the window table for base. The base must not be
// the identity and must lie in the order-n subgroup.
func NewG2Table(base *G2) *G2Table {
	return &G2Table{t: newTwistTable(base.p)}
}

// Mul sets e = base^k and returns e.
func (tb *G2Table) Mul(e *G2, k *big.Int) *G2 {
	if e.p == nil {
		e.p = newTwistPoint()
	}
	tb.t.mul(e.p, k)
	return e
}
