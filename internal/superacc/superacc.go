// Package superacc implements an exact fixed-point superaccumulator
// (a Kulisch-style long accumulator) for float64 summation.
//
// The accumulator is a base-2^32 digit array spanning the entire binary64
// range (bit weights 2^-1074 through 2^1087, leaving 64 bits of headroom),
// so every float64 deposits exactly and the accumulated value is the
// mathematically exact sum regardless of the order of deposits.
//
// It is the test and reference oracle, not a serving engine: every exact
// sum the library serves (repro.ExactSum, the Binned algorithm) runs the
// binned engine, which shares no code with this package, and the tests,
// experiments and benchmarks check those sums against it. It is also the
// order-independent reference for the reproducibility experiments (the
// paper used GNU MPFR quad-double; this is strictly stronger for sums of
// float64).
package superacc

import (
	"math"
	"math/big"
)

const (
	limbBits = 32
	// Lowest represented bit weight is 2^bias (the smallest subnormal).
	bias = -1074
	// Total bit span: |bias| + 1024 (max exponent) + 64 headroom bits,
	// rounded up to whole limbs.
	numLimbs = (1074 + 1024 + 64 + limbBits - 1) / limbBits
	// After this many unnormalized deposits a carry pass runs to keep
	// each int64 limb from overflowing (each deposit moves < 2^33 per
	// limb: two 32-bit chunks can land in one limb across calls).
	normalizeEvery = 1 << 29
)

// Acc is an exact superaccumulator. The zero value is an accumulator
// holding zero, ready to use.
type Acc struct {
	// limbs[i] carries weight 2^(32*i + bias). Between normalizations
	// digits may stray outside [0, 2^32); the top limb holds the sign.
	limbs   [numLimbs]int64
	pending int  // deposits since the last carry pass
	nan     bool // a NaN or Inf was deposited; the sum is poisoned
}

// Reset restores a to zero.
func (a *Acc) Reset() { *a = Acc{} }

// Add deposits x exactly. NaN or ±Inf poisons the accumulator: Float64
// will return NaN from then on.
func (a *Acc) Add(x float64) {
	if !a.deposit(x) {
		return
	}
	a.pending++
	if a.pending >= normalizeEvery {
		a.normalize()
	}
}

// AddLdexp deposits x·2^e2 exactly, even when the scaled value exceeds
// the float64 range (it lands in the accumulator's 64 headroom bits).
// The binned package's test oracles use it to fold BN's 2^-512-scaled
// top bins in at their true weight; the binned finalize itself rounds
// without it. NaN or ±Inf x poisons the accumulator; a scaled
// value that would fall outside the represented bit span panics (only
// reachable beyond ~2^50 maximum-magnitude operands).
func (a *Acc) AddLdexp(x float64, e2 int) {
	if x == 0 {
		return
	}
	bits := math.Float64bits(x)
	neg := bits>>63 == 1
	expField := int(bits >> 52 & 0x7ff)
	mant := bits & (1<<52 - 1)
	var pos int
	switch expField {
	case 0x7ff:
		a.nan = true
		return
	case 0:
		pos = e2
	default:
		mant |= 1 << 52
		pos = expField - 1023 - 52 - bias + e2
	}
	if pos < 0 || pos/limbBits+2 >= numLimbs {
		panic("superacc: AddLdexp position out of range")
	}
	limb := pos / limbBits
	shift := uint(pos % limbBits)
	lo := int64((mant << shift) & 0xffffffff)
	mid := int64((mant >> (32 - shift)) & 0xffffffff)
	hi := int64(mant >> (64 - shift) & 0xffffffff)
	if shift == 0 {
		mid = int64(mant >> 32)
		hi = 0
	}
	if neg {
		a.limbs[limb] -= lo
		a.limbs[limb+1] -= mid
		a.limbs[limb+2] -= hi
	} else {
		a.limbs[limb] += lo
		a.limbs[limb+1] += mid
		a.limbs[limb+2] += hi
	}
	a.pending++
	if a.pending >= normalizeEvery {
		a.normalize()
	}
}

// deposit performs the limb work of Add without the carry bookkeeping;
// it reports whether x actually landed in the limbs (zeros contribute
// nothing; non-finite values only set the poison flag).
func (a *Acc) deposit(x float64) bool {
	if x == 0 {
		return false
	}
	bits := math.Float64bits(x)
	neg := bits>>63 == 1
	expField := int(bits >> 52 & 0x7ff)
	mant := bits & (1<<52 - 1)
	var pos int // absolute bit position of the mantissa LSB, relative to bias
	switch expField {
	case 0x7ff:
		a.nan = true
		return false
	case 0:
		// Subnormal: value = mant * 2^bias.
		pos = 0
	default:
		mant |= 1 << 52
		// value = mant * 2^(expField-1023-52); position relative to bias.
		pos = expField - 1023 - 52 - bias
	}
	limb := pos / limbBits
	shift := uint(pos % limbBits)
	// mant has <= 53 bits; shifted left by < 32 it spans <= 85 bits,
	// i.e. up to three 32-bit chunks.
	lo := int64((mant << shift) & 0xffffffff)
	mid := int64((mant >> (32 - shift)) & 0xffffffff)
	hi := int64(mant >> (64 - shift) & 0xffffffff)
	if shift == 0 {
		mid = int64(mant >> 32)
		hi = 0
	}
	if neg {
		a.limbs[limb] -= lo
		a.limbs[limb+1] -= mid
		a.limbs[limb+2] -= hi
	} else {
		a.limbs[limb] += lo
		a.limbs[limb+1] += mid
		a.limbs[limb+2] += hi
	}
	return true
}

// AddSlice deposits every element of xs with the batch kernel: the
// pending-deposit counter and the carry-pass check are hoisted out of
// the element loop and run once per batch. Every deposit is exact, so
// the accumulated value is bit-identical to element-wise Add.
func (a *Acc) AddSlice(xs []float64) {
	for len(xs) > 0 {
		batch := xs
		// Cap each batch at the remaining carry budget so limb magnitudes
		// stay in range even without per-element checks.
		if budget := normalizeEvery - a.pending; len(batch) > budget {
			batch = xs[:budget]
		}
		n := 0
		for _, x := range batch {
			if a.deposit(x) {
				n++
			}
		}
		a.pending += n
		if a.pending >= normalizeEvery {
			a.normalize()
		}
		xs = xs[len(batch):]
	}
}

// Merge adds the contents of b into a, exactly. b is left unchanged.
func (a *Acc) Merge(b *Acc) {
	if b.nan {
		a.nan = true
	}
	// Halve both pending budgets so limb magnitudes stay in range.
	a.normalize()
	bb := *b // copy so normalize doesn't mutate the argument
	bb.normalize()
	for i := range a.limbs {
		a.limbs[i] += bb.limbs[i]
	}
	a.pending = 2
	if a.pending >= normalizeEvery {
		a.normalize()
	}
}

// normalize runs a carry pass leaving each limb in [0, 2^32) except the
// top limb, which absorbs the sign.
func (a *Acc) normalize() {
	var carry int64
	for i := 0; i < numLimbs-1; i++ {
		v := a.limbs[i] + carry
		d := v & 0xffffffff // digit in [0, 2^32)
		carry = (v - d) >> limbBits
		a.limbs[i] = d
	}
	a.limbs[numLimbs-1] += carry
	a.pending = 0
}

// Sign returns -1, 0, or +1 according to the sign of the exact sum.
// NaN-poisoned accumulators return 0.
func (a *Acc) Sign() int {
	if a.nan {
		return 0
	}
	a.normalize()
	top := a.limbs[numLimbs-1]
	if top < 0 {
		return -1
	}
	if top > 0 {
		return 1
	}
	for i := numLimbs - 2; i >= 0; i-- {
		if a.limbs[i] != 0 {
			return 1
		}
	}
	return 0
}

// IsZero reports whether the exact sum is zero.
func (a *Acc) IsZero() bool { return !a.nan && a.Sign() == 0 }

// Float64 rounds the exact sum to the nearest float64 (ties to even).
func (a *Acc) Float64() float64 {
	if a.nan {
		return math.NaN()
	}
	a.normalize()
	neg := a.limbs[numLimbs-1] < 0
	limbs := a.limbs
	if neg {
		// Two's-complement negate the digit array.
		var borrow int64
		for i := 0; i < numLimbs; i++ {
			v := -limbs[i] - borrow
			d := v & 0xffffffff
			borrow = (d - v) >> limbBits
			limbs[i] = d
		}
		// borrow ends folded into the (conceptually infinite) sign bits.
		limbs[numLimbs-1] &= 0xffffffff
	}
	// Locate the highest set bit.
	h := -1
	for i := numLimbs - 1; i >= 0; i-- {
		if limbs[i] != 0 {
			h = i
			break
		}
	}
	if h < 0 {
		return 0
	}
	top := uint64(limbs[h])
	bl := bits64Len(top)
	T := h*limbBits + bl - 1 // absolute position of the leading bit
	if T <= 52 {
		// The whole value sits in the subnormal/lowest-normal grid and
		// is exactly representable: assemble <= 53 bits directly.
		v := uint64(limbs[0])
		if numLimbs > 1 {
			v |= uint64(limbs[1]) << 32
		}
		f := math.Ldexp(float64(v), bias)
		if neg {
			f = -f
		}
		return f
	}
	e := T + bias // floor(log2 |sum|)
	if e > 1023 {
		if neg {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	// Extract the 54 bits at positions T..T-53 (53 mantissa + round bit)
	// and a sticky bit for everything below.
	mant := extractBits(&limbs, T-53, 54)
	sticky := false
	for p := 0; p < T-53; p += limbBits {
		i := p / limbBits
		v := uint64(limbs[i])
		// Mask off bits at or above position T-53 within this limb.
		hiBit := T - 53 - i*limbBits
		if hiBit < limbBits {
			v &= (1 << uint(hiBit)) - 1
		}
		if v != 0 {
			sticky = true
			break
		}
	}
	round := mant & 1
	mant >>= 1 // now the 53-bit significand
	if round == 1 && (sticky || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			e++
			if e > 1023 {
				if neg {
					return math.Inf(-1)
				}
				return math.Inf(1)
			}
		}
	}
	f := math.Ldexp(float64(mant), e-52)
	if neg {
		f = -f
	}
	return f
}

// extractBits reads n (<= 63) bits starting at absolute bit position lo
// from the normalized digit array.
func extractBits(limbs *[numLimbs]int64, lo, n int) uint64 {
	var out uint64
	for k := 0; k < n; {
		p := lo + k
		i := p / limbBits
		s := uint(p % limbBits)
		if i >= numLimbs {
			break
		}
		chunk := uint64(limbs[i]) >> s
		take := limbBits - int(s)
		if take > n-k {
			take = n - k
		}
		out |= (chunk & ((1 << uint(take)) - 1)) << uint(k)
		k += take
	}
	return out
}

func bits64Len(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

// BigFloat returns the exact sum as a big.Float with prec bits of
// precision (use >= 2200 for a guaranteed-exact conversion).
func (a *Acc) BigFloat(prec uint) *big.Float {
	if a.nan {
		return nil
	}
	a.normalize()
	neg := a.limbs[numLimbs-1] < 0
	limbs := a.limbs
	if neg {
		var borrow int64
		for i := 0; i < numLimbs; i++ {
			v := -limbs[i] - borrow
			d := v & 0xffffffff
			borrow = (d - v) >> limbBits
			limbs[i] = d
		}
		limbs[numLimbs-1] &= 0xffffffff
	}
	z := new(big.Int)
	for i := numLimbs - 1; i >= 0; i-- {
		z.Lsh(z, limbBits)
		z.Add(z, big.NewInt(limbs[i]))
	}
	f := new(big.Float).SetPrec(prec).SetInt(z)
	f.SetMantExp(f, bias) // f = integer digits scaled by 2^bias
	if neg {
		f.Neg(f)
	}
	return f
}

// Sum computes the exact, correctly rounded sum of xs in one call.
func Sum(xs []float64) float64 {
	var a Acc
	a.AddSlice(xs)
	return a.Float64()
}
