//! Error-free summation of `f64` values and products.
//!
//! [`ExactSum`] is a fixed-point superaccumulator: a wide limb array that
//! covers every bit position a double (or a product of two doubles) can
//! occupy, so adding and subtracting terms is *exact* — no rounding happens
//! until [`ExactSum::value`] collapses the accumulator back to the nearest
//! `f64` (round-to-nearest-even, the IEEE default).
//!
//! ## Why the objective needs this
//!
//! The paper's objective `Σ R_{i-1}·C_i` is a sum of products. Evaluated
//! with naive left-to-right `f64` accumulation, its low bits depend on the
//! *order* in which terms are added — which makes a bit-for-bit `O(1)`
//! delta evaluation of a local-search move mathematically impossible: an
//! adjacent swap changes two partial sums in the middle of the chain, and
//! the rounding of every later partial sum shifts with them.
//!
//! Accumulating the terms exactly and rounding once makes the objective a
//! pure function of the *multiset* of terms. A move that replaces the span
//! `[a, b)` of a deployment order leaves every term outside the span
//! bitwise unchanged (runtime levels and build costs are set functions of
//! the prefix), so the moved order's objective is
//! `round(Σ ⊖ old span terms ⊕ new span terms)` — computable in
//! `O(span)` and *bit-identical* to a from-scratch evaluation. That
//! identity is what [`DeltaEvaluator`](crate::objective::DeltaEvaluator)
//! is built on and what `tests/delta_equivalence.rs` locks down.
//!
//! ## Representation
//!
//! `limbs[k]` holds (signed, with deferred carries) the weight-`2^(64k −
//! BIAS)` digit of the running sum. The range covers `2^-2148` (the lowest
//! bit of a product of two subnormals) through `2^2047` (the highest bit of
//! a product of two maximal doubles), plus headroom for carries. Each limb
//! is an `i128` accumulating signed 64-bit contributions, so ~2^62
//! additions are possible before any overflow — far beyond any realistic
//! use. A touched-limb window `[lo, hi]` keeps every operation (including
//! rounding and snapshot copies) proportional to the handful of limbs a
//! realistic workload actually exercises, not the full array.
//!
//! Rounding works on whole words: one pass over the window takes the sign,
//! a second carry-normalizes the magnitude while keeping only the top two
//! words and a sticky OR, and two shifts produce the mantissa and round bit
//! (about 20 ns on the objective's 2–4-limb windows, against about 160 ns
//! for the earlier bit-by-bit assembly).
//!
//! Non-finite terms (NaN, ±∞) are recorded rather than summed, so
//! [`ExactSum::value`] returns what IEEE addition would: NaN for a NaN term
//! or for `+∞` and `−∞` together, otherwise the infinity that was added.
//! The finite path pays one predictable branch per term for this.

/// Number of 64-bit limbs: bit positions `[-BIAS, 64·LIMBS - BIAS)`.
const LIMBS: usize = 68;
/// Absolute value of the lowest representable bit position (`2^-2148` is
/// the lowest bit of a product of two subnormals; rounded up to a limb
/// boundary with one limb of slack).
const BIAS: i32 = 2176;
/// Mask of one limb.
const M64: u128 = u64::MAX as u128;
/// [`ExactSum::special`] flags: a `+∞`, a `−∞` or a NaN term was added.
const POS_INF: u8 = 1;
const NEG_INF: u8 = 2;
const NAN: u8 = 4;

/// An exact (error-free) accumulator of `f64` terms and `f64·f64` products.
///
/// The result of [`ExactSum::value`] is the correctly rounded
/// (nearest-even) double of the exact sum, independent of the order in
/// which terms were added — the property the incremental objective
/// evaluation relies on.
///
/// Non-finite terms are not summed but recorded: once one was added,
/// [`ExactSum::value`] is NaN (a NaN term, or `+∞` and `−∞` together) or
/// the one infinity that was added, as IEEE addition would give.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSum {
    limbs: Vec<i128>,
    /// Touched-limb window, inclusive; `lo > hi` means empty (sum is 0).
    lo: usize,
    hi: usize,
    /// Non-finite terms seen (`POS_INF | NEG_INF | NAN`); 0 on the finite
    /// path.
    special: u8,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a finite `f64` into `(integer mantissa, exponent of mantissa bit
/// 0, sign)`: `v = sign · m · 2^e`. Integer decomposition sidesteps the
/// under/overflow pitfalls of Dekker-style floating-point splitting.
#[inline]
fn decompose(v: f64) -> (u64, i32, bool) {
    debug_assert!(v.is_finite(), "ExactSum term must be finite, got {v}");
    let bits = v.to_bits();
    let negative = bits >> 63 == 1;
    let exp_field = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp_field == 0 {
        (frac, -1074, negative) // subnormal (or zero)
    } else {
        (frac | (1u64 << 52), exp_field - 1075, negative)
    }
}

impl ExactSum {
    /// Creates an empty accumulator (sum = 0).
    pub fn new() -> Self {
        Self {
            limbs: vec![0; LIMBS],
            lo: LIMBS,
            hi: 0,
            special: 0,
        }
    }

    /// Resets the sum to 0 (touched limbs only; O(window)).
    pub fn clear(&mut self) {
        if self.lo <= self.hi {
            self.limbs[self.lo..=self.hi].fill(0);
        }
        self.lo = LIMBS;
        self.hi = 0;
        self.special = 0;
    }

    /// Copies `other`'s state into `self` without reallocating, touching
    /// only the union of the two windows (the cheap snapshot-restore the
    /// delta evaluator leans on).
    pub fn assign_from(&mut self, other: &ExactSum) {
        if self.lo <= self.hi {
            self.limbs[self.lo..=self.hi].fill(0);
        }
        if other.lo <= other.hi {
            self.limbs[other.lo..=other.hi].copy_from_slice(&other.limbs[other.lo..=other.hi]);
        }
        self.lo = other.lo;
        self.hi = other.hi;
        self.special = other.special;
    }

    #[inline]
    fn touch(&mut self, lo: usize, hi: usize) {
        if lo < self.lo {
            self.lo = lo;
        }
        if hi > self.hi {
            self.hi = hi;
        }
    }

    /// Adds `m · 2^(e)` (sign-applied) where `m` occupies up to 106 bits
    /// given as a `u128`.
    #[inline]
    fn add_wide(&mut self, m: u128, e: i32, negative: bool) {
        if m == 0 {
            return;
        }
        let pos = (e + BIAS) as usize; // e >= -2148 > -BIAS by construction
        let limb = pos / 64;
        let shift = (pos % 64) as u32;
        // m << shift spans up to 106 + 63 = 169 bits: split into three
        // 64-bit words without ever shifting a u128 past its width.
        let w0 = (m & M64) as u64;
        let w1 = (m >> 64) as u64;
        let (r0, r1, r2) = if shift == 0 {
            (w0, w1, 0u64)
        } else {
            (
                w0 << shift,
                (w1 << shift) | (w0 >> (64 - shift)),
                w1 >> (64 - shift),
            )
        };
        let sign: i128 = if negative { -1 } else { 1 };
        self.limbs[limb] += r0 as i128 * sign;
        let mut hi = limb;
        if r1 != 0 {
            self.limbs[limb + 1] += r1 as i128 * sign;
            hi = limb + 1;
        }
        if r2 != 0 {
            self.limbs[limb + 2] += r2 as i128 * sign;
            hi = limb + 2;
        }
        self.touch(limb, hi);
    }

    /// Records a non-finite term (off the hot path).
    #[cold]
    fn add_special(&mut self, v: f64) {
        self.special |= if v.is_nan() {
            NAN
        } else if v > 0.0 {
            POS_INF
        } else {
            NEG_INF
        };
    }

    /// Adds a single `f64` term exactly.
    #[inline]
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            return self.add_special(v);
        }
        let (m, e, neg) = decompose(v);
        self.add_wide(m as u128, e, neg);
    }

    /// Subtracts a single `f64` term exactly.
    #[inline]
    pub fn sub(&mut self, v: f64) {
        self.add(-v);
    }

    /// Adds the *exact* product `a · b` (no intermediate rounding).
    #[inline]
    pub fn add_prod(&mut self, a: f64, b: f64) {
        if !(a.is_finite() & b.is_finite()) {
            return self.add_special(a * b);
        }
        let (ma, ea, na) = decompose(a);
        let (mb, eb, nb) = decompose(b);
        self.add_wide(ma as u128 * mb as u128, ea + eb, na != nb);
    }

    /// Subtracts the *exact* product `a · b`.
    #[inline]
    pub fn sub_prod(&mut self, a: f64, b: f64) {
        self.add_prod(-a, b);
    }

    /// The exact sum rounded once to the nearest `f64` (ties to even) —
    /// the canonical reading every evaluation path agrees on bit-for-bit.
    ///
    /// Cost is two passes over the touched window, not over the total
    /// range, and no buffer: the first pass takes the sign from the carry
    /// out of the top limb, the second carry-normalizes `|sum|` limb by limb
    /// while keeping only the top nonzero word, the word below it and the OR
    /// of all lower words. Two word shifts then give the 53 mantissa bits
    /// and the round bit, and the lower bits and words give the sticky bit.
    /// About 20 ns for the 2–4-limb windows of the objective's sums, on a
    /// 2-core x86-64 VM.
    pub fn value(&self) -> f64 {
        if self.special != 0 {
            return special_value(self.special);
        }
        round_window(self.lo, self.hi, |k| self.limbs[k])
    }

    /// `self + other`, exactly, rounded once: the same value as
    /// [`ExactSum::value`] on an accumulator holding both sums' terms,
    /// without building it.
    pub(crate) fn value_plus(&self, other: &ExactSum) -> f64 {
        if (self.special | other.special) != 0 {
            return special_value(self.special | other.special);
        }
        // Limbs outside a window are zero, so the union window covers both.
        round_window(self.lo.min(other.lo), self.hi.max(other.hi), |k| {
            self.limbs[k] + other.limbs[k]
        })
    }
}

/// The IEEE sum of the recorded non-finite terms (finite terms do not
/// change it).
#[cold]
fn special_value(special: u8) -> f64 {
    if special & NAN != 0 || special & (POS_INF | NEG_INF) == POS_INF | NEG_INF {
        f64::NAN
    } else if special & POS_INF != 0 {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
}

/// Rounds the exact sum `Σ_k limb(k) · 2^(64k − BIAS)` over the window
/// `[lo, hi]` to the nearest `f64`, ties to even.
#[inline]
fn round_window(lo: usize, hi: usize, limb: impl Fn(usize) -> i128) -> f64 {
    if lo > hi {
        return 0.0;
    }
    // Sign: the carry out of the top limb is negative exactly when the sum
    // is (the normalized words below it are in [0, 2^64)).
    let mut carry: i128 = 0;
    for k in lo..=hi {
        carry = (limb(k) + carry) >> 64; // arithmetic shift: floor division
    }
    let negative = carry < 0;

    // Carry-normalize |sum| (negated limbs when the sum is negative). Past
    // `hi` only the final carry is left to emit, at most two words.
    let mut carry: i128 = 0;
    let mut prev = 0u64; // word k − 1
    let mut below = 0u64; // OR of the words under k − 1
    let (mut top_k, mut top, mut next, mut sticky_words) = (usize::MAX, 0u64, 0u64, 0u64);
    let mut k = lo;
    while k <= hi || carry != 0 {
        let l = if k <= hi { limb(k) } else { 0 };
        let t = if negative { carry - l } else { carry + l };
        let w = t as u64; // t mod 2^64
        carry = t >> 64;
        if w != 0 {
            (top_k, top, next, sticky_words) = (k, w, prev, below);
        }
        below |= prev;
        prev = w;
        k += 1;
    }
    if top_k == usize::MAX {
        return 0.0;
    }

    // `v` holds the top word and the one below it; its bit 0 sits at
    // absolute position `base`. The mantissa runs [lsb, msb]; the shift
    // that aligns it is at least 12, as the top word holds the msb.
    let b = 63 - top.leading_zeros() as i32;
    let base = (top_k as i32 - 1) * 64 - BIAS;
    let msb = base + 64 + b;
    let lsb = (msb - 52).max(-1074);
    let v = ((top as u128) << 64) | next as u128;
    let shift = (lsb - base) as u32;
    let (mut mantissa, round, sticky) = if shift < 128 {
        let below_round = v & ((1u128 << (shift - 1)) - 1);
        (
            (v >> shift) as u64,
            (v >> (shift - 1)) & 1 == 1,
            below_round != 0 || sticky_words != 0,
        )
    } else if shift == 128 {
        // Deep underflow: the round bit is the top bit of `v`.
        (0, v >> 127 == 1, v << 1 != 0 || sticky_words != 0)
    } else {
        (0, false, true) // below half the smallest subnormal
    };
    if round && (sticky || mantissa & 1 == 1) {
        mantissa += 1;
    }
    let mut e = lsb;
    if mantissa == 1u64 << 53 {
        mantissa = 1u64 << 52;
        e += 1;
    }

    // Assemble the IEEE-754 bits.
    let bits = if mantissa == 0 {
        0
    } else if e == -1074 && mantissa < (1u64 << 52) {
        mantissa // subnormal: exponent field 0
    } else {
        // Normal: value = 1.frac · 2^(e + 52).
        let exp_field = (e + 52 + 1023) as u64;
        if exp_field >= 2047 {
            f64::INFINITY.to_bits() // past f64::MAX: rounds to infinity
        } else {
            (exp_field << 52) | (mantissa & ((1u64 << 52) - 1))
        }
    };
    f64::from_bits(bits | ((negative as u64) << 63))
}

#[cfg(test)]
impl ExactSum {
    /// The bit-by-bit rounding `value` used before the word-level one:
    /// the reference the proptest below compares it with.
    fn value_reference(&self) -> f64 {
        if self.lo > self.hi {
            return 0.0;
        }
        let len = self.hi - self.lo + 1;
        // Window + slack for carry propagation past the top limb.
        let mut buf = [0i128; LIMBS + 4];
        buf[..len].copy_from_slice(&self.limbs[self.lo..=self.hi]);

        // Carry-normalize into words in [0, 2^64); final carry is 0 (sum
        // >= 0) or -1 (sum < 0, two's-complement form).
        let mut words = [0u64; LIMBS + 4];
        let mut carry: i128 = 0;
        let mut top = 0usize;
        for (k, w) in buf.iter().enumerate().take(len) {
            let t = *w + carry;
            carry = t >> 64; // arithmetic shift: floor division by 2^64
            let rem = (t - (carry << 64)) as u128 as u64;
            words[k] = rem;
            if rem != 0 {
                top = top.max(k);
            }
        }
        let mut extra = len;
        while carry != 0 && carry != -1 {
            let t = carry;
            carry = t >> 64;
            let rem = (t - (carry << 64)) as u128 as u64;
            words[extra] = rem;
            if rem != 0 {
                top = top.max(extra);
            }
            extra += 1;
        }
        let negative = carry == -1;
        if negative {
            // Magnitude = two's-complement negation over `extra` words.
            let mut borrow_done = false;
            for w in words.iter_mut().take(extra) {
                *w = !*w;
                if !borrow_done {
                    let (nw, overflow) = w.overflowing_add(1);
                    *w = nw;
                    borrow_done = !overflow;
                }
            }
            if !borrow_done {
                words[extra] = 1;
                extra += 1;
            }
            top = 0;
            for k in (0..extra).rev() {
                if words[k] != 0 {
                    top = k;
                    break;
                }
            }
        }
        if words[..extra].iter().all(|&w| w == 0) {
            return 0.0;
        }

        // Absolute bit position of the most significant set bit.
        let msb_in_top = 63 - words[top].leading_zeros() as i32;
        let msb = (self.lo as i32 + top as i32) * 64 + msb_in_top - BIAS;
        if msb < -1075 {
            // Added for the comparison: below half the smallest subnormal
            // `mant_bits` went negative and the loop below overflowed.
            return f64::from_bits((negative as u64) << 63);
        }

        // Mantissa bits run [target_lsb, msb]; below target_lsb only the
        // round bit and a sticky OR survive.
        let target_lsb = (msb - 52).max(-1074);
        let mant_bits = (msb - target_lsb + 1) as u32; // <= 53

        // Extracts the bit at absolute position `p` (0 if below range).
        let bit_at = |p: i32| -> u64 {
            let off = p + BIAS - (self.lo as i32) * 64;
            if off < 0 {
                return 0;
            }
            let (w, b) = ((off / 64) as usize, (off % 64) as u32);
            if w >= extra {
                0
            } else {
                (words[w] >> b) & 1
            }
        };

        // Assemble the mantissa bit by bit (<= 53 iterations; bits below the
        // touched window read as zero, which also covers the subnormal case
        // where `target_lsb` sits under the window).
        let mut mantissa: u64 = 0;
        for k in 0..mant_bits {
            mantissa |= bit_at(target_lsb + k as i32) << k;
        }

        // Round bit + sticky (any set bit strictly below the round bit).
        let round = bit_at(target_lsb - 1) == 1;
        let sticky = if !round {
            false
        } else {
            let cut = target_lsb - 1 + BIAS - (self.lo as i32) * 64; // offset of the round bit
            if cut <= 0 {
                false
            } else {
                let (w, b) = ((cut / 64) as usize, (cut % 64) as u32);
                words[..w.min(extra)].iter().any(|&word| word != 0)
                    || (w < extra && b > 0 && words[w] & ((1u64 << b) - 1) != 0)
            }
        };
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        let mut lsb = target_lsb;
        if mantissa == 1u64 << 53 {
            mantissa = 1u64 << 52;
            lsb += 1;
        }

        // Assemble the IEEE-754 bits.
        let bits = if mantissa == 0 {
            0
        } else if lsb == -1074 && mantissa < (1u64 << 52) {
            mantissa // subnormal: exponent field 0
        } else {
            // Normal: value = 1.frac · 2^(lsb + mant_len - 1). Renormalize
            // in case rounding a subnormal-range value reached 2^52.
            let mut m = mantissa;
            let mut e = lsb;
            while m < (1u64 << 52) {
                m <<= 1;
                e -= 1;
            }
            let exp_field = (e + 52 + 1023) as u64;
            debug_assert!((1..=2046).contains(&exp_field), "overflow in ExactSum");
            (exp_field << 52) | (m & ((1u64 << 52) - 1))
        };
        f64::from_bits(bits | ((negative as u64) << 63))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum_of(values: &[f64]) -> f64 {
        let mut acc = ExactSum::new();
        for &v in values {
            acc.add(v);
        }
        acc.value()
    }

    #[test]
    fn single_values_round_trip_exactly() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            1e300,
            -1e300,
            1e-300,
            5e-324, // smallest subnormal
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            123456.789,
            (1u64 << 53) as f64,
        ] {
            assert_eq!(sum_of(&[v]).to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn single_product_matches_ieee_multiplication() {
        // A lone product rounded once is exactly the IEEE product.
        let cases = [
            (3.0, 7.0),
            (0.1, 0.2),
            (1e200, 1e-200),
            (1e-308, 0.5), // subnormal result
            (5e-324, 1.0), // subnormal input
            (-0.1, 0.7),
            (123.456, -789.012),
            (1e160, 1e140), // huge but finite
        ];
        for (a, b) in cases {
            let mut acc = ExactSum::new();
            acc.add_prod(a, b);
            assert_eq!(acc.value().to_bits(), (a * b).to_bits(), "{a} * {b}");
        }
    }

    #[test]
    fn order_independence_bit_for_bit() {
        let values = [
            1e16, -1.0, 0.1, 7.25, -1e16, 3.5e-5, 1e10, -0.3, 2.5e-13, 42.0,
        ];
        let forward = sum_of(&values);
        let mut rev = values;
        rev.reverse();
        assert_eq!(forward.to_bits(), sum_of(&rev).to_bits());
        // Interleave adds and cancelling subs.
        let mut acc = ExactSum::new();
        acc.add(1e18);
        for &v in &values {
            acc.add(v);
        }
        acc.sub(1e18);
        assert_eq!(forward.to_bits(), acc.value().to_bits());
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        let mut acc = ExactSum::new();
        acc.add(1e100);
        acc.add(1.0);
        acc.sub(1e100);
        assert_eq!(acc.value(), 1.0);
        acc.sub(1.0);
        assert_eq!(acc.value(), 0.0);
        // Product cancellation.
        acc.add_prod(0.1, 0.2);
        acc.sub_prod(0.1, 0.2);
        assert_eq!(acc.value(), 0.0);
    }

    #[test]
    fn small_integer_sums_are_exact() {
        let mut acc = ExactSum::new();
        let mut expect: i64 = 0;
        for k in 1..=1000i64 {
            let v = (k * if k % 3 == 0 { -1 } else { 1 }) as f64;
            acc.add(v);
            expect += v as i64;
        }
        assert_eq!(acc.value(), expect as f64);
    }

    #[test]
    fn ties_round_to_even() {
        // 2^53 + 1 is exactly halfway between 2^53 and 2^53 + 2 → even.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(1.0);
        assert_eq!(acc.value(), (1u64 << 53) as f64);
        // 2^53 + 3 is halfway between 2^53 + 2 and 2^53 + 4 → 2^53 + 4.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(3.0);
        assert_eq!(acc.value(), ((1u64 << 53) + 4) as f64);
        // Sticky bit breaks the tie upward: 2^53 + 1 + 2^-10.
        let mut acc = ExactSum::new();
        acc.add((1u64 << 53) as f64);
        acc.add(1.0);
        acc.add(2.0_f64.powi(-10));
        assert_eq!(acc.value(), ((1u64 << 53) + 2) as f64);
    }

    #[test]
    fn negative_totals_round_symmetrically() {
        let values = [1e16, -1.0, 0.1, 7.25, -1e16, 3.5e-5];
        let pos = sum_of(&values);
        let neg: Vec<f64> = values.iter().map(|v| -v).collect();
        assert_eq!((-pos).to_bits(), sum_of(&neg).to_bits());
    }

    #[test]
    fn products_accumulate_with_more_precision_than_naive() {
        // Σ aᵢ·bᵢ where naive fused rounding loses bits.
        let mut acc = ExactSum::new();
        acc.add_prod(1e8 + 1.0, 1e8 - 1.0); // 1e16 - 1
        acc.sub_prod(1e8, 1e8); // -1e16
        assert_eq!(acc.value(), -1.0);
    }

    #[test]
    fn assign_from_and_clear_reuse_allocations() {
        let mut a = ExactSum::new();
        a.add_prod(123.456, 789.01);
        a.add(0.5);
        let mut b = ExactSum::new();
        b.add(1e300); // touch a far-away window first
        b.assign_from(&a);
        assert_eq!(a.value().to_bits(), b.value().to_bits());
        b.add(1.0);
        assert_ne!(a.value().to_bits(), b.value().to_bits());
        b.clear();
        assert_eq!(b.value(), 0.0);
        b.assign_from(&a);
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn subnormal_sums_and_underflow_to_zero() {
        let tiny = 5e-324;
        let mut acc = ExactSum::new();
        acc.add(tiny);
        acc.add(tiny);
        assert_eq!(acc.value(), 1e-323);
        // Exact zero after cancellation of subnormals.
        acc.sub(tiny);
        acc.sub(tiny);
        assert_eq!(acc.value(), 0.0);
        // A product strictly below the subnormal range still accumulates
        // exactly and contributes once it is amplified back.
        let mut acc = ExactSum::new();
        acc.add_prod(5e-324, 0.5); // 2^-1075: not representable alone
        assert_eq!(acc.value(), 0.0, "rounds to even (zero)");
        acc.add_prod(5e-324, 0.5);
        assert_eq!(acc.value(), 5e-324, "two halves make a whole ulp");
    }

    #[test]
    fn randomized_sums_match_wide_reference() {
        // Cross-check value() against a simple i128 fixed-point reference on
        // values scaled so the reference stays exact.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut acc = ExactSum::new();
            let mut reference: i128 = 0; // units of 2^-20
            for _ in 0..40 {
                let raw = (next() % (1 << 40)) as i64 - (1 << 39);
                let v = raw as f64 / (1u64 << 20) as f64; // exact in f64
                acc.add(v);
                reference += raw as i128;
            }
            let expect = reference as f64 / (1u64 << 20) as f64;
            assert_eq!(acc.value().to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn non_finite_terms_propagate() {
        let with = |terms: &[f64]| {
            let mut acc = ExactSum::new();
            acc.add(1.5);
            for &t in terms {
                acc.add(t);
            }
            acc.add_prod(2.0, 3.0);
            acc.value()
        };
        assert!(with(&[f64::NAN]).is_nan());
        assert_eq!(with(&[f64::INFINITY]), f64::INFINITY);
        assert_eq!(with(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        assert_eq!(with(&[f64::INFINITY, f64::INFINITY]), f64::INFINITY);
        assert!(with(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(with(&[f64::INFINITY, f64::NAN]).is_nan());

        // Subtracting +∞ adds −∞; ∞ · 0 is NaN; ∞ · (−2) is −∞.
        let mut acc = ExactSum::new();
        acc.sub(f64::INFINITY);
        assert_eq!(acc.value(), f64::NEG_INFINITY);
        acc.add(f64::INFINITY);
        assert!(acc.value().is_nan());
        let mut acc = ExactSum::new();
        acc.add_prod(f64::INFINITY, 0.0);
        assert!(acc.value().is_nan());
        let mut acc = ExactSum::new();
        acc.add_prod(f64::INFINITY, -2.0);
        assert_eq!(acc.value(), f64::NEG_INFINITY);
        acc.sub_prod(f64::NEG_INFINITY, 1.0);
        assert!(acc.value().is_nan(), "−∞ plus +∞");

        // The flags travel with the accumulator and are reset by `clear`.
        let mut copy = ExactSum::new();
        copy.assign_from(&acc);
        assert!(copy.value().is_nan());
        let finite = {
            let mut f = ExactSum::new();
            f.add(2.0);
            f
        };
        assert!(finite.value_plus(&acc).is_nan());
        copy.clear();
        copy.add(2.0);
        assert_eq!(copy.value(), 2.0);
        assert_eq!(copy.value_plus(&finite), 4.0);
    }

    #[test]
    fn sums_below_half_the_smallest_subnormal_round_to_zero() {
        // 2^-1076: a product of two subnormal-range factors.
        let mut acc = ExactSum::new();
        acc.add_prod(5e-324, 0.25);
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
        acc.sub_prod(5e-324, 0.5); // −2^-1076
        assert_eq!(acc.value().to_bits(), (-0.0f64).to_bits());
        acc.add_prod(5e-324, 0.5);
        acc.add_prod(5e-324, 0.25); // 2^-1075: a tie, to even
        assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
        acc.add_prod(5e-324, 0.25); // 2^-1075 + 2^-1076: above the tie
        assert_eq!(acc.value(), 5e-324);
    }

    #[test]
    fn rounding_up_into_the_next_binade() {
        for k in [-1000, -20, 0, 1, 52, 53, 900] {
            let top = 2f64.powi(k);
            for (below, want) in [
                (top * 2f64.powi(-54), top),                        // tie: to even
                (top * 2f64.powi(-53), top - top * 2f64.powi(-53)), // exact
                (top * 2f64.powi(-55), top),                        // under half
            ] {
                let mut acc = ExactSum::new();
                acc.add(top);
                acc.sub(below);
                assert_eq!(acc.value().to_bits(), want.to_bits(), "2^{k} - {below:e}");
                assert_eq!(acc.value().to_bits(), acc.value_reference().to_bits());
                acc.add_prod(-1.0, top);
                acc.add(top);
                acc.sub(2f64.powi(-1074)); // a far-away sticky bit
                assert_eq!(acc.value().to_bits(), acc.value_reference().to_bits());
            }
        }
    }

    #[test]
    fn finite_overflow_rounds_to_infinity() {
        let mut acc = ExactSum::new();
        acc.add(f64::MAX);
        acc.add(f64::MAX);
        assert_eq!(acc.value(), f64::INFINITY);
        acc.sub_prod(4.0, f64::MAX);
        assert_eq!(acc.value(), f64::NEG_INFINITY);
    }

    /// A random double drawn so that sums exercise every rounding path:
    /// plain values, exact ties, values close to a power of two, subnormals
    /// and exponents far apart (windows of many limbs).
    fn random_term(next: &mut impl FnMut() -> u64) -> f64 {
        let sign = if next() & 1 == 0 { 1.0 } else { -1.0 };
        let mantissa = (next() >> 11) as f64 / (1u64 << 53) as f64 + 0.5; // [0.5, 1)
        let v = match next() % 8 {
            0 => f64::from_bits(next() % (1u64 << 52)), // subnormal
            1 => (next() % 64) as f64 * 0.5,            // small halves: ties
            2 => 2f64.powi((next() % 60) as i32) - 2f64.powi(-((next() % 60) as i32)),
            3 => mantissa * 2f64.powi((next() % 1600) as i32 - 800), // far apart
            4 => mantissa * 2f64.powi(-1000 - (next() % 70) as i32), // near underflow
            _ => mantissa * 2f64.powi((next() % 80) as i32 - 40),
        };
        sign * v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The word-level rounding equals the bit-by-bit reference on every
        /// read of random sums: mixed signs, subnormals, products, exact
        /// cancellation (sums that return to 0, or to a small remainder),
        /// results that round up into the next binade and windows of many
        /// limbs.
        #[test]
        fn word_level_value_matches_the_reference(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut acc = ExactSum::new();
            let mut other = ExactSum::new();
            let mut added: Vec<(f64, f64)> = Vec::new();
            for step in 0..48 {
                match next() % 6 {
                    0 | 1 => {
                        let v = random_term(&mut next);
                        acc.add(v);
                        added.push((v, 1.0));
                    }
                    2 => {
                        let (a, b) = (random_term(&mut next), random_term(&mut next));
                        // Keep products finite.
                        let (a, b) = if (a * b).is_finite() { (a, b) } else { (a, 1.0) };
                        acc.add_prod(a, b);
                        added.push((a, b));
                    }
                    3 => {
                        // Cancel an earlier term exactly.
                        if let Some((a, b)) = added.pop() {
                            acc.sub_prod(a, b);
                        }
                    }
                    4 => {
                        // Just under a binade, on a fresh accumulator:
                        // ±(2^k − 2^(k−54)) ties up to ±2^k; a random
                        // sticky term below or above the tie decides it.
                        let k = (next() % 2000) as i32 - 1000;
                        let top = 2f64.powi(k) * if next() & 1 == 0 { 1.0 } else { -1.0 };
                        let mut edge = ExactSum::new();
                        edge.add(top);
                        edge.sub(top * 2f64.powi(-54));
                        if next() & 1 == 0 {
                            let sticky = (next() >> 11) as f64 * 2f64.powi(k - 120);
                            edge.add(if next() & 1 == 0 { sticky } else { -sticky });
                        }
                        prop_assert_eq!(edge.value().to_bits(), edge.value_reference().to_bits());
                        acc.add(top);
                        added.push((top, 1.0));
                    }
                    _ => other.add(random_term(&mut next)),
                }
                let got = acc.value();
                let want = acc.value_reference();
                prop_assert_eq!(got.to_bits(), want.to_bits(), "step {}: {} vs {}", step, got, want);
                let mut both = acc.clone();
                let mut rest = other.clone();
                rest.limbs.iter_mut().zip(&acc.limbs).for_each(|(r, a)| *r += a);
                rest.lo = rest.lo.min(acc.lo);
                rest.hi = rest.hi.max(acc.hi);
                both.assign_from(&rest);
                prop_assert_eq!(
                    acc.value_plus(&other).to_bits(),
                    both.value_reference().to_bits()
                );
            }
            // Drain every term: the sum returns to exactly 0.
            while let Some((a, b)) = added.pop() {
                acc.sub_prod(a, b);
            }
            prop_assert_eq!(acc.value().to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(acc.value_reference().to_bits(), 0.0f64.to_bits());
        }
    }
}
