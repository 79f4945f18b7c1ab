use std::cmp::Ordering;
use std::fmt;

use crate::{RatioError, Result};

/// An exact rational number: a reduced fraction of two `i128`s.
///
/// Invariants (maintained by every constructor and operation):
///
/// * the denominator is strictly positive;
/// * numerator and denominator are coprime;
/// * zero is represented canonically as `0/1`.
///
/// These invariants make derived `PartialEq`/`Hash` structural equality
/// coincide with numeric equality.
///
/// # Examples
///
/// ```
/// use aqua_rational::Ratio;
///
/// let half = Ratio::new(2, 4)?;
/// assert_eq!(half.numer(), 1);
/// assert_eq!(half.denom(), 2);
/// assert!(half < Ratio::ONE);
/// # Ok::<(), aqua_rational::RatioError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    numer: i128,
    denom: i128, // > 0, gcd(numer, denom) == 1
}

/// Greatest common divisor of the absolute values (binary-free Euclid).
fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.unsigned_abs() as i128;
    b = b.unsigned_abs() as i128;
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Stein's binary GCD: shifts and subtractions, no division (the
/// `i128` `%` of [`gcd`] is a library call on x86-64, not an
/// instruction).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `x` as an `i64`, if it fits: the operand range of the 64-bit paths,
/// on which no `i128` intermediate of the general paths can overflow.
fn narrow(x: i128) -> Option<i64> {
    i64::try_from(x).ok()
}

impl Ratio {
    /// The additive identity, `0/1`.
    pub const ZERO: Ratio = Ratio { numer: 0, denom: 1 };
    /// The multiplicative identity, `1/1`.
    pub const ONE: Ratio = Ratio { numer: 1, denom: 1 };

    /// Creates a reduced ratio from a numerator and denominator.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::ZeroDenominator`] if `denom == 0` and
    /// [`RatioError::Overflow`] if `denom == i128::MIN` (whose negation
    /// does not fit in `i128`).
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// assert_eq!(Ratio::new(-3, -6)?, Ratio::new(1, 2)?);
    /// # Ok::<(), aqua_rational::RatioError>(())
    /// ```
    pub fn new(numer: i128, denom: i128) -> Result<Ratio> {
        if denom == 0 {
            return Err(RatioError::ZeroDenominator);
        }
        if denom == i128::MIN || numer == i128::MIN {
            // `abs`/negation below would overflow; such extremes never
            // arise from sane assays, so reject rather than special-case.
            return Err(RatioError::Overflow);
        }
        if let (Ok(un), Ok(ud)) = (
            u64::try_from(numer.unsigned_abs()),
            u64::try_from(denom.unsigned_abs()),
        ) {
            let g = gcd_u64(un, ud);
            let n = i128::from(un / g);
            return Ok(Ratio {
                numer: if (numer < 0) != (denom < 0) { -n } else { n },
                denom: i128::from(ud / g),
            });
        }
        let (mut n, mut d) = (numer, denom);
        if d < 0 {
            n = -n;
            d = -d;
        }
        let g = gcd(n, d);
        if g > 1 {
            n /= g;
            d /= g;
        }
        Ok(Ratio { numer: n, denom: d })
    }

    /// Creates a ratio from an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// assert_eq!(Ratio::from_int(7).to_string(), "7");
    /// ```
    pub const fn from_int(n: i128) -> Ratio {
        Ratio { numer: n, denom: 1 }
    }

    /// The (reduced) numerator. Negative iff the ratio is negative.
    pub const fn numer(self) -> i128 {
        self.numer
    }

    /// The (reduced) denominator; always strictly positive.
    pub const fn denom(self) -> i128 {
        self.denom
    }

    /// Whether this ratio equals zero.
    pub const fn is_zero(self) -> bool {
        self.numer == 0
    }

    /// Whether this ratio is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.numer > 0
    }

    /// Whether this ratio is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.numer < 0
    }

    /// Whether this ratio is an integer (denominator 1).
    pub const fn is_integer(self) -> bool {
        self.denom == 1
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if any intermediate exceeds `i128`.
    pub fn checked_add(self, rhs: Ratio) -> Result<Ratio> {
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            narrow(self.numer),
            narrow(self.denom),
            narrow(rhs.numer),
            narrow(rhs.denom),
        ) {
            return Ok(add64(a, b as u64, c, d as u64));
        }
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d); using the
        // lcm keeps intermediates as small as possible.
        let g = gcd(self.denom, rhs.denom);
        let l = (self.denom / g)
            .checked_mul(rhs.denom)
            .ok_or(RatioError::Overflow)?;
        let left = self
            .numer
            .checked_mul(l / self.denom)
            .ok_or(RatioError::Overflow)?;
        let right = rhs
            .numer
            .checked_mul(l / rhs.denom)
            .ok_or(RatioError::Overflow)?;
        let n = left.checked_add(right).ok_or(RatioError::Overflow)?;
        Ratio::new(n, l)
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if any intermediate exceeds `i128`.
    pub fn checked_sub(self, rhs: Ratio) -> Result<Ratio> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if any intermediate exceeds `i128`.
    pub fn checked_mul(self, rhs: Ratio) -> Result<Ratio> {
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            narrow(self.numer),
            narrow(self.denom),
            narrow(rhs.numer),
            narrow(rhs.denom),
        ) {
            return Ok(mul64(a, b as u64, c, d as u64));
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.numer, rhs.denom);
        let g2 = gcd(rhs.numer, self.denom);
        let n = (self.numer / g1)
            .checked_mul(rhs.numer / g2)
            .ok_or(RatioError::Overflow)?;
        let d = (self.denom / g2)
            .checked_mul(rhs.denom / g1)
            .ok_or(RatioError::Overflow)?;
        Ratio::new(n, d)
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::ZeroDenominator`] if `rhs` is zero and
    /// [`RatioError::Overflow`] on overflow.
    pub fn checked_div(self, rhs: Ratio) -> Result<Ratio> {
        if rhs.is_zero() {
            return Err(RatioError::ZeroDenominator);
        }
        self.checked_mul(rhs.checked_recip()?)
    }

    /// Checked negation.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] only for `i128::MIN` numerators,
    /// which [`Ratio::new`] already rejects; in practice this never fails
    /// for ratios built through the public API.
    pub fn checked_neg(self) -> Result<Ratio> {
        let n = self.numer.checked_neg().ok_or(RatioError::Overflow)?;
        Ok(Ratio {
            numer: n,
            denom: self.denom,
        })
    }

    /// Checked multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::ZeroDenominator`] if this ratio is zero.
    pub fn checked_recip(self) -> Result<Ratio> {
        Ratio::new(self.denom, self.numer)
    }

    /// Absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            numer: self.numer.abs(),
            denom: self.denom,
        }
    }

    /// Largest integer `<= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// assert_eq!(Ratio::new(7, 2)?.floor(), 3);
    /// assert_eq!(Ratio::new(-7, 2)?.floor(), -4);
    /// # Ok::<(), aqua_rational::RatioError>(())
    /// ```
    pub fn floor(self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -(-self.numer).div_euclid(self.denom)
    }

    /// Nearest integer, rounding half away from zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// assert_eq!(Ratio::new(5, 2)?.round(), 3);
    /// assert_eq!(Ratio::new(-5, 2)?.round(), -3);
    /// assert_eq!(Ratio::new(2, 3)?.round(), 1);
    /// # Ok::<(), aqua_rational::RatioError>(())
    /// ```
    pub fn round(self) -> i128 {
        if self.numer < 0 {
            return -self.abs().round();
        }
        let q = self.numer / self.denom;
        let r = self.numer % self.denom;
        if r >= self.denom - r {
            q + 1
        } else {
            q
        }
    }

    /// Approximates this ratio as an `f64`.
    ///
    /// Used only at the LP boundary; everything else stays exact.
    pub fn to_f64(self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// The smaller of two ratios.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two ratios.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Sums an iterator of ratios with checked arithmetic.
    ///
    /// # Errors
    ///
    /// Returns the first [`RatioError::Overflow`] encountered.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// let parts = [Ratio::new(1, 3)?, Ratio::new(2, 5)?];
    /// assert_eq!(Ratio::checked_sum(parts)?, Ratio::new(11, 15)?);
    /// # Ok::<(), aqua_rational::RatioError>(())
    /// ```
    pub fn checked_sum<I: IntoIterator<Item = Ratio>>(iter: I) -> Result<Ratio> {
        let mut acc = Ratio::ZERO;
        for r in iter {
            acc = acc.checked_add(r)?;
        }
        Ok(acc)
    }
}

/// `a/b + c/d` for reduced operands that fit in `i64` (`b, d > 0`),
/// where no intermediate of the general path can overflow `i128`.
/// With `g = gcd(b, d)`, the lcm is `(b/g)·d` and the unreduced sum
/// `t = a·(d/g) + c·(b/g)` shares no factor with `b/g` or `d/g`, so
/// `gcd(t, lcm) = gcd(t, g)` (Knuth, TAOCP §4.5.1): the reduction
/// needs one GCD of a 64-bit value instead of one over the wide lcm.
fn add64(a: i64, b: u64, c: i64, d: u64) -> Ratio {
    let g = gcd_u64(b, d);
    let (bg, dg) = (b / g, d / g);
    let t = i128::from(a) * i128::from(dg) + i128::from(c) * i128::from(bg);
    let g2 = match u64::try_from(t.unsigned_abs()) {
        _ if g == 1 => 1,
        Ok(t) => gcd_u64(t % g, g),
        Err(_) => gcd_u64((t.unsigned_abs() % u128::from(g)) as u64, g),
    };
    Ratio {
        numer: t / i128::from(g2),
        denom: i128::from(bg) * i128::from(d / g2),
    }
}

/// `(a/b)·(c/d)` for reduced operands that fit in `i64` (`b, d > 0`):
/// the cross-reduced products are coprime, so they are the result, and
/// under 2^126 in magnitude.
fn mul64(a: i64, b: u64, c: i64, d: u64) -> Ratio {
    if a == 0 || c == 0 {
        return Ratio::ZERO;
    }
    let (ua, uc) = (a.unsigned_abs(), c.unsigned_abs());
    let g1 = gcd_u64(ua, d);
    let g2 = gcd_u64(uc, b);
    let n = (u128::from(ua / g1) * u128::from(uc / g2)) as i128;
    Ratio {
        numer: if (a < 0) != (c < 0) { -n } else { n },
        denom: (u128::from(b / g2) * u128::from(d / g1)) as i128,
    }
}

impl Default for Ratio {
    /// The default ratio is [`Ratio::ZERO`] (the derive would produce the
    /// invalid representation `0/0`).
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Compare a/b vs c/d as a*d vs c*b. Denominators are positive so
        // the sign is preserved. i128 products may overflow for adversarial
        // values, so fall back to exact wide arithmetic via f64 only when
        // the checked products fail — in practice assay ratios are tiny.
        match (
            self.numer.checked_mul(other.denom),
            other.numer.checked_mul(self.denom),
        ) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<i32> for Ratio {
    fn from(n: i32) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<u32> for Ratio {
    fn from(n: u32) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    #[test]
    fn new_reduces_to_lowest_terms() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(6, 3), Ratio::from_int(2));
        assert_eq!(r(0, 5), Ratio::ZERO);
    }

    #[test]
    fn new_normalizes_sign_to_numerator() {
        assert_eq!(r(1, -2), r(-1, 2));
        assert_eq!(r(-1, -2), r(1, 2));
        assert!(r(1, -2).denom() > 0);
    }

    #[test]
    fn new_rejects_zero_denominator() {
        assert_eq!(Ratio::new(1, 0), Err(RatioError::ZeroDenominator));
    }

    #[test]
    fn new_rejects_i128_min() {
        assert_eq!(Ratio::new(i128::MIN, 3), Err(RatioError::Overflow));
        assert_eq!(Ratio::new(3, i128::MIN), Err(RatioError::Overflow));
    }

    #[test]
    fn add_matches_hand_computation() {
        assert_eq!(r(1, 3).checked_add(r(2, 5)).unwrap(), r(11, 15));
        assert_eq!(r(1, 2).checked_add(r(1, 2)).unwrap(), Ratio::ONE);
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(r(1, 2).checked_sub(r(1, 3)).unwrap(), r(1, 6));
        assert_eq!(r(1, 2).checked_neg().unwrap(), r(-1, 2));
    }

    #[test]
    fn mul_cross_reduces() {
        // Would overflow without cross-reduction.
        let big = r(i128::MAX / 2, 1);
        let tiny = r(2, i128::MAX / 2);
        assert_eq!(big.checked_mul(tiny).unwrap(), Ratio::from_int(2));
    }

    #[test]
    fn div_by_zero_is_error() {
        assert_eq!(
            r(1, 2).checked_div(Ratio::ZERO),
            Err(RatioError::ZeroDenominator)
        );
    }

    #[test]
    fn recip_swaps() {
        assert_eq!(r(3, 7).checked_recip().unwrap(), r(7, 3));
        assert_eq!(r(-3, 7).checked_recip().unwrap(), r(-7, 3));
        assert_eq!(
            Ratio::ZERO.checked_recip(),
            Err(RatioError::ZeroDenominator)
        );
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(r(1, 3) < r(2, 5));
        assert!(r(-1, 2) < Ratio::ZERO);
        assert!(r(7, 2) > Ratio::from_int(3));
        let mut v = vec![r(3, 2), r(1, 3), Ratio::ONE];
        v.sort();
        assert_eq!(v, vec![r(1, 3), Ratio::ONE, r(3, 2)]);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(7, 2).round(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(1, 3).round(), 0);
        assert_eq!(r(2, 3).round(), 1);
        assert_eq!(Ratio::from_int(5).floor(), 5);
        assert_eq!(Ratio::from_int(5).ceil(), 5);
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let huge = r(i128::MAX, 1);
        assert_eq!(huge.checked_add(huge), Err(RatioError::Overflow));
        assert_eq!(huge.checked_mul(huge), Err(RatioError::Overflow));
    }

    #[test]
    fn checked_sum_accumulates() {
        let parts = [r(1, 4), r(1, 4), r(1, 2)];
        assert_eq!(Ratio::checked_sum(parts).unwrap(), Ratio::ONE);
        assert_eq!(Ratio::checked_sum([]).unwrap(), Ratio::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(Ratio::from_int(-4).to_string(), "-4");
        assert_eq!(Ratio::ZERO.to_string(), "0");
        assert_eq!(format!("{:?}", r(1, 2)), "Ratio(1/2)");
    }

    #[test]
    fn to_f64_is_close() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Ratio::default(), Ratio::ZERO);
    }
}

/// The arithmetic as it stood before the 64-bit paths: Euclid's GCD in
/// `i128` everywhere. A seeded differential pins the fast paths to it,
/// `Ok` value for value and `Err` for `Err`. (`cmp`, `floor`, `ceil`
/// and `round` have no 64-bit path, so they need no copy here.)
#[cfg(test)]
mod reference {
    use super::{gcd, Ratio, RatioError, Result};

    pub fn new(numer: i128, denom: i128) -> Result<Ratio> {
        if denom == 0 {
            return Err(RatioError::ZeroDenominator);
        }
        if denom == i128::MIN || numer == i128::MIN {
            return Err(RatioError::Overflow);
        }
        let (mut n, mut d) = (numer, denom);
        if d < 0 {
            n = -n;
            d = -d;
        }
        let g = gcd(n, d);
        if g > 1 {
            n /= g;
            d /= g;
        }
        Ok(Ratio { numer: n, denom: d })
    }

    pub fn add(x: Ratio, y: Ratio) -> Result<Ratio> {
        let g = gcd(x.denom, y.denom);
        let l = (x.denom / g)
            .checked_mul(y.denom)
            .ok_or(RatioError::Overflow)?;
        let left = x
            .numer
            .checked_mul(l / x.denom)
            .ok_or(RatioError::Overflow)?;
        let right = y
            .numer
            .checked_mul(l / y.denom)
            .ok_or(RatioError::Overflow)?;
        new(left.checked_add(right).ok_or(RatioError::Overflow)?, l)
    }

    pub fn mul(x: Ratio, y: Ratio) -> Result<Ratio> {
        let g1 = gcd(x.numer, y.denom);
        let g2 = gcd(y.numer, x.denom);
        let n = (x.numer / g1)
            .checked_mul(y.numer / g2)
            .ok_or(RatioError::Overflow)?;
        let d = (x.denom / g2)
            .checked_mul(y.denom / g1)
            .ok_or(RatioError::Overflow)?;
        new(n, d)
    }

    pub fn recip(x: Ratio) -> Result<Ratio> {
        new(x.denom, x.numer)
    }

    pub fn div(x: Ratio, y: Ratio) -> Result<Ratio> {
        if y.numer == 0 {
            return Err(RatioError::ZeroDenominator);
        }
        mul(x, recip(y)?)
    }
}

#[cfg(test)]
mod differential {
    use super::{reference, Ratio};
    use crate::rng::XorShift64Star;

    /// Components clustered where the 64-bit paths switch on and off:
    /// around 0, ±2^31, ±2^62, ±2^63, ±2^64 and `i128::MAX`, plus small
    /// and full-width random values.
    fn component(rng: &mut XorShift64Star) -> i128 {
        const ANCHORS: [i128; 7] = [0, 1 << 31, 1 << 62, 1 << 63, 1 << 64, 1 << 100, i128::MAX];
        let v = match rng.index(4) {
            0 => {
                let anchor = ANCHORS[rng.index(ANCHORS.len())];
                anchor.saturating_add(rng.range_u64(0, 8) as i128 - 4)
            }
            1 => rng.range_u64(0, 2000) as i128,
            2 => (rng.next_u64() >> rng.index(64)) as i128,
            _ => ((rng.next_u64() as i128) << 64 | rng.next_u64() as i128) >> rng.index(127),
        };
        if rng.index(2) == 0 {
            -v
        } else {
            v
        }
    }

    #[test]
    fn fast_paths_match_the_i128_reference() {
        let mut rng = XorShift64Star::new(0x64B1_7FA5);
        let mut pool = vec![Ratio::ZERO, Ratio::ONE];
        for _ in 0..20_000 {
            let (n, d) = (component(&mut rng), component(&mut rng));
            let got = Ratio::new(n, d);
            assert_eq!(got, reference::new(n, d), "new({n}, {d})");
            if let Ok(r) = got {
                pool.push(r);
            }
        }
        for _ in 0..200_000 {
            let x = pool[rng.index(pool.len())];
            let y = pool[rng.index(pool.len())];
            assert_eq!(x.checked_add(y), reference::add(x, y), "{x:?} + {y:?}");
            let neg = reference::new(-y.numer, y.denom).unwrap();
            assert_eq!(x.checked_sub(y), reference::add(x, neg), "{x:?} - {y:?}");
            assert_eq!(x.checked_mul(y), reference::mul(x, y), "{x:?} * {y:?}");
            assert_eq!(x.checked_div(y), reference::div(x, y), "{x:?} / {y:?}");
            assert_eq!(x.checked_recip(), reference::recip(x), "1 / {x:?}");
        }
    }
}

/// Field axioms, reduction and rounding laws on 256 seeded triples of
/// small ratios (components within ±10^6, so no law meets overflow).
#[cfg(test)]
mod laws {
    use super::Ratio;
    use crate::rng::XorShift64Star;

    fn small_triples() -> impl Iterator<Item = [Ratio; 3]> {
        let mut rng = XorShift64Star::new(0x1A75);
        (0..256).map(move |_| {
            [(); 3].map(|_| {
                let n = rng.range_u64(0, 2_000_000) as i128 - 1_000_000;
                Ratio::new(n, rng.range_u64(1, 1_000_000) as i128).unwrap()
            })
        })
    }

    #[test]
    fn addition_commutes() {
        for [a, b, _] in small_triples() {
            assert_eq!(a + b, b + a);
        }
    }

    #[test]
    fn addition_associates() {
        for [a, b, c] in small_triples() {
            assert_eq!((a + b) + c, a + (b + c));
        }
    }

    #[test]
    fn multiplication_commutes() {
        for [a, b, _] in small_triples() {
            assert_eq!(a * b, b * a);
        }
    }

    #[test]
    fn multiplication_distributes() {
        for [a, b, c] in small_triples() {
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }

    #[test]
    fn zero_is_additive_identity() {
        for [a, _, _] in small_triples() {
            assert_eq!(a + Ratio::ZERO, a);
            assert_eq!(a - a, Ratio::ZERO);
        }
    }

    #[test]
    fn one_is_multiplicative_identity() {
        for [a, _, _] in small_triples() {
            assert_eq!(a * Ratio::ONE, a);
        }
    }

    #[test]
    fn reciprocal_inverts() {
        for [a, _, _] in small_triples().filter(|[a, _, _]| !a.is_zero()) {
            assert_eq!(a * a.checked_recip().unwrap(), Ratio::ONE);
        }
    }

    /// Results keep a positive denominator and lowest terms:
    /// re-normalizing yields the same representation.
    #[test]
    fn invariants_hold() {
        for [a, b, _] in small_triples() {
            for v in [a + b, a - b, a * b] {
                assert!(v.denom() > 0, "{v:?}");
                assert_eq!(Ratio::new(v.numer(), v.denom()).unwrap(), v);
            }
        }
    }

    #[test]
    fn floor_ceil_bracket() {
        for [a, _, _] in small_triples() {
            let (f, c) = (Ratio::from_int(a.floor()), Ratio::from_int(a.ceil()));
            assert!(f <= a && a <= c && c - f <= Ratio::ONE, "{a:?}");
        }
    }

    #[test]
    fn round_is_nearest() {
        for [a, _, _] in small_triples() {
            let err = (a - Ratio::from_int(a.round())).abs();
            assert!(err <= Ratio::new(1, 2).unwrap(), "{a:?}");
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction() {
        for [a, b, _] in small_triples() {
            assert_eq!(a < b, (a - b).is_negative());
            assert_eq!(a == b, (a - b).is_zero());
        }
    }

    #[test]
    fn display_roundtrips() {
        for [a, _, _] in small_triples() {
            assert_eq!(a.to_string().parse::<Ratio>().unwrap(), a);
        }
    }

    #[test]
    fn to_f64_tracks_ordering() {
        for [a, b, _] in small_triples() {
            assert!(a >= b || a.to_f64() <= b.to_f64(), "{a:?} < {b:?}");
        }
    }
}
