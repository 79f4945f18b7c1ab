//! Parsing of rationals from assay source text.
//!
//! Assays write ratios as integers (`10`), fractions (`1/3`), or simple
//! decimals (`0.9`, used by the paper's output-to-output constraints).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::{Ratio, RatioError};

/// Error returned when a string is not a valid rational literal.
///
/// # Examples
///
/// ```
/// use aqua_rational::Ratio;
///
/// assert!("1/0".parse::<Ratio>().is_err());
/// assert!("abc".parse::<Ratio>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError {
    input: String,
    reason: Reason,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Reason {
    Syntax,
    Arithmetic(RatioError),
}

impl ParseRatioError {
    fn syntax(input: &str) -> Self {
        ParseRatioError {
            input: input.to_owned(),
            reason: Reason::Syntax,
        }
    }
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            Reason::Syntax => write!(f, "invalid rational literal `{}`", self.input),
            Reason::Arithmetic(e) => write!(f, "invalid rational literal `{}`: {e}", self.input),
        }
    }
}

impl Error for ParseRatioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.reason {
            Reason::Syntax => None,
            Reason::Arithmetic(e) => Some(e),
        }
    }
}

impl From<RatioError> for ParseRatioError {
    fn from(e: RatioError) -> Self {
        ParseRatioError {
            input: String::new(),
            reason: Reason::Arithmetic(e),
        }
    }
}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"-3"`, `"11/15"`, or `"0.25"` into a [`Ratio`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseRatioError`] for malformed input, a zero
    /// denominator, or magnitudes exceeding `i128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_rational::Ratio;
    ///
    /// let v: Ratio = "11/15".parse()?;
    /// assert_eq!(v, Ratio::new(11, 15).unwrap());
    /// let d: Ratio = "0.9".parse()?;
    /// assert_eq!(d, Ratio::new(9, 10).unwrap());
    /// # Ok::<(), aqua_rational::ParseRatioError>(())
    /// ```
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseRatioError::syntax(s));
        }
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| ParseRatioError::syntax(s))?;
            let d: i128 = d.trim().parse().map_err(|_| ParseRatioError::syntax(s))?;
            return Ratio::new(n, d).map_err(|e| ParseRatioError {
                input: s.to_owned(),
                reason: Reason::Arithmetic(e),
            });
        }
        if let Some((int, frac)) = s.split_once('.') {
            let negative = int.trim_start().starts_with('-');
            let int_part: i128 = if int == "-" || int.is_empty() {
                0
            } else {
                int.parse().map_err(|_| ParseRatioError::syntax(s))?
            };
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRatioError::syntax(s));
            }
            if frac.len() > 30 {
                return Err(ParseRatioError {
                    input: s.to_owned(),
                    reason: Reason::Arithmetic(RatioError::Overflow),
                });
            }
            let frac_num: i128 = frac.parse().map_err(|_| ParseRatioError::syntax(s))?;
            let denom = 10i128
                .checked_pow(frac.len() as u32)
                .ok_or(ParseRatioError {
                    input: s.to_owned(),
                    reason: Reason::Arithmetic(RatioError::Overflow),
                })?;
            let whole = Ratio::from_int(int_part);
            let frac_part = Ratio::new(frac_num, denom).map_err(|e| ParseRatioError {
                input: s.to_owned(),
                reason: Reason::Arithmetic(e),
            })?;
            let combined = if negative {
                whole.checked_sub(frac_part)
            } else {
                whole.checked_add(frac_part)
            };
            return combined.map_err(|e| ParseRatioError {
                input: s.to_owned(),
                reason: Reason::Arithmetic(e),
            });
        }
        let n: i128 = s.parse().map_err(|_| ParseRatioError::syntax(s))?;
        // `Ratio::new`, not `from_int`: it rejects `i128::MIN`, whose
        // negation overflows.
        Ratio::new(n, 1).map_err(|e| ParseRatioError {
            input: s.to_owned(),
            reason: Reason::Arithmetic(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Ratio;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    #[test]
    fn parses_integers() {
        assert_eq!("42".parse::<Ratio>().unwrap(), Ratio::from_int(42));
        assert_eq!("-7".parse::<Ratio>().unwrap(), Ratio::from_int(-7));
        assert_eq!(" 3 ".parse::<Ratio>().unwrap(), Ratio::from_int(3));
    }

    #[test]
    fn parses_fractions() {
        assert_eq!("11/15".parse::<Ratio>().unwrap(), r(11, 15));
        assert_eq!("2/4".parse::<Ratio>().unwrap(), r(1, 2));
        assert_eq!("-1/3".parse::<Ratio>().unwrap(), r(-1, 3));
        assert_eq!("1 / 2".parse::<Ratio>().unwrap(), r(1, 2));
    }

    #[test]
    fn parses_decimals() {
        assert_eq!("0.9".parse::<Ratio>().unwrap(), r(9, 10));
        assert_eq!("1.1".parse::<Ratio>().unwrap(), r(11, 10));
        assert_eq!("-0.5".parse::<Ratio>().unwrap(), r(-1, 2));
        assert!("2.".parse::<Ratio>().is_err());
        assert_eq!(".5".parse::<Ratio>().unwrap(), r(1, 2));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "abc", "1/0", "1//2", "1.2.3", "1/2/3", "0x10"] {
            assert!(bad.parse::<Ratio>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn i128_min_is_rejected_with_overflow() {
        use crate::RatioError;
        use std::error::Error;
        for min in [
            "-170141183460469231731687303715884105728",
            "-170141183460469231731687303715884105728.0",
            "-170141183460469231731687303715884105728/1",
        ] {
            let e = min.parse::<Ratio>().unwrap_err();
            let source = e.source().and_then(|s| s.downcast_ref::<RatioError>());
            assert_eq!(source, Some(&RatioError::Overflow), "{min}");
        }
        let v = "-170141183460469231731687303715884105727"
            .parse::<Ratio>()
            .unwrap();
        assert_eq!(v, Ratio::from_int(i128::MIN + 1));
        assert_eq!(v.abs(), Ratio::from_int(i128::MAX));
    }

    #[test]
    fn display_parse_roundtrip() {
        for v in [r(11, 15), r(-3, 7), Ratio::ZERO, Ratio::from_int(100)] {
            assert_eq!(v.to_string().parse::<Ratio>().unwrap(), v);
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = "1/0".parse::<Ratio>().unwrap_err();
        assert!(e.to_string().contains("1/0"));
        let e = "zzz".parse::<Ratio>().unwrap_err();
        assert!(e.to_string().contains("zzz"));
    }
}
