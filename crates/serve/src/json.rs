//! A minimal, dependency-free JSON reader/writer for the wire protocol.
//!
//! The offline build has no serde, so the service parses request lines
//! with this hand-rolled recursive-descent parser and renders response
//! lines with deterministic, fixed-field-order writers. Only what the
//! protocol needs is supported; notably numbers are split into integer
//! ([`Value::Int`]) and float ([`Value::Float`]) forms so request ids
//! and deadlines round-trip exactly.

use std::fmt::Write as _;

use aqua_rational::Ratio;

/// A parsed JSON value. Object member order is preserved (the parser
/// never reorders), which keeps error messages and tests predictable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative `u64`, if it is a whole number.
    ///
    /// Integer literals beyond `i64::MAX` parse as [`Value::Float`]
    /// (e.g. a client sending `deadline_ms: 18446744073709551615`), so
    /// whole floats in range are accepted too; the cast saturates at
    /// `u64::MAX`. Negative numbers and fractions return `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && f.is_finite() => Some(*f as u64),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// protocol's deepest request, a `session.edit` that adds a mix, nests
/// 6 levels; the parser recurses once per level, and a line of 100,000
/// `[` used to overflow the request thread's stack.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a short human-readable description of the first problem,
/// including nesting deeper than `MAX_DEPTH` (64) levels.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut simple = true; // no '.', no exponent
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                simple = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number".to_owned())?;
    if simple {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("bad number `{text}`"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("unsupported \\u{hex} escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_owned()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // are ASCII, so they never occur inside a multi-byte UTF-8
                // sequence and the run ends on a character boundary; each
                // byte is validated once, keeping the parse linear.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "non-utf8 string".to_owned())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member name at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Renders a string as a JSON string literal (quotes included); the
/// workspace's single JSON string writer, defined in `aqua-obs`.
pub use aqua_obs::export::quote;

/// Appends a string as a JSON string literal: [`quote`] without the
/// temporary.
pub(crate) use aqua_obs::export::push_quoted;

/// Appends the decimal digits of `v`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `v` in decimal, as `Display` renders it; values that fit
/// 64 bits skip the formatter.
pub(crate) fn push_i128(out: &mut String, v: i128) {
    match i64::try_from(v) {
        Ok(small) => {
            if small < 0 {
                out.push('-');
            }
            push_u64(out, small.unsigned_abs());
        }
        Err(_) => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Appends `r` in its `Display` form (`n` or `n/d`), unquoted.
pub(crate) fn push_ratio_digits(out: &mut String, r: Ratio) {
    push_i128(out, r.numer());
    if r.denom() != 1 {
        out.push('/');
        push_i128(out, r.denom());
    }
}

/// Appends `r` as a JSON string in its `Display` form: the bytes of
/// `quote(&r.to_string())`, with no temporaries.
pub(crate) fn push_ratio(out: &mut String, r: Ratio) {
    out.push('"');
    push_ratio_digits(out, r);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id":"r1","src":"ASSAY x","deadline_ms":250,"machine":{"mixers":2}}"#)
            .unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(v.get("deadline_ms").unwrap().as_int(), Some(250));
        assert_eq!(
            v.get("machine").unwrap().get("mixers").unwrap().as_int(),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn strings_round_trip_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    /// A string near the 1 MiB request-line cap parses in time linear in
    /// its length, and escapes and multi-byte characters between the
    /// unescaped runs still decode exactly.
    #[test]
    fn megabyte_strings_parse_linearly_and_round_trip() {
        let piece = "plain ascii, \u{e9}t\u{e9} \u{6f22}\u{5b57} \u{1f980} \"quoted\" back\\slash\ttab\nline\u{1}";
        let mut s = String::new();
        while s.len() < 1 << 20 {
            s.push_str(piece);
        }
        let started = std::time::Instant::now();
        let parsed = parse(&quote(&s)).unwrap();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "1 MiB string took {:?}",
            started.elapsed()
        );
        let v = parse(r#""\u00e9\u6f22x\"\\\/\b\f\r\t\n\u0001 é🦀""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("\u{e9}\u{6f22}x\"\\/\u{8}\u{c}\r\t\n\u{1} \u{e9}\u{1f980}")
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("truth").is_err());
    }

    /// The digit writers render exactly what `Display` does, inside
    /// and outside the 64-bit fast path.
    #[test]
    fn number_writers_match_display() {
        let ints = [
            0i128,
            1,
            -1,
            9,
            10,
            1_000_000_007,
            i64::MAX as i128,
            i64::MIN as i128,
            i64::MAX as i128 + 1,
            i64::MIN as i128 - 1,
            u64::MAX as i128,
            i128::MAX,
            i128::MIN + 1,
        ];
        for v in ints {
            let mut out = String::new();
            push_i128(&mut out, v);
            assert_eq!(out, v.to_string());
            if let Ok(u) = u64::try_from(v) {
                out.clear();
                push_u64(&mut out, u);
                assert_eq!(out, u.to_string());
            }
        }
        let ratios = [
            Ratio::ZERO,
            Ratio::ONE,
            Ratio::new(-3, 7).unwrap(),
            Ratio::new(1, 999).unwrap(),
            Ratio::new(i128::MAX, 3).unwrap(),
            Ratio::new(5, i64::MAX as i128 + 2).unwrap(),
        ];
        for r in ratios {
            let mut out = String::from("x");
            push_ratio(&mut out, r);
            assert_eq!(out, format!("x{}", quote(&r.to_string())));
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn arrays_and_nesting() {
        let v = parse(r#"[1, [2, {"k": null}], true]"#).unwrap();
        match v {
            Value::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Value::Int(1));
                assert_eq!(items[2], Value::Bool(true));
            }
            other => panic!("{other:?}"),
        }
    }
}
