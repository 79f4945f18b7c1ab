//! Parser for textual AIS assembly (the printer's inverse).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::instr::{DryOp, DrySrc, Instr, SenseKind, SeparateKind};
use crate::loc::{DryReg, SepPort, WetLoc};
use crate::program::Program;

/// Error from parsing AIS assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAisError {
    line: usize,
    message: String,
}

impl ParseAisError {
    fn new(line: usize, message: impl Into<String>) -> ParseAisError {
        ParseAisError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseAisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AIS parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseAisError {}

impl FromStr for Program {
    type Err = ParseAisError;

    /// Parses the `name{ ... }` block syntax produced by
    /// [`Program`]'s `Display` impl.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAisError`] with the offending line on malformed
    /// input.
    fn from_str(text: &str) -> Result<Program, ParseAisError> {
        let mut name: Option<String> = None;
        let mut prog: Option<Program> = None;
        let mut closed = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            match (&mut prog, line) {
                (None, l) => {
                    let Some(head) = l.strip_suffix('{') else {
                        return Err(ParseAisError::new(lineno, "expected `name{`"));
                    };
                    let head = head.trim();
                    if head.is_empty() || !head.chars().all(|c| c.is_alphanumeric() || c == '_') {
                        return Err(ParseAisError::new(lineno, "invalid program name"));
                    }
                    name = Some(head.to_owned());
                    prog = Some(Program::new(name.clone().unwrap()));
                }
                (Some(_), "}") => {
                    closed = true;
                }
                (Some(p), l) => {
                    if closed {
                        return Err(ParseAisError::new(lineno, "text after closing `}`"));
                    }
                    p.push(parse_instr(l, lineno)?);
                }
            }
        }
        let _ = name;
        match (prog, closed) {
            (Some(p), true) => Ok(p),
            (Some(_), false) => Err(ParseAisError::new(text.lines().count(), "missing `}`")),
            (None, _) => Err(ParseAisError::new(1, "empty program")),
        }
    }
}

fn parse_instr(line: &str, lineno: usize) -> Result<Instr, ParseAisError> {
    if let Some(comment) = line.strip_prefix(';') {
        return Ok(Instr::Comment(comment.to_owned()));
    }
    // Inline comments: "input s1, ip1 ;Glucose" — keep only the code part.
    let code = line.split(';').next().unwrap_or("").trim();
    let (mnemonic, rest) = match code.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (code, ""),
    };
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let err = |msg: &str| ParseAisError::new(lineno, format!("{msg} in `{line}`"));

    let wet = |s: &str| parse_wetloc(s).ok_or_else(|| err("invalid wet location"));
    let num = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| err("invalid unsigned integer"))
    };
    let inum = |s: &str| s.parse::<i64>().map_err(|_| err("invalid integer"));

    match mnemonic {
        "input" => match ops.as_slice() {
            [dst, port] => Ok(Instr::Input {
                dst: wet(dst)?,
                port: wet(port)?,
            }),
            _ => Err(err("input takes 2 operands")),
        },
        "output" => match ops.as_slice() {
            [port, src] => Ok(Instr::Output {
                port: wet(port)?,
                src: wet(src)?,
            }),
            _ => Err(err("output takes 2 operands")),
        },
        "move" => match ops.as_slice() {
            [dst, src] => Ok(Instr::Move {
                dst: wet(dst)?,
                src: wet(src)?,
                rel_vol: None,
            }),
            [dst, src, rel] => Ok(Instr::Move {
                dst: wet(dst)?,
                src: wet(src)?,
                rel_vol: Some(num(rel)?),
            }),
            _ => Err(err("move takes 2 or 3 operands")),
        },
        "move-abs" => match ops.as_slice() {
            [dst, src, vol] => Ok(Instr::MoveAbs {
                dst: wet(dst)?,
                src: wet(src)?,
                vol: num(vol)?,
            }),
            _ => Err(err("move-abs takes 3 operands")),
        },
        "mix" => match ops.as_slice() {
            [unit, secs] => Ok(Instr::Mix {
                unit: wet(unit)?,
                seconds: num(secs)?,
            }),
            _ => Err(err("mix takes 2 operands")),
        },
        "incubate" | "concentrate" => match ops.as_slice() {
            [unit, temp, secs] => {
                let unit = wet(unit)?;
                let temp_c = inum(temp)?;
                let seconds = num(secs)?;
                Ok(if mnemonic == "incubate" {
                    Instr::Incubate {
                        unit,
                        temp_c,
                        seconds,
                    }
                } else {
                    Instr::Concentrate {
                        unit,
                        temp_c,
                        seconds,
                    }
                })
            }
            _ => Err(err("expected unit, temp, seconds")),
        },
        m if m.starts_with("separate.") => {
            let kind = match &m["separate.".len()..] {
                "CE" => SeparateKind::Electrophoresis,
                "SIZE" => SeparateKind::Size,
                "AF" => SeparateKind::Affinity,
                "LC" => SeparateKind::LiquidChromatography,
                other => return Err(err(&format!("unknown separate kind `{other}`"))),
            };
            match ops.as_slice() {
                [unit, secs] => Ok(Instr::Separate {
                    unit: wet(unit)?,
                    kind,
                    seconds: num(secs)?,
                }),
                _ => Err(err("separate takes 2 operands")),
            }
        }
        m if m.starts_with("sense.") => {
            let kind = match &m["sense.".len()..] {
                "OD" => SenseKind::OpticalDensity,
                "FL" => SenseKind::Fluorescence,
                other => return Err(err(&format!("unknown sense kind `{other}`"))),
            };
            match ops.as_slice() {
                [unit, dst] => Ok(Instr::Sense {
                    unit: wet(unit)?,
                    kind,
                    dst: DryReg((*dst).to_owned()),
                }),
                _ => Err(err("sense takes 2 operands")),
            }
        }
        m if m.starts_with("dry-") => {
            let op = match &m["dry-".len()..] {
                "mov" => DryOp::Mov,
                "add" => DryOp::Add,
                "sub" => DryOp::Sub,
                "mul" => DryOp::Mul,
                other => return Err(err(&format!("unknown dry op `{other}`"))),
            };
            match ops.as_slice() {
                [dst, src] => {
                    let src = match src.parse::<i64>() {
                        Ok(i) => DrySrc::Imm(i),
                        Err(_) => DrySrc::Reg(DryReg((*src).to_owned())),
                    };
                    Ok(Instr::Dry {
                        op,
                        dst: DryReg((*dst).to_owned()),
                        src,
                    })
                }
                _ => Err(err("dry ops take 2 operands")),
            }
        }
        other => Err(err(&format!("unknown mnemonic `{other}`"))),
    }
}

fn parse_wetloc(s: &str) -> Option<WetLoc> {
    let (base, port) = match s.split_once('.') {
        Some((b, p)) => (b, Some(p)),
        None => (s, None),
    };
    let index_after = |prefix: &str| -> Option<u32> {
        base.strip_prefix(prefix)
            .and_then(|digits| digits.parse().ok())
    };
    let loc = if let Some(n) = index_after("separator") {
        let sep_port = match port {
            None => SepPort::Main,
            Some("matrix") => SepPort::Matrix,
            Some("pusher") => SepPort::Pusher,
            Some("out1") => SepPort::Out1,
            Some("out2") => SepPort::Out2,
            Some(_) => return None,
        };
        WetLoc::Separator(n, sep_port)
    } else {
        if port.is_some() {
            return None; // only separators have sub-ports
        }
        if let Some(n) = index_after("mixer") {
            WetLoc::Mixer(n)
        } else if let Some(n) = index_after("heater") {
            WetLoc::Heater(n)
        } else if let Some(n) = index_after("sensor") {
            WetLoc::Sensor(n)
        } else if let Some(n) = index_after("ip") {
            WetLoc::InputPort(n)
        } else if let Some(n) = index_after("op") {
            WetLoc::OutputPort(n)
        } else if let Some(n) = index_after("s") {
            WetLoc::Reservoir(n)
        } else {
            return None;
        }
    };
    Some(loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_rational::rng::XorShift64Star;

    #[test]
    fn parses_glucose_fragment() {
        let text = "glucose{
  input s1, ip1 ;Glucose
  input s2, ip2 ;Reagent
  move mixer1, s1, 1
  move mixer1, s2, 1
  mix mixer1, 10
  move sensor2, mixer1
  sense.OD sensor2, Result1
}";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.name(), "glucose");
        assert_eq!(p.instrs().len(), 7);
        assert_eq!(
            p.instrs()[2],
            Instr::Move {
                dst: WetLoc::Mixer(1),
                src: WetLoc::Reservoir(1),
                rel_vol: Some(1)
            }
        );
    }

    #[test]
    fn parses_separator_ports_and_lc() {
        let text = "g{
  move separator2.matrix, s7
  move separator2.pusher, s8
  separate.LC separator2, 2400
  move mixer1, separator2.out1, 1
}";
        let p: Program = text.parse().unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Move {
                dst: WetLoc::Separator(2, SepPort::Matrix),
                src: WetLoc::Reservoir(7),
                rel_vol: None
            }
        );
        assert!(matches!(
            p.instrs()[2],
            Instr::Separate {
                kind: SeparateKind::LiquidChromatography,
                seconds: 2400,
                ..
            }
        ));
    }

    #[test]
    fn parses_dry_ops() {
        let text = "e{
  dry-mov r0, temp
  dry-mul r0, 10
  dry-sub r0, 1
}";
        let p: Program = text.parse().unwrap();
        assert_eq!(
            p.instrs()[1],
            Instr::Dry {
                op: DryOp::Mul,
                dst: "r0".into(),
                src: DrySrc::Imm(10)
            }
        );
        assert_eq!(
            p.instrs()[0],
            Instr::Dry {
                op: DryOp::Mov,
                dst: "r0".into(),
                src: DrySrc::Reg("temp".into())
            }
        );
    }

    #[test]
    fn print_parse_roundtrip() {
        let text = "demo{
  input s1, ip1
  move mixer1, s1, 3
  mix mixer1, 30
  incubate heater1, 37, 300
  move sensor2, heater1
  sense.FL sensor2, R0
  output op1, s1
  move-abs s2, s1, 5000
  concentrate heater1, 90, 60
}";
        let p: Program = text.parse().unwrap();
        let printed = p.to_string();
        let reparsed: Program = printed.parse().unwrap();
        assert_eq!(p, reparsed);
    }

    /// 256 seeded random programs of 0–39 instructions, over every
    /// instruction form but comments, every location kind and register
    /// names with up to two subscripts, print and parse back equal.
    #[test]
    fn random_programs_print_and_parse_back() {
        let mut rng = XorShift64Star::new(0xA15);
        for case in 0..256 {
            let mut p = Program::new("fuzz");
            for _ in 0..rng.index(40) {
                p.push(random_instr(&mut rng));
            }
            let printed = p.to_string();
            let reparsed: Program = printed
                .parse()
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{printed}"));
            assert_eq!(p, reparsed, "case {case}");
        }
    }

    fn pick<T: Copy>(rng: &mut XorShift64Star, items: &[T]) -> T {
        items[rng.index(items.len())]
    }

    fn wetloc(rng: &mut XorShift64Star) -> WetLoc {
        let mut n = |hi| rng.range_u64(1, hi) as u32;
        match n(7) {
            1 => WetLoc::Reservoir(n(63)),
            2 => WetLoc::Mixer(n(3)),
            3 => WetLoc::Heater(n(3)),
            4 => WetLoc::Sensor(n(3)),
            5 => WetLoc::InputPort(n(15)),
            6 => WetLoc::OutputPort(n(15)),
            _ => {
                let ports = [
                    SepPort::Main,
                    SepPort::Matrix,
                    SepPort::Pusher,
                    SepPort::Out1,
                    SepPort::Out2,
                ];
                WetLoc::Separator(n(3), pick(rng, &ports))
            }
        }
    }

    /// A register name matching `[A-Za-z_][A-Za-z0-9_]{0,10}(\[[0-9]{1,2}\]){0,2}`.
    fn reg(rng: &mut XorShift64Star) -> DryReg {
        const DIGITS: &[u8] = b"0123456789";
        const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_";
        let mut s = String::from(pick(rng, LETTERS) as char);
        for _ in 0..rng.index(11) {
            let class = if rng.index(6) == 0 { DIGITS } else { LETTERS };
            s.push(pick(rng, class) as char);
        }
        for _ in 0..rng.index(3) {
            let digits: String = (0..=rng.index(2))
                .map(|_| pick(rng, DIGITS) as char)
                .collect();
            s.push_str(&format!("[{digits}]"));
        }
        DryReg(s)
    }

    fn random_instr(rng: &mut XorShift64Star) -> Instr {
        let unit = |rng: &mut XorShift64Star| rng.range_u64(1, 3) as u32;
        let temp = |rng: &mut XorShift64Star| rng.range_u64(0, 219) as i64 - 20;
        match rng.index(10) {
            0 => Instr::Input {
                dst: wetloc(rng),
                port: WetLoc::InputPort(rng.range_u64(1, 15) as u32),
            },
            1 => Instr::Output {
                port: WetLoc::OutputPort(rng.range_u64(1, 15) as u32),
                src: wetloc(rng),
            },
            2 => Instr::Move {
                dst: wetloc(rng),
                src: wetloc(rng),
                rel_vol: (rng.index(2) == 0).then(|| rng.range_u64(1, 999)),
            },
            3 => Instr::MoveAbs {
                dst: wetloc(rng),
                src: wetloc(rng),
                vol: rng.range_u64(1, 99_999),
            },
            4 => Instr::Mix {
                unit: WetLoc::Mixer(unit(rng)),
                seconds: rng.range_u64(1, 599),
            },
            5 => Instr::Incubate {
                unit: WetLoc::Heater(unit(rng)),
                temp_c: temp(rng),
                seconds: rng.range_u64(1, 599),
            },
            6 => Instr::Concentrate {
                unit: WetLoc::Heater(unit(rng)),
                temp_c: temp(rng),
                seconds: rng.range_u64(1, 599),
            },
            7 => Instr::Separate {
                unit: WetLoc::Separator(unit(rng), SepPort::Main),
                kind: pick(
                    rng,
                    &[
                        SeparateKind::Electrophoresis,
                        SeparateKind::Size,
                        SeparateKind::Affinity,
                        SeparateKind::LiquidChromatography,
                    ],
                ),
                seconds: rng.range_u64(1, 3599),
            },
            8 => Instr::Sense {
                unit: WetLoc::Sensor(unit(rng)),
                kind: pick(rng, &[SenseKind::OpticalDensity, SenseKind::Fluorescence]),
                dst: reg(rng),
            },
            _ => Instr::Dry {
                op: pick(rng, &[DryOp::Mov, DryOp::Add, DryOp::Sub, DryOp::Mul]),
                dst: reg(rng),
                src: if rng.index(2) == 0 {
                    DrySrc::Imm(rng.range_u64(0, 1999) as i64 - 1000)
                } else {
                    DrySrc::Reg(reg(rng))
                },
            },
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "demo{
  frobnicate s1
}";
        let e = text.parse::<Program>().unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn rejects_malformed_blocks() {
        assert!("".parse::<Program>().is_err());
        assert!("x{".parse::<Program>().is_err());
        assert!("x{\n}\nmore".parse::<Program>().is_err());
        assert!("mix mixer1, 5".parse::<Program>().is_err());
    }

    #[test]
    fn rejects_bad_operands() {
        assert!("x{\n  mix notaunit, 5\n}".parse::<Program>().is_err());
        assert!("x{\n  mix mixer1\n}".parse::<Program>().is_err());
        assert!("x{\n  move s1.out1, s2\n}".parse::<Program>().is_err());
        assert!("x{\n  separate.XX separator1, 5\n}"
            .parse::<Program>()
            .is_err());
    }
}
