//! The typed AIS instruction set.

use std::fmt;

use crate::loc::{DryReg, WetLoc};
use crate::Picoliters;

/// The flavor of a `separate` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeparateKind {
    /// Capillary-electrophoresis separation (`separate.CE`).
    Electrophoresis,
    /// Size-based separation (`separate.SIZE`).
    Size,
    /// Affinity separation against a pre-loaded matrix (`separate.AF`).
    Affinity,
    /// Liquid-chromatography separation (`separate.LC`), added by the
    /// paper for the glycomics assay.
    LiquidChromatography,
}

impl SeparateKind {
    /// The mnemonic suffix (`CE`, `SIZE`, `AF`, `LC`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            SeparateKind::Electrophoresis => "CE",
            SeparateKind::Size => "SIZE",
            SeparateKind::Affinity => "AF",
            SeparateKind::LiquidChromatography => "LC",
        }
    }
}

/// The flavor of a `sense` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SenseKind {
    /// Optical-density sensing (`sense.OD`).
    OpticalDensity,
    /// Fluorescence sensing (`sense.FL`).
    Fluorescence,
}

impl SenseKind {
    /// The mnemonic suffix (`OD`, `FL`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            SenseKind::OpticalDensity => "OD",
            SenseKind::Fluorescence => "FL",
        }
    }
}

/// Dry (electronic) ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DryOp {
    /// `dry-mov dst, src`
    Mov,
    /// `dry-add dst, src`
    Add,
    /// `dry-sub dst, src`
    Sub,
    /// `dry-mul dst, src`
    Mul,
}

impl DryOp {
    fn mnemonic(self) -> &'static str {
        match self {
            DryOp::Mov => "dry-mov",
            DryOp::Add => "dry-add",
            DryOp::Sub => "dry-sub",
            DryOp::Mul => "dry-mul",
        }
    }
}

/// Source operand of a dry instruction: register or immediate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DrySrc {
    /// A controller register.
    Reg(DryReg),
    /// An immediate constant.
    Imm(i64),
}

impl fmt::Display for DrySrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrySrc::Reg(r) => write!(f, "{r}"),
            DrySrc::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// One AIS instruction.
///
/// Wet instructions follow Table 1 of the paper; dry instructions are
/// the controller's scalar ALU subset seen in the compiled enzyme assay.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `input dst, ipN` — draw fluid from an input port into `dst`.
    Input {
        /// Destination reservoir or unit.
        dst: WetLoc,
        /// Source input port.
        port: WetLoc,
    },
    /// `output opN, src` — send fluid from `src` off-chip.
    Output {
        /// Destination output port.
        port: WetLoc,
        /// Source location.
        src: WetLoc,
    },
    /// `move dst, src[, rel]` — transfer fluid; the optional relative
    /// volume is resolved to an absolute metered volume by volume
    /// management (omitted = move everything).
    Move {
        /// Destination location.
        dst: WetLoc,
        /// Source location.
        src: WetLoc,
        /// Relative volume in assay-specified parts.
        rel_vol: Option<u64>,
    },
    /// `move-abs dst, src, vol` — transfer an absolute volume.
    MoveAbs {
        /// Destination location.
        dst: WetLoc,
        /// Source location.
        src: WetLoc,
        /// Absolute volume in picoliters.
        vol: Picoliters,
    },
    /// `mix unit, seconds` — run the mixer.
    Mix {
        /// The mixer to run.
        unit: WetLoc,
        /// Mixing duration in seconds.
        seconds: u64,
    },
    /// `incubate unit, temp, seconds` — hold at temperature.
    Incubate {
        /// The heater to run.
        unit: WetLoc,
        /// Temperature in degrees Celsius.
        temp_c: i64,
        /// Duration in seconds.
        seconds: u64,
    },
    /// `concentrate unit, temp, seconds` — concentrate by evaporation.
    Concentrate {
        /// The unit to run.
        unit: WetLoc,
        /// Temperature in degrees Celsius.
        temp_c: i64,
        /// Duration in seconds.
        seconds: u64,
    },
    /// `separate.K unit, seconds` — run a separation; outputs appear at
    /// the unit's `out1`/`out2` ports.
    Separate {
        /// The separator to run.
        unit: WetLoc,
        /// Which separation chemistry.
        kind: SeparateKind,
        /// Duration in seconds.
        seconds: u64,
    },
    /// `sense.K unit, dst` — read a sensor into a dry result slot.
    Sense {
        /// The sensor to read.
        unit: WetLoc,
        /// Which sensing modality.
        kind: SenseKind,
        /// Result register receiving the reading.
        dst: DryReg,
    },
    /// A dry ALU instruction `dry-op dst, src`.
    Dry {
        /// The operation.
        op: DryOp,
        /// Destination register.
        dst: DryReg,
        /// Source operand.
        src: DrySrc,
    },
    /// `; text` — comment line preserved for readability of emitted code.
    Comment(String),
}

impl Instr {
    /// Whether the instruction executes on the wet (fluidic) datapath.
    ///
    /// Wet instructions are the slow ones (seconds); everything else is
    /// controller work (microseconds).
    pub fn is_wet(&self) -> bool {
        !matches!(
            self,
            Instr::Dry { .. } | Instr::Comment(_) | Instr::Sense { .. }
        )
    }

    /// Simulated wet duration in seconds: the explicit duration for
    /// timed operations, one second per fluid transfer, zero for
    /// controller work and sensing. Summing this over a program gives
    /// exactly the sequential executor's `wet_seconds`.
    pub fn wet_duration_s(&self) -> u64 {
        match self {
            Instr::Mix { seconds, .. }
            | Instr::Incubate { seconds, .. }
            | Instr::Concentrate { seconds, .. }
            | Instr::Separate { seconds, .. } => *seconds,
            Instr::Dry { .. } | Instr::Comment(_) | Instr::Sense { .. } => 0,
            Instr::Input { .. } | Instr::Output { .. } | Instr::Move { .. } => 1,
            Instr::MoveAbs { .. } => 1,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Input { dst, port } => write!(f, "input {dst}, {port}"),
            Instr::Output { port, src } => write!(f, "output {port}, {src}"),
            Instr::Move {
                dst,
                src,
                rel_vol: Some(v),
            } => write!(f, "move {dst}, {src}, {v}"),
            Instr::Move {
                dst,
                src,
                rel_vol: None,
            } => write!(f, "move {dst}, {src}"),
            Instr::MoveAbs { dst, src, vol } => write!(f, "move-abs {dst}, {src}, {vol}"),
            Instr::Mix { unit, seconds } => write!(f, "mix {unit}, {seconds}"),
            Instr::Incubate {
                unit,
                temp_c,
                seconds,
            } => write!(f, "incubate {unit}, {temp_c}, {seconds}"),
            Instr::Concentrate {
                unit,
                temp_c,
                seconds,
            } => write!(f, "concentrate {unit}, {temp_c}, {seconds}"),
            Instr::Separate {
                unit,
                kind,
                seconds,
            } => write!(f, "separate.{} {unit}, {seconds}", kind.mnemonic()),
            Instr::Sense { unit, kind, dst } => {
                write!(f, "sense.{} {unit}, {dst}", kind.mnemonic())
            }
            Instr::Dry { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Instr::Comment(text) => write!(f, ";{text}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::SepPort;

    #[test]
    fn display_matches_paper_examples() {
        let i = Instr::Move {
            dst: WetLoc::Mixer(1),
            src: WetLoc::Reservoir(2),
            rel_vol: Some(4),
        };
        assert_eq!(i.to_string(), "move mixer1, s2, 4");

        let i = Instr::Sense {
            unit: WetLoc::Sensor(2),
            kind: SenseKind::OpticalDensity,
            dst: "Result3".into(),
        };
        assert_eq!(i.to_string(), "sense.OD sensor2, Result3");

        let i = Instr::Separate {
            unit: WetLoc::Separator(2, SepPort::Main),
            kind: SeparateKind::LiquidChromatography,
            seconds: 2400,
        };
        assert_eq!(i.to_string(), "separate.LC separator2, 2400");

        let i = Instr::Incubate {
            unit: WetLoc::Heater(1),
            temp_c: 37,
            seconds: 300,
        };
        assert_eq!(i.to_string(), "incubate heater1, 37, 300");

        let i = Instr::Dry {
            op: DryOp::Mul,
            dst: "r0".into(),
            src: DrySrc::Imm(10),
        };
        assert_eq!(i.to_string(), "dry-mul r0, 10");
    }

    #[test]
    fn wet_dry_classification() {
        let wet = Instr::Mix {
            unit: WetLoc::Mixer(1),
            seconds: 10,
        };
        let dry = Instr::Dry {
            op: DryOp::Mov,
            dst: "t".into(),
            src: DrySrc::Imm(1),
        };
        assert!(wet.is_wet());
        assert!(!dry.is_wet());
        assert!(!Instr::Comment(" hi".into()).is_wet());
    }
}
