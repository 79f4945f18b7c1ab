//! Whole AIS programs.

use std::fmt;

use crate::instr::Instr;

/// A named sequence of AIS instructions, printed in the paper's
/// `name{ ... }` block syntax.
///
/// # Examples
///
/// ```
/// use aqua_ais::{Instr, Program, WetLoc};
///
/// let mut p = Program::new("demo");
/// p.push(Instr::Input {
///     dst: WetLoc::Reservoir(1),
///     port: WetLoc::InputPort(1),
/// });
/// assert_eq!(p.to_string(), "demo{\n  input s1, ip1\n}\n");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            instrs: Vec::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// Number of instructions, excluding comments.
    pub fn len_executable(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| !matches!(i, Instr::Comment(_)))
            .count()
    }

    /// Number of wet (fluidic datapath) instructions.
    pub fn len_wet(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_wet()).count()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }
}

impl Extend<Instr> for Program {
    fn extend<I: IntoIterator<Item = Instr>>(&mut self, iter: I) {
        self.instrs.extend(iter);
    }
}

impl IntoIterator for Program {
    type Item = Instr;
    type IntoIter = std::vec::IntoIter<Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}{{", self.name)?;
        for i in &self.instrs {
            writeln!(f, "  {i}")?;
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::loc::WetLoc;

    #[test]
    fn counts_exclude_comments_and_dry() {
        let mut p = Program::new("t");
        p.push(Instr::Comment(" header".into()));
        p.push(Instr::Mix {
            unit: WetLoc::Mixer(1),
            seconds: 5,
        });
        p.push(Instr::Dry {
            op: crate::DryOp::Mov,
            dst: "r0".into(),
            src: crate::instr::DrySrc::Imm(1),
        });
        assert_eq!(p.len_executable(), 2);
        assert_eq!(p.len_wet(), 1);
    }

    #[test]
    fn extend_and_iterate() {
        let mut p = Program::new("t");
        p.extend([
            Instr::Mix {
                unit: WetLoc::Mixer(1),
                seconds: 1,
            },
            Instr::Mix {
                unit: WetLoc::Mixer(1),
                seconds: 2,
            },
        ]);
        assert_eq!(p.iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
        assert_eq!(p.into_iter().count(), 2);
    }
}
