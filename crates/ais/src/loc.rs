//! Operand spaces: wet (fluidic) locations and dry (controller) registers.

use std::fmt;

/// Sub-port of a separator functional unit.
///
/// `separate` instructions address the separator body plus dedicated
/// ports for the affinity matrix, the pusher buffer, and the separated
/// output streams (effluent and waste), following the paper's
/// `separator2.matrix` / `separator2.pusher` / `separator2.out1` syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SepPort {
    /// The separation chamber itself (load target).
    Main,
    /// The pre-loaded affinity/chromatography matrix.
    Matrix,
    /// The pusher/carrier buffer inlet.
    Pusher,
    /// First output stream (effluent).
    Out1,
    /// Second output stream (waste).
    Out2,
}

impl SepPort {
    fn suffix(self) -> &'static str {
        match self {
            SepPort::Main => "",
            SepPort::Matrix => ".matrix",
            SepPort::Pusher => ".pusher",
            SepPort::Out1 => ".out1",
            SepPort::Out2 => ".out2",
        }
    }
}

/// A wet-datapath location: a reservoir, functional unit, or port.
///
/// The operand id space deliberately includes functional units so one
/// instruction can feed another without an intervening store
/// (storage-less operands).
///
/// # Examples
///
/// ```
/// use aqua_ais::{SepPort, WetLoc};
///
/// assert_eq!(WetLoc::Reservoir(3).to_string(), "s3");
/// assert_eq!(
///     WetLoc::Separator(2, SepPort::Out1).to_string(),
///     "separator2.out1"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WetLoc {
    /// On-chip storage reservoir `sN` (analogous to a register).
    Reservoir(u32),
    /// Mixer functional unit `mixerN`.
    Mixer(u32),
    /// Heater functional unit `heaterN`.
    Heater(u32),
    /// Separator functional unit `separatorN` with an optional sub-port.
    Separator(u32, SepPort),
    /// Sensor functional unit `sensorN`.
    Sensor(u32),
    /// Chip input port `ipN`.
    InputPort(u32),
    /// Chip output port `opN`.
    OutputPort(u32),
}

/// The allocatable resource class of a wet location — the scheduler's
/// analogue of a register class. Every location of one class is
/// interchangeable hardware (any mixer can run any mix), so a schedule
/// may *rename* a program's virtual unit indices onto whichever
/// physical slot of the class is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceClass {
    /// Storage reservoirs (`sN`).
    Reservoir,
    /// Mixers.
    Mixer,
    /// Heaters.
    Heater,
    /// Separators (all sub-ports of `separatorN` move together).
    Separator,
    /// Sensors.
    Sensor,
    /// Chip input ports.
    InputPort,
    /// Chip output ports.
    OutputPort,
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceClass::Reservoir => "reservoir",
            ResourceClass::Mixer => "mixer",
            ResourceClass::Heater => "heater",
            ResourceClass::Separator => "separator",
            ResourceClass::Sensor => "sensor",
            ResourceClass::InputPort => "input-port",
            ResourceClass::OutputPort => "output-port",
        };
        write!(f, "{name}")
    }
}

impl WetLoc {
    /// The resource class this location allocates from.
    pub fn class(self) -> ResourceClass {
        match self {
            WetLoc::Reservoir(_) => ResourceClass::Reservoir,
            WetLoc::Mixer(_) => ResourceClass::Mixer,
            WetLoc::Heater(_) => ResourceClass::Heater,
            WetLoc::Separator(..) => ResourceClass::Separator,
            WetLoc::Sensor(_) => ResourceClass::Sensor,
            WetLoc::InputPort(_) => ResourceClass::InputPort,
            WetLoc::OutputPort(_) => ResourceClass::OutputPort,
        }
    }

    /// The unit index within the class (`mixer2` → 2). Separator
    /// sub-ports share their unit's index.
    pub fn unit_index(self) -> u32 {
        match self {
            WetLoc::Reservoir(n)
            | WetLoc::Mixer(n)
            | WetLoc::Heater(n)
            | WetLoc::Separator(n, _)
            | WetLoc::Sensor(n)
            | WetLoc::InputPort(n)
            | WetLoc::OutputPort(n) => n,
        }
    }

    /// This location re-indexed onto another unit of the same class
    /// (sub-ports are preserved) — the renaming primitive.
    pub fn with_unit_index(self, n: u32) -> WetLoc {
        match self {
            WetLoc::Reservoir(_) => WetLoc::Reservoir(n),
            WetLoc::Mixer(_) => WetLoc::Mixer(n),
            WetLoc::Heater(_) => WetLoc::Heater(n),
            WetLoc::Separator(_, port) => WetLoc::Separator(n, port),
            WetLoc::Sensor(_) => WetLoc::Sensor(n),
            WetLoc::InputPort(_) => WetLoc::InputPort(n),
            WetLoc::OutputPort(_) => WetLoc::OutputPort(n),
        }
    }
}

impl fmt::Display for WetLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WetLoc::Reservoir(n) => write!(f, "s{n}"),
            WetLoc::Mixer(n) => write!(f, "mixer{n}"),
            WetLoc::Heater(n) => write!(f, "heater{n}"),
            WetLoc::Separator(n, port) => write!(f, "separator{n}{}", port.suffix()),
            WetLoc::Sensor(n) => write!(f, "sensor{n}"),
            WetLoc::InputPort(n) => write!(f, "ip{n}"),
            WetLoc::OutputPort(n) => write!(f, "op{n}"),
        }
    }
}

/// A named dry (electronic controller) register.
///
/// The controller's register file is symbolic: the compiler emits
/// registers like `r0`, `temp`, or `inh_dil` and the simulator binds
/// them on first write.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DryReg(pub String);

impl fmt::Display for DryReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for DryReg {
    fn from(s: &str) -> DryReg {
        DryReg(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(WetLoc::Reservoir(1).to_string(), "s1");
        assert_eq!(WetLoc::Mixer(1).to_string(), "mixer1");
        assert_eq!(WetLoc::Heater(1).to_string(), "heater1");
        assert_eq!(WetLoc::Sensor(2).to_string(), "sensor2");
        assert_eq!(WetLoc::InputPort(3).to_string(), "ip3");
        assert_eq!(WetLoc::OutputPort(1).to_string(), "op1");
        assert_eq!(
            WetLoc::Separator(2, SepPort::Matrix).to_string(),
            "separator2.matrix"
        );
        assert_eq!(
            WetLoc::Separator(1, SepPort::Main).to_string(),
            "separator1"
        );
    }

    #[test]
    fn resource_class_and_reindexing() {
        assert_eq!(WetLoc::Mixer(1).class(), ResourceClass::Mixer);
        assert_eq!(
            WetLoc::Separator(2, SepPort::Out1).class(),
            ResourceClass::Separator
        );
        assert_eq!(WetLoc::Separator(2, SepPort::Out1).unit_index(), 2);
        // Renaming preserves the class and any sub-port.
        assert_eq!(
            WetLoc::Separator(2, SepPort::Out1).with_unit_index(5),
            WetLoc::Separator(5, SepPort::Out1)
        );
        assert_eq!(
            WetLoc::Reservoir(3).with_unit_index(7),
            WetLoc::Reservoir(7)
        );
    }
}
