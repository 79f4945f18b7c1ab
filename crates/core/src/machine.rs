//! The PLoC machine description relevant to volume management.

use std::error::Error;
use std::fmt;

use aqua_rational::Ratio;

/// Hardware parameters of the target programmable lab-on-a-chip.
///
/// Volumes are in nanoliters throughout (the paper's unit). The default
/// used by the paper's evaluation is a maximum capacity of 100 nl per
/// reservoir/functional unit and a least count of 0.1 nl (100 pl), the
/// metering resolution demonstrated for PDMS valves.
///
/// # Examples
///
/// ```
/// use aqua_volume::Machine;
///
/// let m = Machine::paper_default();
/// assert_eq!(m.max_capacity_nl().to_string(), "100");
/// assert_eq!(m.least_count_nl().to_string(), "1/10");
/// assert_eq!(m.span().to_string(), "1000");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    max_capacity_nl: Ratio,
    least_count_nl: Ratio,
    /// Number of storage reservoirs available for compile-time
    /// allocation (bounds static replication).
    pub reservoirs: usize,
    /// Number of mixer functional units.
    pub mixers: usize,
    /// Number of heater functional units.
    pub heaters: usize,
    /// Number of separator functional units.
    pub separators: usize,
    /// Number of sensor functional units.
    pub sensors: usize,
    /// Number of chip input ports.
    pub input_ports: usize,
}

/// Error constructing an inconsistent machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineError(String);

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine description: {}", self.0)
    }
}

impl Error for MachineError {}

impl Machine {
    /// The paper's evaluation machine: 100 nl capacity, 0.1 nl least
    /// count, with a generous but finite fluid-path inventory.
    pub fn paper_default() -> Machine {
        Machine::new(Ratio::from_int(100), Ratio::new(1, 10).expect("nonzero"))
            .expect("paper default is valid")
    }

    /// Creates a machine with the given capacity and least count (both
    /// in nanoliters) and a default unit inventory.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] unless `0 < least_count <= max_capacity`.
    pub fn new(max_capacity_nl: Ratio, least_count_nl: Ratio) -> Result<Machine, MachineError> {
        if !least_count_nl.is_positive() {
            return Err(MachineError("least count must be positive".into()));
        }
        if max_capacity_nl < least_count_nl {
            return Err(MachineError(
                "max capacity must be at least the least count".into(),
            ));
        }
        Ok(Machine {
            max_capacity_nl,
            least_count_nl,
            reservoirs: 32,
            mixers: 2,
            heaters: 2,
            separators: 2,
            sensors: 2,
            input_ports: 16,
        })
    }

    /// Returns this machine with a different reservoir count
    /// (builder-style).
    pub fn with_reservoirs(mut self, reservoirs: usize) -> Machine {
        self.reservoirs = reservoirs;
        self
    }

    /// Returns this machine with a different input-port count
    /// (builder-style).
    pub fn with_input_ports(mut self, input_ports: usize) -> Machine {
        self.input_ports = input_ports;
        self
    }

    /// Returns this machine with a different mixer count
    /// (builder-style). More mixers widen the schedulable parallelism
    /// of independent mixes.
    pub fn with_mixers(mut self, mixers: usize) -> Machine {
        self.mixers = mixers;
        self
    }

    /// Returns this machine with a different heater count
    /// (builder-style).
    pub fn with_heaters(mut self, heaters: usize) -> Machine {
        self.heaters = heaters;
        self
    }

    /// Returns this machine with a different separator count
    /// (builder-style).
    pub fn with_separators(mut self, separators: usize) -> Machine {
        self.separators = separators;
        self
    }

    /// Returns this machine with a different sensor count
    /// (builder-style).
    pub fn with_sensors(mut self, sensors: usize) -> Machine {
        self.sensors = sensors;
        self
    }

    /// Maximum volume a reservoir or functional unit can hold, in nl.
    pub fn max_capacity_nl(&self) -> Ratio {
        self.max_capacity_nl
    }

    /// Minimum metered transfer volume, in nl.
    pub fn least_count_nl(&self) -> Ratio {
        self.least_count_nl
    }

    /// The dynamic range `max_capacity / least_count` — the largest
    /// volume ratio the hardware can realize in a single mix.
    pub fn span(&self) -> Ratio {
        self.max_capacity_nl / self.least_count_nl
    }

    /// Rounds a volume to the nearest least-count multiple (half away
    /// from zero), the paper's RVol -> IVol rounding.
    pub fn round_to_least_count(&self, vol_nl: Ratio) -> Ratio {
        let counts = (vol_nl / self.least_count_nl).round();
        Ratio::from_int(counts) * self.least_count_nl
    }

    /// Whether `vol_nl` is an exact least-count multiple.
    pub fn is_least_count_multiple(&self, vol_nl: Ratio) -> bool {
        (vol_nl / self.least_count_nl).is_integer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d).unwrap()
    }

    #[test]
    fn paper_default_parameters() {
        let m = Machine::paper_default();
        assert_eq!(m.max_capacity_nl(), Ratio::from_int(100));
        assert_eq!(m.least_count_nl(), r(1, 10));
        assert_eq!(m.span(), Ratio::from_int(1000));
    }

    #[test]
    fn rejects_degenerate_machines() {
        assert!(Machine::new(Ratio::from_int(100), Ratio::ZERO).is_err());
        assert!(Machine::new(Ratio::from_int(100), Ratio::from_int(-1)).is_err());
        assert!(Machine::new(r(1, 10), Ratio::from_int(100)).is_err());
        // least count == capacity is legal (span 1).
        assert!(Machine::new(Ratio::from_int(5), Ratio::from_int(5)).is_ok());
    }

    #[test]
    fn builder_methods_adjust_inventory() {
        let m = Machine::paper_default()
            .with_reservoirs(4)
            .with_input_ports(2)
            .with_mixers(8)
            .with_heaters(3)
            .with_separators(1)
            .with_sensors(5);
        assert_eq!(m.reservoirs, 4);
        assert_eq!(m.input_ports, 2);
        assert_eq!(m.mixers, 8);
        assert_eq!(m.heaters, 3);
        assert_eq!(m.separators, 1);
        assert_eq!(m.sensors, 5);
        // Volume parameters are untouched.
        assert_eq!(m.span(), Ratio::from_int(1000));
    }

    #[test]
    fn rounding_to_least_count() {
        let m = Machine::paper_default();
        assert_eq!(m.round_to_least_count(r(337, 100)), r(34, 10)); // 3.37 -> 3.4
        assert_eq!(m.round_to_least_count(r(335, 100)), r(34, 10)); // 3.35 -> 3.4
        assert!(m.is_least_count_multiple(r(33, 10)));
        assert!(!m.is_least_count_multiple(r(333, 100)));
    }
}
