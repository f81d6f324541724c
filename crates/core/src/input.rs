//! Analysis input: everything the SCADA Analyzer consumes (Fig 2 of the
//! paper): physical components, topology, the control operation's data
//! requirements (measurements and their Jacobian structure), and the
//! security policy.

use powergrid::{MeasurementId, MeasurementSet};
use scadasim::paths::PathLimits;
use scadasim::{DeviceId, DeviceKind, ScadaConfig, SecurityPolicy, Topology};

/// The full input to a verification run.
#[derive(Debug, Clone)]
pub struct AnalysisInput {
    /// Measurements over the power system.
    pub measurements: MeasurementSet,
    /// The SCADA communication topology.
    pub topology: Topology,
    /// Which measurements each IED records.
    pub ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)>,
    /// Organizational security policy (authentication/integrity rules).
    pub policy: SecurityPolicy,
    /// Path-enumeration limits.
    pub path_limits: PathLimits,
    /// Whether routers may fail too (the paper's budgets count field
    /// devices only, so this defaults to `false`).
    pub routers_can_fail: bool,
}

impl AnalysisInput {
    /// Creates an input with the default policy and limits.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid (see
    /// [`Topology::validate`]), a measurement is recorded by two IEDs,
    /// or an association references a non-IED.
    pub fn new(
        measurements: MeasurementSet,
        topology: Topology,
        ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)>,
    ) -> AnalysisInput {
        AnalysisInput::checked(measurements, topology, ied_measurements)
            .unwrap_or_else(|problem| panic!("{problem}"))
    }

    /// [`AnalysisInput::new`], returning what it would panic on as an
    /// error: for parts that come from outside the program.
    pub(crate) fn checked(
        measurements: MeasurementSet,
        topology: Topology,
        ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)>,
    ) -> Result<AnalysisInput, String> {
        let errors = topology.validate();
        if !errors.is_empty() {
            return Err(format!("invalid topology: {errors:?}"));
        }
        let mut recorded_by = vec![None; measurements.len()];
        for (ied, ms) in &ied_measurements {
            if topology.devices().get(ied.index()).map(|d| d.kind()) != Some(DeviceKind::Ied) {
                return Err(format!("{ied} records measurements but is not an IED"));
            }
            for m in ms {
                if m.index() >= measurements.len() {
                    return Err(format!("unknown measurement {m}"));
                }
                if recorded_by[m.index()].replace(*ied).is_some() {
                    return Err(format!("measurement {m} recorded twice"));
                }
            }
        }
        Ok(AnalysisInput::from_valid(
            measurements,
            topology,
            ied_measurements,
        ))
    }

    /// [`AnalysisInput::new`] for parts already known to pass its
    /// checks, without running them again (the channel-directory
    /// importer checks the topology and association itself).
    pub(crate) fn from_valid(
        measurements: MeasurementSet,
        topology: Topology,
        ied_measurements: Vec<(DeviceId, Vec<MeasurementId>)>,
    ) -> AnalysisInput {
        AnalysisInput {
            measurements,
            topology,
            ied_measurements,
            policy: SecurityPolicy::dsn16(),
            path_limits: PathLimits::default(),
            routers_can_fail: false,
        }
    }

    /// Replaces the security policy.
    pub fn with_policy(mut self, policy: SecurityPolicy) -> AnalysisInput {
        self.policy = policy;
        self
    }

    /// Replaces the path limits.
    pub fn with_path_limits(mut self, limits: PathLimits) -> AnalysisInput {
        self.path_limits = limits;
        self
    }

    /// Allows routers to be counted as failable devices.
    pub fn allowing_router_failures(mut self) -> AnalysisInput {
        self.routers_can_fail = true;
        self
    }

    /// The IED recording a measurement, if any.
    pub fn recording_ied(&self, m: MeasurementId) -> Option<DeviceId> {
        self.ied_measurements
            .iter()
            .find(|(_, ms)| ms.contains(&m))
            .map(|&(ied, _)| ied)
    }

    /// Per-measurement recording IED, indexed by measurement.
    pub fn recorded_by(&self) -> Vec<Option<DeviceId>> {
        let mut by = vec![None; self.measurements.len()];
        for (ied, ms) in &self.ied_measurements {
            for m in ms {
                by[m.index()] = Some(*ied);
            }
        }
        by
    }

    /// All field devices (IEDs then RTUs), the domain of failure budgets.
    pub fn field_devices(&self) -> Vec<DeviceId> {
        self.topology
            .devices()
            .iter()
            .filter(|d| d.kind().is_field_device())
            .map(|d| d.id())
            .collect()
    }
}

impl From<ScadaConfig> for AnalysisInput {
    fn from(config: ScadaConfig) -> AnalysisInput {
        AnalysisInput::new(
            config.measurements,
            config.topology,
            config.ied_measurements,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::ieee::case5;
    use powergrid::MeasurementKind;
    use scadasim::{Device, Link};

    fn tiny_input() -> AnalysisInput {
        let ms = MeasurementSet::new(
            case5(),
            vec![
                MeasurementKind::Injection(powergrid::BusId(0)),
                MeasurementKind::Injection(powergrid::BusId(1)),
            ],
        );
        let topo = Topology::new(
            vec![
                Device::new(DeviceId(0), DeviceKind::Ied),
                Device::new(DeviceId(1), DeviceKind::Rtu),
                Device::new(DeviceId(2), DeviceKind::Mtu),
            ],
            vec![
                Link::new(DeviceId(0), DeviceId(1)),
                Link::new(DeviceId(1), DeviceId(2)),
            ],
        );
        AnalysisInput::new(
            ms,
            topo,
            vec![(DeviceId(0), vec![MeasurementId(0), MeasurementId(1)])],
        )
    }

    #[test]
    fn recording_lookup() {
        let input = tiny_input();
        assert_eq!(input.recording_ied(MeasurementId(0)), Some(DeviceId(0)));
        let by = input.recorded_by();
        assert_eq!(by, vec![Some(DeviceId(0)), Some(DeviceId(0))]);
        assert_eq!(input.field_devices(), vec![DeviceId(0), DeviceId(1)]);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_recording_rejected() {
        let base = tiny_input();
        AnalysisInput::new(
            base.measurements.clone(),
            base.topology.clone(),
            vec![
                (DeviceId(0), vec![MeasurementId(0)]),
                (DeviceId(0), vec![MeasurementId(0)]),
            ],
        );
    }
}
