//! Model deltas: small, validated mutations of an [`AnalysisInput`].
//!
//! Deployed SCADA models mutate continuously — a device is commissioned
//! or decommissioned, a security profile is rotated, an RTU uplink is
//! re-homed — and each mutation is tiny relative to the model. A
//! [`ModelPatch`] captures one such mutation so a warm
//! [`Analyzer`](crate::Analyzer) session can apply it in place (see
//! [`Analyzer::apply_patch`](crate::Analyzer::apply_patch)) instead of
//! forcing a cold rebuild.
//!
//! Two representation decisions keep patches compatible with the
//! incremental encoding:
//!
//! * **Devices are never deleted.** Ids are dense positional indices, so
//!   [`ModelPatch::RemoveDevice`] *retires* the slot: the device keeps
//!   its id, drops out of every forwarding path, and the encoder pins it
//!   available so its failure can never matter. Retirement is monotone —
//!   a retired device stays retired — which is what makes it expressible
//!   as a unit clause instead of a solver rebuild.
//! * **Links are never deleted either.** [`ModelPatch::RewireLink`]
//!   moves an existing link's endpoints; the link keeps its index and
//!   status, so link-failure budgets keep their meaning across patches.
//!
//! Application is validating and copy-on-write: [`ModelPatch::apply`]
//! clones, mutates, re-validates the topology, and only then returns the
//! new input, so a rejected patch leaves no trace. A
//! [`ModelPatch::SetProfile`] needs no re-validation (see
//! [`ModelPatch::apply`]).

use std::fmt;

use scadasim::{CryptoProfile, Device, DeviceId, DeviceKind, Link};

use crate::input::AnalysisInput;

/// One validated mutation of an analysis input.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelPatch {
    /// Commission a new device (IED, RTU, or router — never a second
    /// MTU) linked to the given peers. The new device takes the next
    /// dense id and speaks every protocol with no crypto suites;
    /// security is configured separately via [`ModelPatch::SetProfile`].
    AddDevice {
        /// The role of the new device.
        kind: DeviceKind,
        /// Existing devices the new device is linked to.
        peers: Vec<DeviceId>,
    },
    /// Decommission a device: the slot is retired in place (see the
    /// module docs), never re-indexed.
    RemoveDevice {
        /// The device to retire.
        id: DeviceId,
    },
    /// Replace the explicit security profiles of a device pair (an empty
    /// list still counts as an explicit entry: the handshake succeeds on
    /// a profile the policy may reject).
    SetProfile {
        /// One endpoint.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
        /// The new profile list for the pair.
        profiles: Vec<CryptoProfile>,
    },
    /// Re-home an existing link onto new endpoints, keeping its index,
    /// status, medium, and bandwidth.
    RewireLink {
        /// Index into [`scadasim::Topology::links`].
        link: usize,
        /// New endpoint.
        a: DeviceId,
        /// New endpoint.
        b: DeviceId,
    },
}

/// Why a patch was rejected; the model is untouched in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchError(String);

impl PatchError {
    fn new(msg: impl Into<String>) -> PatchError {
        PatchError(msg.into())
    }

    /// An internal failure while applying an otherwise valid patch
    /// (e.g. the certification proof flush at the patch boundary).
    pub(crate) fn internal(msg: impl Into<String>) -> PatchError {
        PatchError::new(msg)
    }
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PatchError {}

impl fmt::Display for ModelPatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelPatch::AddDevice { kind, peers } => {
                write!(f, "add_device {kind}")?;
                for p in peers {
                    write!(f, " {}", p.one_based())?;
                }
                Ok(())
            }
            ModelPatch::RemoveDevice { id } => {
                write!(f, "remove_device {}", id.one_based())
            }
            ModelPatch::SetProfile { a, b, profiles } => {
                write!(f, "set_profile {}-{}", a.one_based(), b.one_based())?;
                for p in profiles {
                    write!(f, " {p}")?;
                }
                Ok(())
            }
            ModelPatch::RewireLink { link, a, b } => {
                write!(f, "rewire_link {link} {}-{}", a.one_based(), b.one_based())
            }
        }
    }
}

impl ModelPatch {
    /// Applies the patch to a copy of `input`, validates the result, and
    /// returns the new input.
    ///
    /// A `SetProfile` result is not re-validated: it only inserts or
    /// replaces one pair's entry, and an entry makes its pair
    /// crypto-compatible ([`scadasim::Topology::crypto_pairing`]), so no
    /// hop closes. Devices, links and the MTU are unchanged, and every
    /// IED keeps its paths: no check of
    /// [`scadasim::Topology::validate`] can newly fail.
    ///
    /// # Errors
    ///
    /// Any ill-formed patch (unknown ids, retiring the MTU or an already
    /// retired device, a self-link) and any patch whose result is not a
    /// valid topology (e.g. a rewire that strands a live IED) is
    /// rejected, leaving `input` untouched.
    pub fn apply(&self, input: &AnalysisInput) -> Result<AnalysisInput, PatchError> {
        let mut next = input.clone();
        self.apply_in_place(&mut next)?;
        Ok(next)
    }

    /// [`ModelPatch::apply`] on `next` itself. A patch rejected by the
    /// final validation leaves `next` mutated, so callers that must keep
    /// the model apply to a copy.
    pub(crate) fn apply_in_place(&self, next: &mut AnalysisInput) -> Result<(), PatchError> {
        let devices = next.topology.num_devices();
        let check_id = |id: DeviceId| -> Result<(), PatchError> {
            if id.index() >= devices {
                return Err(PatchError::new(format!(
                    "unknown device {}",
                    id.one_based()
                )));
            }
            Ok(())
        };
        match self {
            ModelPatch::AddDevice { kind, peers } => {
                if *kind == DeviceKind::Mtu {
                    return Err(PatchError::new("cannot add a second MTU"));
                }
                if peers.is_empty() {
                    return Err(PatchError::new("add_device needs at least one link"));
                }
                for &p in peers {
                    check_id(p)?;
                }
                let id = DeviceId(next.topology.num_devices());
                next.topology.push_device(Device::new(id, *kind));
                for &p in peers {
                    next.topology.push_link(Link::new(id, p));
                }
            }
            ModelPatch::RemoveDevice { id } => {
                check_id(*id)?;
                let device = next.topology.device(*id);
                if device.kind() == DeviceKind::Mtu {
                    return Err(PatchError::new("cannot remove the MTU"));
                }
                if device.retired() {
                    return Err(PatchError::new(format!(
                        "device {} is already retired",
                        id.one_based()
                    )));
                }
                next.topology.retire_device(*id);
            }
            ModelPatch::SetProfile { a, b, profiles } => {
                check_id(*a)?;
                check_id(*b)?;
                if a == b {
                    return Err(PatchError::new("profile endpoints must differ"));
                }
                next.topology.set_pair_security(*a, *b, profiles.clone());
            }
            ModelPatch::RewireLink { link, a, b } => {
                if *link >= next.topology.links().len() {
                    return Err(PatchError::new(format!("unknown link {link}")));
                }
                check_id(*a)?;
                check_id(*b)?;
                if a == b {
                    return Err(PatchError::new("rewire would create a self-link"));
                }
                next.topology.rewire_link(*link, *a, *b);
            }
        }
        if matches!(self, ModelPatch::SetProfile { .. }) {
            return Ok(());
        }
        let errors = next.topology.validate();
        if let Some(first) = errors.first() {
            return Err(PatchError::new(format!("patch breaks the model: {first}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;
    use scadasim::CryptoAlgorithm;

    #[test]
    fn add_and_remove_round_trip() {
        let base = five_bus_case_study();
        let n = base.topology.num_devices();
        let mtu = base.topology.mtu();
        let added = ModelPatch::AddDevice {
            kind: DeviceKind::Rtu,
            peers: vec![mtu],
        }
        .apply(&base)
        .unwrap();
        assert_eq!(added.topology.num_devices(), n + 1);
        assert_eq!(
            added.topology.links().len(),
            base.topology.links().len() + 1
        );
        let removed = ModelPatch::RemoveDevice { id: DeviceId(n) }
            .apply(&added)
            .unwrap();
        // Retired in place, not deleted.
        assert_eq!(removed.topology.num_devices(), n + 1);
        assert!(removed.topology.device(DeviceId(n)).retired());
    }

    #[test]
    fn invalid_patches_rejected() {
        let base = five_bus_case_study();
        let mtu = base.topology.mtu();
        assert!(ModelPatch::RemoveDevice { id: mtu }.apply(&base).is_err());
        assert!(ModelPatch::RemoveDevice {
            id: DeviceId(base.topology.num_devices())
        }
        .apply(&base)
        .is_err());
        assert!(ModelPatch::AddDevice {
            kind: DeviceKind::Mtu,
            peers: vec![mtu]
        }
        .apply(&base)
        .is_err());
        assert!(ModelPatch::AddDevice {
            kind: DeviceKind::Rtu,
            peers: vec![]
        }
        .apply(&base)
        .is_err());
        assert!(ModelPatch::RewireLink {
            link: base.topology.links().len(),
            a: DeviceId(0),
            b: mtu
        }
        .apply(&base)
        .is_err());
        assert!(ModelPatch::SetProfile {
            a: DeviceId(0),
            b: DeviceId(0),
            profiles: vec![]
        }
        .apply(&base)
        .is_err());
    }

    #[test]
    fn stranding_rewire_rejected() {
        let base = five_bus_case_study();
        // Find an IED with exactly one incident link and try to move it
        // away: the IED becomes unreachable, so the patch must bounce.
        let links = base.topology.links();
        let mtu = base.topology.mtu();
        let lonely = base
            .topology
            .ieds()
            .map(|d| d.id())
            .find(|&ied| links.iter().filter(|l| l.a == ied || l.b == ied).count() == 1);
        if let Some(ied) = lonely {
            let li = links.iter().position(|l| l.a == ied || l.b == ied).unwrap();
            let other = links[li].other_end(ied);
            let moved = ModelPatch::RewireLink {
                link: li,
                a: other,
                b: mtu,
            };
            assert!(moved.apply(&base).is_err());
        }
    }

    #[test]
    fn set_profile_changes_pairing() {
        let base = five_bus_case_study();
        let profile = CryptoProfile::new(CryptoAlgorithm::Aes, 256);
        let a = DeviceId(0);
        let b = base.topology.mtu();
        let patched = ModelPatch::SetProfile {
            a,
            b,
            profiles: vec![profile],
        }
        .apply(&base)
        .unwrap();
        assert_eq!(
            patched.topology.explicit_pair_security(a, b),
            Some(&[profile][..])
        );
    }

    #[test]
    fn rejected_patch_leaves_input_untouched() {
        let base = five_bus_case_study();
        let before = crate::service::model_hash(&base);
        let mtu = base.topology.mtu();
        let _ = ModelPatch::RemoveDevice { id: mtu }.apply(&base);
        assert_eq!(crate::service::model_hash(&base), before);
    }
}
