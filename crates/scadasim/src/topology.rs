//! SCADA communication topology.
//!
//! Devices, point-to-point links (a link may abstract a routed path, as
//! the paper allows), and per-host-pair security profiles (Table II's
//! "security profile between the communicating entities").

use std::collections::HashMap;
use std::fmt;

use crate::crypto::CryptoProfile;
use crate::device::{Device, DeviceId, DeviceKind};
use crate::policy::SecurityPolicy;

/// The physical medium of a link (the paper's "link type, including the
/// medium type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkMedium {
    /// Wired Ethernet.
    #[default]
    Ethernet,
    /// Radio / microwave.
    Wireless,
    /// Serial line or leased modem.
    Serial,
    /// Optical fiber.
    Fiber,
}

impl std::fmt::Display for LinkMedium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            LinkMedium::Ethernet => "ethernet",
            LinkMedium::Wireless => "wireless",
            LinkMedium::Serial => "serial",
            LinkMedium::Fiber => "fiber",
        };
        f.write_str(name)
    }
}

/// A communication link between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// Whether the link is up (the paper's `LinkStatus`).
    pub up: bool,
    /// Physical medium.
    pub medium: LinkMedium,
    /// Nominal bandwidth in kbit/s.
    pub bandwidth_kbps: u32,
}

impl Link {
    /// Creates an Ethernet link that is up (10 Mbit/s nominal).
    pub fn new(a: DeviceId, b: DeviceId) -> Link {
        Link {
            a,
            b,
            up: true,
            medium: LinkMedium::Ethernet,
            bandwidth_kbps: 10_000,
        }
    }

    /// Sets the medium (builder style).
    pub fn with_medium(mut self, medium: LinkMedium) -> Link {
        self.medium = medium;
        self
    }

    /// Sets the nominal bandwidth (builder style).
    pub fn with_bandwidth_kbps(mut self, kbps: u32) -> Link {
        self.bandwidth_kbps = kbps;
        self
    }

    /// The endpoint that is not `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not an endpoint.
    pub fn other_end(&self, d: DeviceId) -> DeviceId {
        if self.a == d {
            self.b
        } else if self.b == d {
            self.a
        } else {
            panic!("{d} is not an endpoint of this link")
        }
    }
}

/// Errors detected by [`Topology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Not exactly one MTU.
    MtuCount(usize),
    /// A link references an unknown device.
    UnknownDevice(DeviceId),
    /// A link joins a device to itself.
    SelfLink(DeviceId),
    /// Some IED cannot reach the MTU even with everything up.
    Unreachable(DeviceId),
    /// An IED is used as a forwarding hop (IEDs never relay).
    IedForwarding(DeviceId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::MtuCount(n) => {
                write!(f, "expected exactly one MTU, found {n}")
            }
            TopologyError::UnknownDevice(d) => write!(f, "link references unknown {d}"),
            TopologyError::SelfLink(d) => write!(f, "self-link at {d}"),
            TopologyError::Unreachable(d) => {
                write!(f, "{d} cannot reach the MTU on any path")
            }
            TopologyError::IedForwarding(d) => {
                write!(f, "IED {d} appears as a forwarding hop")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A SCADA network: devices, links, and pair security profiles.
///
/// # Examples
///
/// ```
/// use scadasim::{Device, DeviceId, DeviceKind, Link, Topology};
///
/// let ied = Device::new(DeviceId(0), DeviceKind::Ied);
/// let rtu = Device::new(DeviceId(1), DeviceKind::Rtu);
/// let mtu = Device::new(DeviceId(2), DeviceKind::Mtu);
/// let topo = Topology::new(
///     vec![ied, rtu, mtu],
///     vec![Link::new(DeviceId(0), DeviceId(1)), Link::new(DeviceId(1), DeviceId(2))],
/// );
/// assert!(topo.validate().is_empty());
/// assert_eq!(topo.mtu(), DeviceId(2));
/// assert_eq!(topo.ieds().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    devices: Vec<Device>,
    links: Vec<Link>,
    /// Explicit security profiles per (unordered) device pair.
    pair_security: HashMap<(DeviceId, DeviceId), Vec<CryptoProfile>>,
    /// `adjacency[d]` = link indices incident to device `d`.
    adjacency: Vec<Vec<usize>>,
}

fn pair_key(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    (a.min(b), a.max(b))
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if device ids are not the dense sequence `0..n` in order
    /// (construct devices with their positional ids).
    pub fn new(devices: Vec<Device>, links: Vec<Link>) -> Topology {
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.id().index(), i, "device ids must be dense and ordered");
        }
        let mut adjacency = vec![Vec::new(); devices.len()];
        for (li, l) in links.iter().enumerate() {
            if l.a.index() < devices.len() {
                adjacency[l.a.index()].push(li);
            }
            if l.b.index() < devices.len() {
                adjacency[l.b.index()].push(li);
            }
        }
        Topology {
            devices,
            links,
            pair_security: HashMap::new(),
            adjacency,
        }
    }

    /// Attaches security profiles to a device pair (replacing previous
    /// ones for that pair).
    pub fn set_pair_security(&mut self, a: DeviceId, b: DeviceId, profiles: Vec<CryptoProfile>) {
        self.pair_security.insert(pair_key(a, b), profiles);
    }

    /// Appends a device (model-patch support). Ids are dense positional
    /// indices, so the new device must carry id `num_devices()`.
    ///
    /// # Panics
    ///
    /// Panics if the device id is not the next dense index.
    pub fn push_device(&mut self, device: Device) -> DeviceId {
        assert_eq!(
            device.id().index(),
            self.devices.len(),
            "device ids must be dense and ordered"
        );
        let id = device.id();
        self.devices.push(device);
        self.adjacency.push(Vec::new());
        id
    }

    /// Appends a link (model-patch support), maintaining adjacency.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is unknown.
    pub fn push_link(&mut self, link: Link) -> usize {
        assert!(
            link.a.index() < self.devices.len() && link.b.index() < self.devices.len(),
            "link endpoint out of range"
        );
        let li = self.links.len();
        self.links.push(link);
        self.adjacency[link.a.index()].push(li);
        self.adjacency[link.b.index()].push(li);
        li
    }

    /// Re-homes an existing link onto new endpoints (model-patch
    /// support). The link keeps its index, status, medium, and
    /// bandwidth — only the endpoints move — so failure-budget
    /// semantics over link indices are preserved.
    ///
    /// # Panics
    ///
    /// Panics if the link index or an endpoint is out of range.
    pub fn rewire_link(&mut self, index: usize, a: DeviceId, b: DeviceId) {
        assert!(index < self.links.len(), "link index out of range");
        assert!(
            a.index() < self.devices.len() && b.index() < self.devices.len(),
            "link endpoint out of range"
        );
        let old = self.links[index];
        for end in [old.a, old.b] {
            self.adjacency[end.index()].retain(|&li| li != index);
        }
        self.links[index].a = a;
        self.links[index].b = b;
        self.adjacency[a.index()].push(index);
        if b != a {
            self.adjacency[b.index()].push(index);
        }
    }

    /// Retires a device in place (model-patch support): the slot stays,
    /// but the device stops participating in forwarding paths.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn retire_device(&mut self, id: DeviceId) {
        self.devices[id.index()].retire();
    }

    /// The security profiles of a device pair: the explicit entry if one
    /// exists, otherwise the intersection of the two devices' suites.
    pub fn pair_security(&self, a: DeviceId, b: DeviceId) -> Vec<CryptoProfile> {
        if let Some(explicit) = self.pair_security.get(&pair_key(a, b)) {
            return explicit.clone();
        }
        let da = self.device(a);
        let db = self.device(b);
        da.crypto_suites()
            .iter()
            .copied()
            .filter(|p| db.crypto_suites().contains(p))
            .collect()
    }

    /// The explicit security profiles configured for a device pair, if
    /// any (no fallback to device suites).
    pub fn explicit_pair_security(&self, a: DeviceId, b: DeviceId) -> Option<&[CryptoProfile]> {
        self.pair_security
            .get(&pair_key(a, b))
            .map(|v| v.as_slice())
    }

    /// All explicit pair-security entries.
    pub fn pair_security_entries(
        &self,
    ) -> impl Iterator<Item = (DeviceId, DeviceId, &[CryptoProfile])> {
        self.pair_security
            .iter()
            .map(|(&(a, b), v)| (a, b, v.as_slice()))
    }

    /// All devices, ordered by id.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device with the given id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Devices of a kind.
    pub fn devices_of_kind(&self, kind: DeviceKind) -> impl Iterator<Item = &Device> {
        self.devices.iter().filter(move |d| d.kind() == kind)
    }

    /// All IEDs.
    pub fn ieds(&self) -> impl Iterator<Item = &Device> {
        self.devices_of_kind(DeviceKind::Ied)
    }

    /// All RTUs.
    pub fn rtus(&self) -> impl Iterator<Item = &Device> {
        self.devices_of_kind(DeviceKind::Rtu)
    }

    /// The MTU.
    ///
    /// # Panics
    ///
    /// Panics if the topology does not have exactly one MTU; call
    /// [`Topology::validate`] first on untrusted input.
    pub fn mtu(&self) -> DeviceId {
        let mut it = self.devices_of_kind(DeviceKind::Mtu);
        let first = it.next().expect("topology has no MTU").id();
        assert!(it.next().is_none(), "topology has multiple MTUs");
        first
    }

    /// Neighbors of a device over *up* links.
    pub fn neighbors(&self, d: DeviceId) -> Vec<DeviceId> {
        self.adjacency[d.index()]
            .iter()
            .filter(|&&li| self.links[li].up)
            .map(|&li| self.links[li].other_end(d))
            .collect()
    }

    /// The index (into [`Topology::links`]) of the first *up* link
    /// joining two devices, if any.
    pub fn link_index_between(&self, a: DeviceId, b: DeviceId) -> Option<usize> {
        self.adjacency[a.index()]
            .iter()
            .copied()
            .find(|&li| self.links[li].up && self.links[li].other_end(a) == b)
    }

    /// Checks structural invariants; an empty vector means valid.
    pub fn validate(&self) -> Vec<TopologyError> {
        let mut errors = Vec::new();
        let mtus = self.devices_of_kind(DeviceKind::Mtu).count();
        if mtus != 1 {
            errors.push(TopologyError::MtuCount(mtus));
        }
        for l in &self.links {
            for end in [l.a, l.b] {
                if end.index() >= self.devices.len() {
                    errors.push(TopologyError::UnknownDevice(end));
                }
            }
            if l.a == l.b {
                errors.push(TopologyError::SelfLink(l.a));
            }
        }
        if mtus == 1 && errors.is_empty() {
            // Retired IEDs deliberately have no paths; they are not a
            // structural error (their failure can never matter). One
            // path answers whether any exists; the search order does not
            // depend on the cap, so this flags what the default would.
            let first_path = crate::paths::PathLimits {
                max_paths: 1,
                ..Default::default()
            };
            for ied in self.ieds().filter(|d| !d.retired()) {
                if crate::paths::forwarding_paths(self, ied.id(), &first_path).is_empty() {
                    errors.push(TopologyError::Unreachable(ied.id()));
                }
            }
        }
        errors
    }

    /// The paper's `CommProtoPairing` for a hop.
    pub fn protocol_pairing(&self, a: DeviceId, b: DeviceId) -> bool {
        self.device(a).protocol_pairing(self.device(b))
    }

    /// The paper's `CryptoPropPairing` for a hop: an explicit pair
    /// profile counts as a successful handshake; otherwise devices must
    /// be device-level compatible.
    pub fn crypto_pairing(&self, a: DeviceId, b: DeviceId) -> bool {
        if self.pair_security.contains_key(&pair_key(a, b)) {
            return true;
        }
        self.device(a).crypto_pairing(self.device(b))
    }

    /// Whether a hop can carry data at all (both pairings hold).
    pub fn hop_compatible(&self, a: DeviceId, b: DeviceId) -> bool {
        self.protocol_pairing(a, b) && self.crypto_pairing(a, b)
    }

    /// Whether a hop is *secured* under a policy. Hops where one side is
    /// a router inherit the end-to-end pair profile of the devices the
    /// router connects — routers are transparent for security — so this
    /// returns `true` for router hops and the caller must check the
    /// router-collapsed hop instead (see
    /// [`crate::paths::security_hops`]).
    pub fn hop_secured(&self, policy: &SecurityPolicy, a: DeviceId, b: DeviceId) -> bool {
        if self.device(a).kind() == DeviceKind::Router
            || self.device(b).kind() == DeviceKind::Router
        {
            return true;
        }
        policy.hop_secured(&self.pair_security(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::CryptoAlgorithm;

    fn simple() -> Topology {
        let devices = vec![
            Device::new(DeviceId(0), DeviceKind::Ied),
            Device::new(DeviceId(1), DeviceKind::Rtu),
            Device::new(DeviceId(2), DeviceKind::Mtu),
        ];
        let links = vec![
            Link::new(DeviceId(0), DeviceId(1)),
            Link::new(DeviceId(1), DeviceId(2)),
        ];
        Topology::new(devices, links)
    }

    #[test]
    fn valid_simple_topology() {
        let t = simple();
        assert!(t.validate().is_empty());
        assert_eq!(t.mtu(), DeviceId(2));
        assert_eq!(t.neighbors(DeviceId(1)), vec![DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn downed_link_removes_neighbor() {
        let mut t = simple();
        assert_eq!(t.neighbors(DeviceId(0)), vec![DeviceId(1)]);
        // Take the 0-1 link down via direct mutation of a rebuilt topology.
        let mut links = t.links().to_vec();
        links[0].up = false;
        t = Topology::new(t.devices().to_vec(), links);
        assert!(t.neighbors(DeviceId(0)).is_empty());
    }

    #[test]
    fn missing_mtu_detected() {
        let devices = vec![
            Device::new(DeviceId(0), DeviceKind::Ied),
            Device::new(DeviceId(1), DeviceKind::Rtu),
        ];
        let t = Topology::new(devices, vec![Link::new(DeviceId(0), DeviceId(1))]);
        assert!(t
            .validate()
            .iter()
            .any(|e| matches!(e, TopologyError::MtuCount(0))));
    }

    #[test]
    fn unreachable_ied_detected() {
        let devices = vec![
            Device::new(DeviceId(0), DeviceKind::Ied),
            Device::new(DeviceId(1), DeviceKind::Rtu),
            Device::new(DeviceId(2), DeviceKind::Mtu),
        ];
        // IED is isolated.
        let t = Topology::new(devices, vec![Link::new(DeviceId(1), DeviceId(2))]);
        assert!(t
            .validate()
            .iter()
            .any(|e| matches!(e, TopologyError::Unreachable(d) if d.index() == 0)));
    }

    #[test]
    fn pair_security_explicit_beats_suites() {
        let mut t = simple();
        let profile = CryptoProfile::new(CryptoAlgorithm::Sha2, 256);
        t.set_pair_security(DeviceId(1), DeviceId(0), vec![profile]);
        // Lookup is unordered.
        assert_eq!(t.pair_security(DeviceId(0), DeviceId(1)), vec![profile]);
        assert!(t.pair_security(DeviceId(1), DeviceId(2)).is_empty());
        // An explicit entry implies a successful handshake.
        assert!(t.crypto_pairing(DeviceId(0), DeviceId(1)));
    }

    #[test]
    fn push_device_and_link_maintain_adjacency() {
        let mut t = simple();
        let id = t.push_device(Device::new(DeviceId(3), DeviceKind::Ied));
        assert_eq!(id, DeviceId(3));
        t.push_link(Link::new(DeviceId(3), DeviceId(1)));
        assert_eq!(t.neighbors(DeviceId(3)), vec![DeviceId(1)]);
        assert!(t.neighbors(DeviceId(1)).contains(&DeviceId(3)));
        assert!(t.validate().is_empty());
    }

    #[test]
    fn rewire_link_moves_endpoints() {
        let mut t = simple();
        t.push_device(Device::new(DeviceId(3), DeviceKind::Rtu));
        t.push_link(Link::new(DeviceId(3), DeviceId(2)));
        // Re-home the IED from RTU 1 onto RTU 3.
        t.rewire_link(0, DeviceId(0), DeviceId(3));
        assert_eq!(t.neighbors(DeviceId(0)), vec![DeviceId(3)]);
        assert!(!t.neighbors(DeviceId(1)).contains(&DeviceId(0)));
        assert!(t.validate().is_empty());
        assert_eq!(t.links().len(), 3);
    }

    #[test]
    fn retired_ied_is_not_unreachable() {
        let mut t = simple();
        // Cut the IED off, then retire it: no Unreachable error.
        t.rewire_link(0, DeviceId(1), DeviceId(2));
        t.retire_device(DeviceId(0));
        assert!(t.validate().is_empty());
    }

    #[test]
    fn self_link_detected() {
        let devices = vec![
            Device::new(DeviceId(0), DeviceKind::Ied),
            Device::new(DeviceId(1), DeviceKind::Mtu),
        ];
        let t = Topology::new(
            devices,
            vec![
                Link::new(DeviceId(0), DeviceId(0)),
                Link::new(DeviceId(0), DeviceId(1)),
            ],
        );
        assert!(t
            .validate()
            .iter()
            .any(|e| matches!(e, TopologyError::SelfLink(_))));
    }
}
