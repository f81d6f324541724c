//! # scadasim — SCADA network configuration modeling
//!
//! The communication side of the SCADA resiliency analyzer (DSN'16
//! reproduction): devices (IEDs, RTUs, MTU, routers) with protocol and
//! crypto configuration, point-to-point links, per-host-pair security
//! profiles, forwarding-path enumeration, the organizational security
//! policy that classifies profiles as authenticating / integrity
//! protecting, a Table-II-style textual config format, and a synthetic
//! SCADA generator reproducing the paper's evaluation methodology.
//!
//! # Examples
//!
//! Build the smallest SCADA system and enumerate its delivery paths:
//!
//! ```
//! use scadasim::{Device, DeviceId, DeviceKind, Link, Topology};
//! use scadasim::paths::{forwarding_paths, PathLimits};
//!
//! let topo = Topology::new(
//!     vec![
//!         Device::new(DeviceId(0), DeviceKind::Ied),
//!         Device::new(DeviceId(1), DeviceKind::Rtu),
//!         Device::new(DeviceId(2), DeviceKind::Mtu),
//!     ],
//!     vec![
//!         Link::new(DeviceId(0), DeviceId(1)),
//!         Link::new(DeviceId(1), DeviceId(2)),
//!     ],
//! );
//! let paths = forwarding_paths(&topo, DeviceId(0), &PathLimits::default());
//! assert_eq!(paths.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod crypto;
mod device;
pub mod generator;
pub mod paths;
mod policy;
mod protocol;
mod topology;

pub use config::{parse_config, write_config, ParseConfigError, ScadaConfig, MAX_BUSES};
pub use crypto::{CryptoAlgorithm, CryptoProfile, ParseAlgorithmError};
pub use device::{Device, DeviceId, DeviceKind};
pub use generator::{generate, GeneratedScada, ScadaGenConfig};
pub use policy::{Rule, SecurityPolicy};
pub use protocol::{ParseProtocolError, Protocol};
pub use topology::{Link, LinkMedium, Topology, TopologyError};
