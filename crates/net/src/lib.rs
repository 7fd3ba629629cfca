//! Network substrate for the Kite reproduction: real packet codecs and the
//! forwarding machinery a network driver domain is made of.
//!
//! Everything on the simulated wire is real bytes — Ethernet frames carry
//! IPv4 payloads with valid checksums, verified end-to-end by the
//! integration tests. Modules:
//!
//! * [`ether`] — Ethernet II framing, MAC addresses, wire-length model;
//! * [`ipv4`] / [`icmp`] / [`udp`] — protocol codecs with RFC 1071
//!   checksums ([`checksum`]); the Ethernet/IPv4/ICMP/UDP types are generic
//!   over their payload bytes — owned when built for sending, a validated
//!   borrowed view of the wire buffer when parsed — and
//!   [`UdpDatagram::encode_frame`] builds all three layers in one buffer,
//!   [`UdpDatagram::frame_header`] the same headers for a payload that
//!   stays where it is, and [`IcmpMessage::frame_header`] an echo's;
//! * [`flow`] — deterministic Toeplitz/RSS flow hashing for multi-queue
//!   steering;
//! * [`bridge`] — the learning bridge Kite's network application manages;
//! * [`nat`] — source NAT, the alternative VIF-to-NIC linking technique;
//! * [`dhcp`] — RFC 2131 wire format for the daemon-VM experiment.

pub mod bridge;
pub mod checksum;
pub mod dhcp;
pub mod ether;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod nat;
pub mod udp;

pub use bridge::{Bridge, BridgePort, Forward};
pub use dhcp::{DhcpMessage, DhcpMessageType};
pub use ether::{EtherType, EthernetFrame, MacAddr, ETH_MTU};
pub use flow::{flow_hash, steer, RSS_KEY};
pub use icmp::IcmpMessage;
pub use ipv4::{IpProto, Ipv4Packet};
pub use nat::{Endpoint, Nat};
pub use udp::UdpDatagram;
