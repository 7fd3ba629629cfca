//! The network datapath: client ⇄ wire ⇄ NIC ⇄ Kite/Linux driver domain
//! (bridge + netback) ⇄ netfront ⇄ guest application.
//!
//! This is the paper's Figure 2 as an executable discrete-event system.
//! Real frames (Ethernet/IPv4/UDP/ICMP bytes with valid checksums) cross
//! every hop; virtual time advances through the cost models: NIC
//! serialization and interrupt moderation, event-channel delivery, the
//! driver domain's vCPUs running the cooperative pusher/soft_start
//! threads, and the guest's frontend work. The driver-domain lifecycle
//! (faults, detection, reboot, reconnect) lives in [`crate::host`].
//!
//! Applications attach as message handlers: the system auto-handles ICMP
//! in each endpoint's host stack and hands UDP payloads (macro workloads
//! model their TCP streams as segmented messages — see DESIGN.md §7) to
//! the registered handler, which returns replies.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;

use kite_core::{NetbackInstance, NetbackStats, NetworkApp, RecoveryStats};
use kite_devices::{LineRate, Nic, NicProfile, RxIrq};
use kite_frontends::Netfront;
use kite_net::ether::{tso_wire_cost, TSO_HEADERS_LEN, TSO_MSS};
use kite_net::{
    BridgePort, EtherType, EthernetFrame, Forward, IcmpMessage, IpProto, Ipv4Packet, MacAddr,
    UdpDatagram,
};
use kite_prof::Phase;
use kite_rumprun::OsProfile;
use kite_sim::{Histogram, IdleWake, Link, Nanos, Spares, TxOutcome};
use kite_trace::MetricsSnapshot;
use kite_xen::xenbus::FEATURE_GSO_KEY;
use kite_xen::{
    DevicePaths, DomainId, Hypervisor, PciDevice, Port, ReqId, ReqStage, SlotClass, PAGE_SIZE,
};

use crate::config::SystemConfig;
use crate::host::{set_bits, Datapath, Event, Host};

/// A UDP message delivered to an application handler.
#[derive(Clone, Debug)]
pub struct UdpMsg {
    /// Sender address.
    pub src_ip: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: UdpPayload,
}

/// A received datagram's payload, lent in place: the frame it arrived in,
/// and where in that frame the payload lies. It derefs to the payload
/// bytes, so the headers in front of them and any padding behind them are
/// never copied off.
#[derive(Clone)]
pub struct UdpPayload {
    frame: Vec<u8>,
    start: usize,
    end: usize,
}

impl Deref for UdpPayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.frame[self.start..self.end]
    }
}

/// A payload that is a whole buffer of its own.
impl From<Vec<u8>> for UdpPayload {
    fn from(frame: Vec<u8>) -> UdpPayload {
        let end = frame.len();
        UdpPayload {
            frame,
            start: 0,
            end,
        }
    }
}

impl fmt::Debug for UdpPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("UdpPayload").field(&&**self).finish()
    }
}

/// A reply an application handler wants transmitted.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Source port to stamp.
    pub src_port: u16,
    /// Payload bytes (chunked to MTU automatically).
    pub payload: Vec<u8>,
    /// Application compute cost charged before the reply leaves.
    pub cost: Nanos,
}

/// Application handler: reacts to one message with zero or more replies.
pub type UdpHandler = Box<dyn FnMut(Nanos, &UdpMsg) -> Vec<Reply>>;

/// Which endpoint an operation refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The DomU guest behind the driver domain.
    Guest,
    /// The external client machine.
    Client,
}

/// The network datapath's scheduled events.
pub enum NetEvent {
    /// The moderated interrupt of one of the server NIC's receive rings.
    NicIrq(u16),
    /// A frame lands on the server NIC from the wire.
    WireToServer(Vec<u8>),
    /// A frame lands on the client machine from the wire.
    WireToClient(Vec<u8>),
    /// A pre-scheduled application send.
    AppSend {
        /// Sending endpoint.
        side: Side,
        /// Destination address.
        dst_ip: Ipv4Addr,
        /// Destination port.
        dst_port: u16,
        /// Source port.
        src_port: u16,
        /// The whole message, cut into PV transfers in order when the
        /// event runs.
        payload: Vec<u8>,
    },
    /// The client transmits a pre-built frame (ping).
    ClientTxFrame(Vec<u8>),
}

// The scheduler stores events inline; growing them grows every slab slot.
const _: () = assert!(std::mem::size_of::<Event<NetEvent>>() <= 40);

/// Message chunk crossing the PV path per descriptor chain with GSO on:
/// 42 MSS-sized wire segments, the largest super-frame whose Ethernet
/// framing stays under the 64KB protocol cap. With GSO off the guest
/// segments to [`TSO_MSS`] in software.
pub const GSO_UDP: usize = TSO_MSS * 42;

/// What each pusher batch pays to hand off to the netback thread on its
/// vCPU, on both OSes: the threads are a cost constant here, not a
/// modelled run queue (DESIGN.md §2). The thread fetches its first slot
/// once the wake is paid.
pub const PUSHER_WAKE: Nanos = Nanos(200);

/// Cap on frames queued in the guest stack awaiting Tx ring slots.
///
/// This models the sum of socket send buffers. Closed-loop (TCP-like)
/// workloads rely on it never dropping — real TCP would simply block the
/// writer — so it is sized generously; open-loop UDP floods lose packets
/// earlier, at the NIC queue and the netback Rx queue.
const GUEST_TXQ_CAP: usize = 1 << 20;

/// A frame the guest stack holds until netfront takes it.
enum GuestTx {
    /// A UDP datagram or an ICMP echo reply: its 42 header bytes
    /// (Ethernet + IPv4, then UDP or ICMP) and its payload, never joined
    /// into one buffer. An echo reply carries its sequence number, by
    /// which request tracing follows a ping.
    Parts([u8; TSO_HEADERS_LEN], Vec<u8>, Option<u16>),
    /// A whole frame, replayed after a crash.
    Frame(Vec<u8>),
}

/// The ICMP echo sequence number carried by a raw frame, when it is one.
/// Request tracing keys ping requests on this: the request and its reply
/// share the sequence, so one `SlotClass::NetIcmp` entry follows the
/// whole round trip. Parses in place (borrowed views, no allocation),
/// but verifies two checksums, so `traced_ping` skips it while tracing
/// is disabled.
fn icmp_echo_seq(frame: &[u8]) -> Option<u16> {
    let eth = EthernetFrame::decode(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::decode(eth.payload)?;
    if ip.proto != IpProto::Icmp {
        return None;
    }
    match IcmpMessage::decode(ip.payload)? {
        IcmpMessage::EchoRequest { seq, .. } | IcmpMessage::EchoReply { seq, .. } => Some(seq),
    }
}

/// Measurement taps exposed to workloads.
#[derive(Default)]
pub struct NetMetrics {
    /// UDP payload bytes delivered to the client app.
    pub client_rx_bytes: u64,
    /// UDP datagrams delivered to the client app.
    pub client_rx_msgs: u64,
    /// UDP payload bytes delivered to the guest app.
    pub guest_rx_bytes: u64,
    /// UDP datagrams delivered to the guest app.
    pub guest_rx_msgs: u64,
    /// Datagrams dropped anywhere on the path.
    pub drops: u64,
    /// ICMP echo RTTs observed by the client.
    pub ping_rtts: Histogram,
}

/// Addresses used by the canonical scenario.
pub mod addrs {
    use std::net::Ipv4Addr;

    /// Gateway IP on the driver domain's physical IF.
    pub const GATEWAY: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 50);
    /// The DomU guest.
    pub const GUEST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
    /// The external client/load generator.
    pub const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
}

/// Network-datapath state: the client machine and its link, the NIC and
/// the driver domain's network application, netfront and the guest's
/// stack.
pub struct NetPath {
    gso: bool,
    wire: LineRate,
    nic: Nic,
    phys_mac: MacAddr,
    /// The driver domain's network application (bridge, IF port, NAT).
    pub netapp: NetworkApp,
    nb_stats_base: NetbackStats,
    vif_port: BridgePort,
    netfront: Option<Netfront>,
    nf_ring_full_base: u64,
    guest_mac: MacAddr,
    client_mac: MacAddr,
    guest_txq: VecDeque<GuestTx>,
    guest_app: Option<UdpHandler>,
    client_link: Link,
    client_app: Option<UdpHandler>,
    /// Frames netback's soft_start finished copying into the guest: the
    /// client's datagrams are built into them.
    client_frames: Spares,
    icmp_sent: HashMap<u16, Nanos>,
    /// Netback queues the VIF callback handed frames to since the last
    /// NIC interrupt handler collected them (bit `q`).
    vif_woken: u64,
    /// Per-wake scratch, cleared not dropped: the frames one NIC
    /// interrupt drained, the frames one pusher run produced, and the
    /// frames one wake puts on the wire.
    nic_in: Vec<Vec<u8>>,
    pusher_out: Vec<Vec<u8>>,
    to_wire: Vec<Vec<u8>>,
    /// Measurement taps.
    pub metrics: NetMetrics,
}

impl NetPath {
    /// The application handler installed on `side`.
    fn app(&mut self, side: Side) -> &mut Option<UdpHandler> {
        match side {
            Side::Guest => &mut self.guest_app,
            Side::Client => &mut self.client_app,
        }
    }
}

/// The network scenario system: a [`Host`] running the network
/// datapath.
pub type NetSystem = Host<NetPath>;

impl Datapath for NetPath {
    type Backend = NetbackInstance;
    type Event = NetEvent;
    const KITE_DOMAIN: &'static str = "netbackend";
    /// HVM halt exit + Linux scheduler in the Ubuntu DomU (identical in
    /// every scenario; calibrated against Figure 7's ping).
    const GUEST_WAKE: IdleWake = IdleWake {
        cap: Nanos(190_000),
        div: 24,
    };

    fn phase_of(ev: &NetEvent) -> Phase {
        match ev {
            NetEvent::AppSend { .. } => Phase::DispatchAppSend,
            NetEvent::WireToServer(_) | NetEvent::WireToClient(_) | NetEvent::ClientTxFrame(_) => {
                Phase::DispatchWire
            }
            NetEvent::NicIrq(_) => Phase::DispatchNicIrq,
        }
    }

    fn pci_device() -> PciDevice {
        // Intel 82599ES 10-Gigabit SFI/SFP+
        PciDevice {
            bdf: "03:00.0".parse().expect("static BDF"),
        }
    }

    fn build(cfg: &SystemConfig, _hv: &mut Hypervisor, _driver: DomainId) -> (NetPath, OsProfile) {
        let netapp = NetworkApp::start("ixg0", addrs::GATEWAY);
        let mut client_link = Link::ten_gbe();
        client_link.rate_bps = cfg.wire.bps();
        let dp = NetPath {
            gso: cfg.gso,
            wire: cfg.wire,
            // One receive ring (and vector) per queue, like the vCPUs.
            nic: Nic::with_profile(
                NicProfile::default()
                    .with_line_rate(cfg.wire)
                    .with_rx_queues(cfg.queues),
            ),
            phys_mac: MacAddr::local(0xee01),
            nb_stats_base: NetbackStats::default(),
            // Re-aimed when the backend connects and the VIF is added.
            vif_port: netapp.if_port,
            netapp,
            netfront: None,
            nf_ring_full_base: 0,
            guest_mac: MacAddr::local(0xaa01),
            client_mac: MacAddr::local(0xcc01),
            guest_txq: VecDeque::new(),
            guest_app: None,
            client_link,
            client_app: None,
            client_frames: Spares::default(),
            icmp_sent: HashMap::new(),
            vif_woken: 0,
            nic_in: Vec::new(),
            pusher_out: Vec::new(),
            to_wire: Vec::new(),
            metrics: NetMetrics::default(),
        };
        (dp, cfg.os.profile())
    }

    fn driver_booted(&mut self, _hv: &mut Hypervisor, _driver: DomainId) {
        // The bridge and its learned table died with the old domain.
        self.netapp = NetworkApp::start("ixg0", addrs::GATEWAY);
    }

    fn advertise(&self, hv: &mut Hypervisor, paths: &DevicePaths) {
        if self.gso {
            // The toolstack advertises segmentation offload under the
            // backend path; the frontend echoes it when willing.
            let be = paths.backend();
            hv.store
                .write(
                    DomainId::DOM0,
                    None,
                    &format!("{be}/{FEATURE_GSO_KEY}"),
                    "1",
                )
                .expect("advertise gso");
        }
    }

    fn connect_frontend(&mut self, hv: &mut Hypervisor, paths: &DevicePaths, nqueues: u32) {
        let nf =
            Netfront::connect_with_queues(hv, paths, self.guest_mac, nqueues).expect("netfront");
        self.netfront = Some(nf);
    }

    fn backend_connected(
        &mut self,
        _hv: &mut Hypervisor,
        _paths: &DevicePaths,
        nb: &NetbackInstance,
    ) {
        self.vif_port = self.netapp.add_vif(&nb.vif);
    }

    fn latency(&self) -> &Histogram {
        &self.metrics.ping_rtts
    }

    fn handle(host: &mut NetSystem, now: Nanos, ev: NetEvent) {
        host.handle_net(now, ev);
    }

    fn run_backend(host: &mut NetSystem, now: Nanos, q: usize) {
        host.run_netback(now, q);
    }

    fn guest_irq(host: &mut NetSystem, now: Nanos, port: Port) {
        host.netfront_irq(now, port);
    }

    fn backend_lost(&mut self, nb: &NetbackInstance, recovery: &mut RecoveryStats) {
        // World->guest frames parked in the dead backend are gone.
        recovery.dropped_frames += nb.rx_backlog() as u64;
        self.metrics.drops += nb.rx_backlog() as u64;
        self.nb_stats_base.merge(&nb.stats());
        self.netapp.remove_vif(self.vif_port);
    }

    fn salvage(&mut self, hv: &Hypervisor, recovery: &mut RecoveryStats) {
        // The frontend salvages its unacknowledged Tx frames for replay
        // and retires the device.
        if let Some(mut nf) = self.netfront.take() {
            let unacked = nf.take_unacked(hv);
            recovery.retried_ops += unacked.len() as u64;
            self.nf_ring_full_base += nf.tx_ring_full();
            for f in unacked.into_iter().rev() {
                self.guest_txq.push_front(GuestTx::Frame(f));
            }
        }
    }

    fn replay(host: &mut NetSystem, now: Nanos) {
        host.drain_guest_txq(now);
    }

    /// Both directions count; RXQ_DEPTH is each queue's world→guest
    /// backlog.
    fn top_cells(host: &NetSystem) -> ([u64; 4], Vec<u64>) {
        let s = host.netback_stats();
        let cells = [
            s.tx_packets + s.rx_packets,
            s.tx_bytes + s.rx_bytes,
            s.rx_dropped,
            s.gso_tx_frames + s.lro_rx_frames,
        ];
        let depths = host.rx_queue_depths().into_iter().map(|d| d as u64);
        (cells, depths.collect())
    }

    fn export(host: &NetSystem, rows: &mut MetricsSnapshot) {
        let m = &host.dp.metrics;
        rows.push_int("client_rx_bytes", "bytes", m.client_rx_bytes);
        rows.push_int("client_rx_msgs", "count", m.client_rx_msgs);
        rows.push_int("guest_rx_bytes", "bytes", m.guest_rx_bytes);
        rows.push_int("guest_rx_msgs", "count", m.guest_rx_msgs);
        rows.push_int("drops", "count", m.drops);
        for (q, depth) in host.rx_queue_depths().into_iter().enumerate() {
            rows.push_int(format!("rx_queue_depth_q{q}"), "count", depth as u64);
        }
        host.netback_stats().export(rows, "");
    }
}

impl Host<NetPath> {
    /// Switches the driver domain's network application to NAT linking
    /// (the paper's §3.1 alternative to bridging). Call before traffic.
    pub fn use_nat(&mut self) {
        self.dp.netapp.use_nat();
    }

    /// Installs the guest-side application handler.
    pub fn set_guest_app(&mut self, h: UdpHandler) {
        self.dp.guest_app = Some(h);
    }

    /// Installs the client-side application handler.
    pub fn set_client_app(&mut self, h: UdpHandler) {
        self.dp.client_app = Some(h);
    }

    /// Schedules a UDP send at `t`, as one event per message: payloads
    /// above one PV transfer unit are chunked when it runs, so their
    /// order is the message's and not the scheduler's tiebreak.
    pub fn send_udp_at(
        &mut self,
        t: Nanos,
        side: Side,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        payload: Vec<u8>,
    ) {
        let send = NetEvent::AppSend {
            side,
            dst_ip,
            dst_port,
            src_port,
            payload,
        };
        self.schedule_at(t, send);
    }

    /// Schedules an ICMP echo request from the client at `t` (ping),
    /// laid into a frame the client sent earlier.
    pub fn ping_at(&mut self, t: Nanos, seq: u16) {
        const PAYLOAD: [u8; 56] = [0x2a; 56];
        let req = IcmpMessage::EchoRequest {
            ident: 0x4b49,
            seq,
            payload: &PAYLOAD[..],
        };
        let (guest_mac, client_mac) = (self.dp.guest_mac, self.dp.client_mac);
        let header = req.frame_header(guest_mac, client_mac, addrs::CLIENT, addrs::GUEST);
        let mut frame = self.dp.client_frames.take(header.len() + PAYLOAD.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&PAYLOAD);
        self.dp.icmp_sent.insert(seq, t);
        // Injection point for request tracing: the sampler decides here
        // whether this ping's round trip is followed stage by stage. The
        // client machine is outside any domain; its stamps book to dom 0.
        if let Some(r) = self.hv.req.admit(0, t) {
            self.hv.req.map(SlotClass::NetIcmp, seq as u64, r);
        }
        self.schedule_at(t, NetEvent::ClientTxFrame(frame));
    }

    /// The configured wire profile.
    pub fn wire(&self) -> LineRate {
        self.dp.wire
    }

    /// Whether the *connected* backend/frontend pair negotiated GSO
    /// chains (false while the backend is down).
    pub fn gso_negotiated(&self) -> bool {
        self.backend.device().is_some_and(|nb| nb.gso())
            && self.dp.netfront.as_ref().is_some_and(|nf| nf.gso())
    }

    /// Per-queue world→guest backlog depths on the connected netback.
    pub fn rx_queue_depths(&self) -> Vec<usize> {
        self.backend
            .device()
            .map_or_else(Vec::new, |nb| nb.rx_backlogs())
    }

    /// Netback statistics, summed across backend incarnations.
    pub fn netback_stats(&self) -> NetbackStats {
        let mut s = self.dp.nb_stats_base;
        if let Some(nb) = self.backend.device() {
            s.merge(&nb.stats());
        }
        s
    }

    /// Times netfront refused a send because the Tx ring was full, summed
    /// across device incarnations. Despite the name no frame is dropped:
    /// a refused frame stays at the head of the guest's Tx queue and is
    /// retried on Tx completion, so this counts back-pressure stalls.
    pub fn guest_tx_dropped(&self) -> u64 {
        self.dp.nf_ring_full_base + self.dp.netfront.as_ref().map_or(0, |nf| nf.tx_ring_full())
    }

    // ---- internals -----------------------------------------------------

    /// The traced request `frame` belongs to: an ICMP echo whose round
    /// trip request tracing follows. Parses nothing while tracing is off.
    fn traced_ping(&self, frame: &[u8]) -> Option<ReqId> {
        if !self.hv.req.is_enabled() {
            return None;
        }
        let seq = icmp_echo_seq(frame)?;
        self.hv.req.lookup(SlotClass::NetIcmp, seq as u64)
    }

    fn mac_of(&self, ip: Ipv4Addr) -> MacAddr {
        if ip == addrs::GUEST {
            self.dp.guest_mac
        } else if ip == addrs::CLIENT {
            self.dp.client_mac
        } else {
            // Gateway / unknown: the physical IF answers.
            self.dp.phys_mac
        }
    }

    /// Client machine puts a frame on the wire toward the server NIC.
    /// Super-frames go through the client NIC's TSO engine: the wire
    /// carries MTU segments (with replicated headers and per-segment
    /// framing overhead), so serialization charges the segmented byte
    /// count even though the simulation moves the aggregate.
    fn client_transmit(&mut self, now: Nanos, frame: Vec<u8>) {
        let (wire_len, _segs) = tso_wire_cost(frame.len());
        match self.dp.client_link.transmit(now, wire_len) {
            TxOutcome::Sent { arrives, .. } => {
                self.schedule_at(arrives, NetEvent::WireToServer(frame));
            }
            TxOutcome::Dropped => self.dp.metrics.drops += 1,
        }
    }

    /// Queues a frame in the guest stack and pushes as much as fits into
    /// the Tx ring, notifying the backend when the protocol asks.
    fn guest_send(&mut self, now: Nanos, tx: GuestTx) {
        if self.dp.guest_txq.len() >= GUEST_TXQ_CAP {
            self.dp.metrics.drops += 1;
            return;
        }
        self.dp.guest_txq.push_back(tx);
        self.drain_guest_txq(now);
    }

    fn drain_guest_txq(&mut self, now: Nanos) {
        if self.dp.netfront.is_none() {
            return; // backend down: frames wait for the replacement device
        }
        let mut notify = 0u64; // bit q: queue q's backend wants a kick
        let mut cost = Nanos::ZERO;
        while let Some(tx) = self.dp.guest_txq.front() {
            let req = match tx {
                GuestTx::Parts(.., ping) => {
                    ping.and_then(|seq| self.hv.req.lookup(SlotClass::NetIcmp, seq as u64))
                }
                GuestTx::Frame(frame) => self.traced_ping(frame),
            };
            let nf = self.dp.netfront.as_mut().expect("checked");
            let res = match tx {
                GuestTx::Parts(header, payload, _) => {
                    nf.send_parts(&mut self.hv, header, payload, req)
                }
                GuestTx::Frame(frame) => nf.send(&mut self.hv, frame, req),
            };
            match res {
                Ok((q, op)) => {
                    self.dp.guest_txq.pop_front();
                    if let Some(r) = req {
                        let (dom, qid) = (self.guest.0, Some(q as u16));
                        self.hv.req.stamp_at(r, ReqStage::RingSubmit, dom, qid, now);
                    }
                    if op.notify {
                        notify |= 1 << q;
                    }
                    cost += op.cost;
                }
                // Ring full, retried on Tx completion; or the queue's
                // backend broke it, and the frame stays parked.
                Err(_) => break,
            }
        }
        if cost > Nanos::ZERO {
            self.guest_cpu_run(now, cost);
        }
        for q in set_bits(notify) {
            let port = self.dp.netfront.as_ref().expect("checked").port_of(q);
            self.kick_backend(port, now);
        }
    }

    /// Hands a world->guest frame to netback's Rx queue and notes which
    /// queue's `soft_start` the VIF callback woke; during an outage (or
    /// on queue overflow) the frame is dropped, as real traffic is while
    /// a driver domain reboots.
    fn deliver_to_guest(&mut self, frame: Vec<u8>) {
        match self.backend.device_mut() {
            Some(nb) => match nb.steer_to_guest(frame) {
                Some(q) => self.dp.vif_woken |= 1 << q,
                None => self.dp.metrics.drops += 1,
            },
            None => {
                self.dp.metrics.drops += 1;
                self.recovery.dropped_frames += 1;
            }
        }
    }

    /// Forwarding inside the driver domain for one frame arriving on
    /// `ingress`. Frames destined to the NIC wire are appended to
    /// `to_wire`.
    ///
    /// In [`kite_core::netapp::LinkMode::Bridge`] this is the learning
    /// bridge; in NAT mode the app routes at L3, rewriting addresses
    /// (with checksums re-encoded) in each direction.
    fn bridge_forward(
        &mut self,
        now: Nanos,
        ingress: BridgePort,
        frame: Vec<u8>,
        to_wire: &mut Vec<Vec<u8>>,
    ) {
        if self.dp.netapp.mode == kite_core::netapp::LinkMode::Nat {
            if ingress == self.dp.vif_port {
                // Guest → world: SNAT to the gateway; non-NATable frames
                // (ICMP in this model) pass through unchanged.
                to_wire.push(self.dp.netapp.nat_outbound(&frame).unwrap_or(frame));
                return;
            }
            // World → gateway: reverse-translate or drop (unsolicited).
            match self.dp.netapp.nat_inbound(&frame, self.dp.guest_mac) {
                Some(inframe) => {
                    self.deliver_to_guest(inframe);
                }
                None => {
                    // ICMP and ARP still reach the guest (the gateway
                    // proxies them); unsolicited UDP is dropped.
                    let Some(eth) = EthernetFrame::decode(&frame) else {
                        self.dp.metrics.drops += 1;
                        return;
                    };
                    let is_udp =
                        Ipv4Packet::decode(eth.payload).is_some_and(|ip| ip.proto == IpProto::Udp);
                    if !is_udp {
                        self.deliver_to_guest(frame);
                    } else {
                        self.dp.metrics.drops += 1;
                    }
                }
            }
            return;
        }
        let Some(eth) = EthernetFrame::decode(&frame) else {
            self.dp.metrics.drops += 1;
            return;
        };
        // The port still owed the frame. Only a flood copies: the last
        // port but the ingress, in the bridge's order, takes the frame.
        let owed = match self.dp.netapp.bridge.input(ingress, eth.src, eth.dst, now) {
            Forward::Unicast(p) => Some(p),
            Forward::Flood => {
                let (mut owed, mut i) = (None, 0);
                while let Some(p) = self.dp.netapp.bridge.port_at(i) {
                    i += 1;
                    if p != ingress {
                        if let Some(prev) = owed.replace(p) {
                            self.egress(prev, frame.clone(), to_wire);
                        }
                    }
                }
                owed
            }
            Forward::Drop => None,
        };
        let Some(last) = owed else {
            // No port takes the frame: a `Drop` decision, or a flood
            // with no other port, as while the backend is down and its
            // VIF unplugged.
            self.dp.metrics.drops += 1;
            if !self.backend.is_connected() {
                self.recovery.dropped_frames += 1;
            }
            return;
        };
        self.egress(last, frame, to_wire);
    }

    /// Sends `frame` out bridge port `p`: the NIC's onto `to_wire`, the
    /// VIF's to the guest.
    fn egress(&mut self, p: BridgePort, frame: Vec<u8>, to_wire: &mut Vec<Vec<u8>>) {
        if p == self.dp.netapp.if_port {
            to_wire.push(frame);
        } else if p == self.dp.vif_port {
            self.deliver_to_guest(frame);
        }
    }

    /// Transmits frames out the physical NIC starting at `t`. A frame
    /// above wire MTU is a super-frame the NIC's TSO engine segments:
    /// serialization charges the full segmented byte count and the
    /// per-segment descriptor cost, but the frame crosses the simulated
    /// wire as one unit. Empties `frames`.
    fn nic_transmit(&mut self, t: Nanos, frames: &mut Vec<Vec<u8>>) {
        for frame in frames.drain(..) {
            let (wire_len, segs) = tso_wire_cost(frame.len());
            match self.dp.nic.transmit_segs(t, wire_len, segs) {
                TxOutcome::Sent { arrives, .. } => {
                    self.schedule_at(arrives, NetEvent::WireToClient(frame));
                }
                TxOutcome::Dropped => self.dp.metrics.drops += 1,
            }
        }
    }

    /// Queue `q` was woken — by its event channel or by the NIC ring
    /// that feeds it — at `now`, when its vCPU finished the handler: runs
    /// the queue's pusher, pushes its output through the bridge and out
    /// the NIC, then runs its soft_start, each to exhaustion; schedules
    /// all effects.
    ///
    /// The thread pair is pinned to vCPU `q` and a wake-up costs that
    /// vCPU only: the other queues' threads sleep until their own
    /// interrupts, so `n` queues on an n-vCPU driver domain drain
    /// concurrently and no vCPU's clock follows another's.
    fn run_netback(&mut self, now: Nanos, q: usize) {
        if !self.backend.is_connected() || self.hung {
            return; // driver domain down (or livelocked: threads never run)
        }
        // Pusher: guest -> bridge/world.
        let mut guest_frames = std::mem::take(&mut self.dp.pusher_out);
        loop {
            let start = self.driver_cpus.free_at(q).max(now) + PUSHER_WAKE;
            let nb = self.backend.device_mut().expect("checked");
            let batch = nb
                .pusher_run_into(&mut self.hv, q, 128, start, guest_frames)
                .expect("pusher");
            guest_frames = batch.frames;
            self.dp.metrics.drops += batch.dropped as u64;
            let done = self.driver_cpus.run_on(q, now, PUSHER_WAKE + batch.cost);
            if batch.notify {
                self.kick_frontend(q, q, done);
            }
            if !batch.more {
                break;
            }
        }
        // Upper layer: push the pusher output through the bridge, then
        // onto the wire once this queue's vCPU is free.
        let mut to_wire = std::mem::take(&mut self.dp.to_wire);
        for f in guest_frames.drain(..) {
            self.bridge_forward(now, self.dp.vif_port, f, &mut to_wire);
        }
        self.dp.pusher_out = guest_frames;
        let t = self.driver_cpus.free_at(q).max(now);
        for f in &to_wire {
            if let Some(r) = self.traced_ping(f) {
                let dom = self.driver.0;
                self.hv
                    .req
                    .stamp_at(r, ReqStage::NicTx, dom, Some(q as u16), t);
            }
        }
        self.nic_transmit(t, &mut to_wire);
        self.dp.to_wire = to_wire;

        // soft_start: queued world -> guest frames into the Rx ring; the
        // frames it has copied go back to the client.
        loop {
            let nb = self.backend.device_mut().expect("checked");
            let spent = |f| self.dp.client_frames.put(f);
            let batch = nb
                .soft_start_run_into(&mut self.hv, q, 128, spent)
                .expect("soft_start");
            self.dp.metrics.drops += batch.dropped as u64;
            let done = self.driver_cpus.run_on(q, now, batch.cost);
            if batch.notify {
                self.kick_frontend(q, q, done);
            }
            if batch.delivered == 0 {
                break; // either no frames queued or no Rx buffers posted
            }
            if !batch.more {
                break;
            }
        }
    }

    /// One endpoint's host stack: handles a frame delivered to `side`.
    /// ICMP is answered (guest) or matched to its ping (client) in-stack;
    /// UDP payloads go to the side's application handler. The frame is
    /// parsed in place; a frame that fails any layer's validation, or
    /// carries a protocol the endpoints do not speak, counts as a drop.
    /// A frame the stack took goes back to the site that allocates its
    /// kind once the stack and the handler are done with it.
    fn stack_rx(&mut self, side: Side, now: Nanos, frame: Vec<u8>) {
        let Some(eth) = EthernetFrame::decode(&frame) else {
            self.dp.metrics.drops += 1;
            return;
        };
        if eth.ethertype != EtherType::Ipv4 {
            self.dp.metrics.drops += 1;
            return;
        }
        let Some(ip) = Ipv4Packet::decode(eth.payload) else {
            self.dp.metrics.drops += 1;
            return;
        };
        match ip.proto {
            IpProto::Icmp => {
                let Some(msg) = IcmpMessage::decode(ip.payload) else {
                    self.dp.metrics.drops += 1;
                    return;
                };
                match (side, msg) {
                    (
                        Side::Guest,
                        IcmpMessage::EchoRequest {
                            ident,
                            seq,
                            payload,
                        },
                    ) => {
                        if let Some(r) = self.hv.req.lookup(SlotClass::NetIcmp, seq as u64) {
                            let dom = self.guest.0;
                            self.hv.req.stamp_at(r, ReqStage::RxDeliver, dom, None, now);
                        }
                        let reply = IcmpMessage::EchoReply {
                            ident,
                            seq,
                            payload,
                        };
                        let header =
                            reply.frame_header(eth.src, self.dp.guest_mac, addrs::GUEST, ip.src);
                        let tx = GuestTx::Parts(header, payload.to_vec(), Some(seq));
                        // ICMP handled in-stack: tiny cost.
                        self.guest_cpu_run(now, Nanos::from_nanos(500));
                        self.guest_send(now, tx);
                    }
                    (Side::Client, IcmpMessage::EchoReply { seq, .. }) => {
                        if let Some(t0) = self.dp.icmp_sent.remove(&seq) {
                            self.dp.metrics.ping_rtts.record(now - t0);
                        }
                        if let Some(r) = self.hv.req.take(SlotClass::NetIcmp, seq as u64) {
                            self.hv.req.finish_at(r, 0, now);
                        }
                    }
                    // A valid message this side does not act on.
                    _ => {}
                }
                self.stack_done(side, frame);
            }
            IpProto::Udp => {
                let Some(udp) = UdpDatagram::decode(ip.payload, ip.src, ip.dst) else {
                    self.dp.metrics.drops += 1;
                    return;
                };
                let (src_ip, src_port, dst_port) = (ip.src, udp.src_port, udp.dst_port);
                // The validated payload sits in `frame` right after the
                // three fixed-size headers: the application is lent it
                // there, padding and headers left where they are.
                let len = udp.payload.len();
                let m = &mut self.dp.metrics;
                let (bytes, msgs) = match side {
                    Side::Guest => (&mut m.guest_rx_bytes, &mut m.guest_rx_msgs),
                    Side::Client => (&mut m.client_rx_bytes, &mut m.client_rx_msgs),
                };
                *bytes += len as u64;
                *msgs += 1;
                self.mark_first_byte(now);
                let msg = UdpMsg {
                    src_ip,
                    src_port,
                    dst_port,
                    payload: UdpPayload {
                        frame,
                        start: TSO_HEADERS_LEN,
                        end: TSO_HEADERS_LEN + len,
                    },
                };
                if let Some(mut app) = self.dp.app(side).take() {
                    let replies = app(now, &msg);
                    *self.dp.app(side) = Some(app);
                    self.emit_replies(now, side, replies);
                }
                // The handler only saw `&UdpMsg`.
                self.stack_done(side, msg.payload.frame);
            }
            // The endpoints speak ICMP and UDP only.
            _ => self.dp.metrics.drops += 1,
        }
    }

    /// Hands back a frame `side`'s stack is done with. The guest's goes to
    /// netfront, which gathers a later frame into it. The client's goes to
    /// netback when it fits one page, which makes it a single-slot Tx
    /// frame: a later one is copied into it. A chain's frame is left to
    /// the allocator (DESIGN.md §19), and with no device connected so is
    /// every frame.
    fn stack_done(&mut self, side: Side, frame: Vec<u8>) {
        match side {
            Side::Guest => {
                if let Some(nf) = self.dp.netfront.as_mut() {
                    nf.recycle(frame);
                }
            }
            Side::Client if frame.len() <= PAGE_SIZE => {
                if let Some(nb) = self.backend.device_mut() {
                    nb.recycle(frame);
                }
            }
            Side::Client => {}
        }
    }

    fn emit_replies(&mut self, now: Nanos, side: Side, replies: Vec<Reply>) {
        for r in replies {
            let ready = match side {
                Side::Guest => self.guest_cpu_run(now, r.cost),
                Side::Client => now + r.cost,
            };
            self.send_udp_at(ready, side, r.dst_ip, r.dst_port, r.src_port, r.payload);
        }
    }

    /// Puts one datagram from `side` on its way at `now`.
    fn send_datagram(
        &mut self,
        now: Nanos,
        side: Side,
        dst_ip: Ipv4Addr,
        datagram: UdpDatagram<Vec<u8>>,
    ) {
        let (src_ip, src_mac) = match side {
            Side::Client => (addrs::CLIENT, self.dp.client_mac),
            Side::Guest => (addrs::GUEST, self.dp.guest_mac),
        };
        let dst_mac = self.mac_of(dst_ip);
        match side {
            // What `encode_frame` builds, in a frame the client sent
            // earlier.
            Side::Client => {
                let header = datagram.frame_header(dst_mac, src_mac, src_ip, dst_ip);
                let mut frame = self
                    .dp
                    .client_frames
                    .take(header.len() + datagram.payload.len());
                frame.extend_from_slice(&header);
                frame.extend_from_slice(&datagram.payload);
                self.client_transmit(now, frame);
            }
            // The guest's frame is built once, in netfront's Tx pages:
            // the queue holds its header and the payload.
            Side::Guest => {
                let header = datagram.frame_header(dst_mac, src_mac, src_ip, dst_ip);
                self.guest_send(now, GuestTx::Parts(header, datagram.payload, None));
            }
        }
    }

    fn handle_net(&mut self, now: Nanos, ev: NetEvent) {
        match ev {
            NetEvent::AppSend {
                side,
                dst_ip,
                dst_port,
                src_port,
                payload,
            } => {
                // One PV transfer: a descriptor chain with GSO on, one
                // ring slot (the guest segments to MTU in software)
                // without.
                let unit = if self.dp.gso { GSO_UDP } else { TSO_MSS };
                if payload.len() <= unit {
                    let datagram = UdpDatagram::new(src_port, dst_port, payload);
                    self.send_datagram(now, side, dst_ip, datagram);
                } else {
                    for chunk in payload.chunks(unit) {
                        let datagram = UdpDatagram::new(src_port, dst_port, chunk.to_vec());
                        self.send_datagram(now, side, dst_ip, datagram);
                    }
                }
            }
            NetEvent::ClientTxFrame(frame) => self.client_transmit(now, frame),
            NetEvent::WireToServer(frame) => match self.dp.nic.rx_enqueue(now, frame) {
                RxIrq::FireAt { at, ring } => self.schedule_at(at, NetEvent::NicIrq(ring)),
                RxIrq::AlreadyPending => {}
                RxIrq::Dropped => self.dp.metrics.drops += 1,
            },
            NetEvent::NicIrq(ring) => {
                let k = ring as usize;
                if self.hung {
                    // The livelocked driver never services the interrupt;
                    // the NIC's receive ring overflows and the frames are
                    // lost on the floor, exactly like hardware would.
                    let lost = self.dp.nic.rx(k).drain(now, usize::MAX).len() as u64;
                    self.dp.metrics.drops += lost;
                    self.recovery.dropped_frames += lost;
                    if let Some(fire) = self.dp.nic.rx(k).rearm_irq(now) {
                        self.schedule_at(fire, NetEvent::NicIrq(ring));
                    }
                    return;
                }
                // NIC interrupt in the driver domain: short handler, then
                // the stack pushes frames through the bridge toward VIFs.
                // Receive ring `k`'s vector is pinned to the vCPU of the
                // netback queue it feeds.
                let handler_done = self.driver_irq(k, now, self.profile.irq_overhead);
                let mut frames = std::mem::take(&mut self.dp.nic_in);
                self.dp.nic.rx(k).drain_into(now, 64, &mut frames);
                let mut per_frame = Nanos::ZERO;
                for f in &frames {
                    per_frame += self.profile.per_packet + Nanos(f.len() as u64 / 16);
                }
                let t = self.driver_cpus.run_on(k, handler_done, per_frame);
                let mut to_wire = std::mem::take(&mut self.dp.to_wire);
                for f in frames.drain(..) {
                    if let Some(r) = self.traced_ping(&f) {
                        let dom = self.driver.0;
                        self.hv.req.stamp_at(r, ReqStage::NicRx, dom, None, now);
                    }
                    self.bridge_forward(now, self.dp.netapp.if_port, f, &mut to_wire);
                }
                self.dp.nic_in = frames;
                self.nic_transmit(t, &mut to_wire);
                self.dp.to_wire = to_wire;
                // The VIF callback woke soft_start on the queue each frame
                // steered to — queue `k`, the NIC and netback sharing one
                // hash, unless NAT rewrote the flow — and queue `k`'s
                // pusher may have work pending.
                for q in set_bits(std::mem::take(&mut self.dp.vif_woken) | 1 << k) {
                    self.run_netback(t, q);
                }
                if let Some(fire) = self.dp.nic.rx(k).rearm_irq(now) {
                    self.schedule_at(fire, NetEvent::NicIrq(ring));
                }
            }
            NetEvent::WireToClient(frame) => self.stack_rx(Side::Client, now, frame),
        }
    }

    /// Netfront's interrupt handler in the guest for the queue whose
    /// event channel is `port`. Like the backend's, the wake-up is local
    /// to its queue: the handler reaps that queue's Tx completions and Rx
    /// deliveries and re-arms that queue's rings; the other queues'
    /// responses wait for their own interrupts (Linux netfront binds one
    /// interrupt and one NAPI instance per queue). A handler that swept
    /// every ring on any queue's interrupt would re-arm all of them at
    /// once and lock the queues' notification cycles together.
    fn netfront_irq(&mut self, now: Nanos, port: Port) {
        let Some(q) = self.dp.netfront.as_ref().and_then(|nf| nf.queue_of(port)) else {
            return; // stale interrupt for a retired device
        };
        let (wake, t) = self.guest_irq(now);
        // Netfront refuses whatever a backend should not have written,
        // a corrupt `rsp_prod` included, so the handler fails only on a
        // guest page that does not exist.
        let op = self
            .dp
            .netfront
            .as_mut()
            .expect("checked")
            .on_queue_irq(&mut self.hv, q)
            .expect("netfront irq");
        let done = self.guest_cpu_run(now, wake + op.cost + self.profile.irq_overhead);
        if op.notify {
            self.kick_backend(port, done);
        }
        while let Some(frame) = self.dp.netfront.as_mut().expect("checked").recv() {
            self.stack_rx(Side::Guest, t, frame);
        }
        // Tx completions may have freed ring slots.
        self.drain_guest_txq(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendOs, HealthState, SloConfig};
    use kite_net::ether::ETH_HEADER_LEN;
    use kite_xen::FaultPlan;

    /// The SLO probe judges the datapath's one latency record: samples
    /// that reach only `metrics.ping_rtts` decide its verdict.
    #[test]
    fn slo_probe_judges_the_datapath_record() {
        let health = |slow: u64| {
            let mut sys = SystemConfig::new(BackendOs::Kite, 1)
                .watchdog()
                .slo(SloConfig {
                    p99: Some(Nanos::from_millis(1)),
                    min_samples: 1,
                })
                .build_net();
            for _ in 0..slow {
                sys.dp.metrics.ping_rtts.record(Nanos::from_secs(1));
            }
            sys.ping_at(Nanos::from_millis(1), 0);
            // Past the first probe (500 ms).
            sys.run_to_quiescence();
            assert_eq!(sys.metrics.ping_rtts.count(), slow + 1);
            sys.health()
        };
        assert_eq!(health(0), Some(HealthState::Healthy));
        assert_eq!(health(2), Some(HealthState::Suspect { missed: 0 }));
    }

    /// Every frame an endpoint's stack rejects is a booked drop, whichever
    /// layer rejected it, so "sent = delivered + drops" holds for any
    /// malformed input.
    #[test]
    fn stack_rx_books_every_undecodable_frame_as_a_drop() {
        let mut sys = SystemConfig::new(BackendOs::Kite, 1).build_net();
        let good = UdpDatagram::new(1200, 9999, [7u8; 64]).encode_frame(
            MacAddr::local(0xaa01),
            MacAddr::local(0xcc01),
            addrs::CLIENT,
            addrs::GUEST,
        );
        let mut flipped = good.clone();
        flipped[ETH_HEADER_LEN + 8] ^= 0x10; // TTL bit: IPv4 header checksum fails
        let mut bad_udp = good.clone();
        *bad_udp.last_mut().expect("payload") ^= 1;
        let echo = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: [7u8; 64],
        };
        let (dst, src) = (MacAddr::local(0xaa01), MacAddr::local(0xcc01));
        let header = echo.frame_header(dst, src, addrs::CLIENT, addrs::GUEST);
        let ping = [&header[..], &[7u8; 64]].concat();
        let mut bad_icmp = ping.clone();
        *bad_icmp.last_mut().expect("payload") ^= 1; // ICMP checksum fails
        let arp = EthernetFrame::new(dst, src, EtherType::Arp, [0u8; 28]).encode();
        let tcp = EthernetFrame::new(
            dst,
            src,
            EtherType::Ipv4,
            Ipv4Packet::new(addrs::CLIENT, addrs::GUEST, IpProto::Tcp, [0u8; 20]).encode(),
        )
        .encode();
        let malformed = [
            good[..ETH_HEADER_LEN - 1].to_vec(),  // no Ethernet header
            good[..ETH_HEADER_LEN + 10].to_vec(), // cut inside the IPv4 header
            good[..good.len() - 1].to_vec(),      // shorter than its IPv4 total length
            flipped,
            bad_udp,
            bad_icmp,
            arp, // an ethertype the endpoints do not speak
            tcp, // valid IPv4, a protocol they do not speak
        ];
        for side in [Side::Guest, Side::Client] {
            for frame in &malformed {
                let before = sys.dp.metrics.drops;
                sys.stack_rx(side, Nanos::ZERO, frame.clone());
                assert_eq!(
                    sys.dp.metrics.drops,
                    before + 1,
                    "{side:?}: {} bytes",
                    frame.len()
                );
            }
            let before = sys.dp.metrics.drops;
            sys.stack_rx(side, Nanos::ZERO, good.clone());
            assert_eq!(sys.dp.metrics.drops, before, "{side:?}: valid frame");
            // The guest answers a valid echo request, the client ignores
            // it; neither is a drop.
            sys.stack_rx(side, Nanos::ZERO, ping.clone());
            assert_eq!(sys.dp.metrics.drops, before, "{side:?}: valid ping");
        }
        let m = &sys.dp.metrics;
        assert_eq!((m.guest_rx_msgs, m.client_rx_msgs), (1, 1));
        assert_eq!((m.guest_rx_bytes, m.client_rx_bytes), (64, 64));
    }

    /// 200 datagrams of 512 B sent 20 µs apart from `side` while one
    /// grant copy in five fails: (delivered, `drops`, netback stats).
    fn send_through_failing_copies(side: Side) -> (u64, u64, NetbackStats) {
        let mut sys = SystemConfig::new(BackendOs::Kite, 3).build_net();
        sys.inject_faults(FaultPlan::seeded(9).with_copy_failures(0.2));
        let dst = match side {
            Side::Client => addrs::GUEST,
            Side::Guest => addrs::CLIENT,
        };
        for i in 1..=200 {
            sys.send_udp_at(
                Nanos::from_micros(20 * i),
                side,
                dst,
                9999,
                1234,
                vec![5; 512],
            );
        }
        sys.run_to_quiescence();
        let m = &sys.dp.metrics;
        let delivered = match side {
            Side::Client => m.guest_rx_msgs,
            Side::Guest => m.client_rx_msgs,
        };
        (delivered, m.drops, sys.netback_stats())
    }

    /// A frame soft_start loses to a failed copy into the guest's buffer
    /// is a booked drop: sent = delivered + drops.
    #[test]
    fn soft_start_copy_failures_are_booked_drops() {
        let (delivered, drops, nb) = send_through_failing_copies(Side::Client);
        assert!(nb.rx_dropped > 0, "the fault plan hit soft_start");
        assert_eq!(drops, nb.rx_dropped);
        assert_eq!(delivered + drops, 200);
    }

    /// A frame the pusher loses to a failed copy out of the guest's
    /// buffer is a booked drop: sent = delivered + drops.
    #[test]
    fn pusher_copy_failures_are_booked_drops() {
        let (delivered, drops, nb) = send_through_failing_copies(Side::Guest);
        assert!(nb.tx_errors > 0, "the fault plan hit the pusher");
        assert_eq!(drops, nb.tx_errors);
        assert_eq!(delivered + drops, 200);
    }

    /// A frame too short to carry an Ethernet header (netback accepts
    /// any non-zero Tx size, so a guest can send one) is a booked drop
    /// wherever the driver domain's forwarding has to parse it.
    #[test]
    fn bridge_forward_books_an_undecodable_frame_as_a_drop() {
        let runt = vec![0u8; 5];
        let forward = |sys: &mut NetSystem, ingress: BridgePort| {
            let before = sys.dp.metrics.drops;
            let mut to_wire = Vec::new();
            sys.bridge_forward(Nanos::ZERO, ingress, runt.clone(), &mut to_wire);
            assert!(to_wire.is_empty(), "nothing reaches the wire");
            assert_eq!(sys.dp.metrics.drops, before + 1);
        };
        let mut bridged = SystemConfig::new(BackendOs::Kite, 1).build_net();
        let (vif, phys) = (bridged.dp.vif_port, bridged.dp.netapp.if_port);
        forward(&mut bridged, vif);
        forward(&mut bridged, phys);
        let mut nat = SystemConfig::new(BackendOs::Kite, 1).build_net();
        nat.use_nat();
        let phys = nat.dp.netapp.if_port;
        forward(&mut nat, phys);
    }

    /// A guest that sends from 10 000 spoofed source MACs fills the
    /// bridge's table once and loses nothing: on four queues every frame
    /// still reaches the client, unicast while the client's address is
    /// learned or flooded to the IF port, and both stations learned
    /// before the flood stay reachable.
    #[test]
    fn a_guest_mac_flood_is_bounded_and_every_frame_is_still_forwarded() {
        use kite_net::bridge::BRIDGE_RTABLE_MAX;
        const FLOOD: u32 = 10_000;
        let mut sys = SystemConfig::new(BackendOs::Kite, 7).queues(4).build_net();
        let us = Nanos::from_micros;
        sys.send_udp_at(us(10), Side::Client, addrs::GUEST, 1234, 9999, vec![1; 64]);
        sys.send_udp_at(us(20), Side::Guest, addrs::CLIENT, 9999, 1234, vec![1; 64]);
        sys.run_until(us(100));
        let (guest_mac, client_mac) = (sys.dp.guest_mac, sys.dp.client_mac);
        let spoofed = |i: u32| MacAddr::local(0x0100_0000 + i);
        // 100 frames every 100 µs, each from a new source MAC and over
        // 64 source ports, so all four queues carry the flood.
        let mut t = us(100);
        for i in 0..FLOOD {
            let udp = UdpDatagram::new(2000 + (i % 64) as u16, 1234, vec![2; 64]);
            let frame = udp.encode_frame(client_mac, spoofed(i), addrs::GUEST, addrs::CLIENT);
            sys.guest_send(t, GuestTx::Frame(frame));
            if i % 100 == 99 {
                t += us(100);
                sys.run_until(t);
            }
        }
        sys.run_until(t + us(1_000));
        let bridge = &sys.dp.netapp.bridge;
        let now = sys.now();
        let learned = (0..FLOOD)
            .filter(|&i| bridge.lookup(spoofed(i), now).is_some())
            .count();
        assert!(
            learned <= BRIDGE_RTABLE_MAX,
            "{learned} spoofed MACs learned"
        );
        assert_eq!(bridge.lookup(guest_mac, now), Some(sys.dp.vif_port));
        assert_eq!(bridge.lookup(client_mac, now), Some(sys.dp.netapp.if_port));
        let m = &sys.dp.metrics;
        assert_eq!(
            m.client_rx_msgs,
            1 + u64::from(FLOOD),
            "every frame forwarded"
        );
        assert_eq!(m.drops, 0);
        // The client still reaches the guest by unicast.
        sys.send_udp_at(
            t + us(2_000),
            Side::Client,
            addrs::GUEST,
            1234,
            9999,
            vec![3; 64],
        );
        sys.run_to_quiescence();
        assert_eq!(sys.dp.metrics.guest_rx_msgs, 2);
    }

    /// A guest that moves a ring's `req_prod` more than a ring ahead halts
    /// that netback queue, Tx and Rx alike: the run reaches quiescence
    /// without a panic, the halt counted once, and nothing crosses the
    /// halted queue again.
    #[test]
    fn a_guest_producer_jump_halts_the_queue_and_the_run_quiesces() {
        let t = Nanos::from_micros(10);
        for (key, from) in [("tx-ring-ref", Side::Guest), ("rx-ring-ref", Side::Client)] {
            let mut sys = SystemConfig::new(BackendOs::Kite, 1).build_net();
            let send = |sys: &mut NetSystem, at| match from {
                Side::Guest => sys.send_udp_at(at, from, addrs::CLIENT, 9999, 1234, vec![1; 64]),
                Side::Client => sys.send_udp_at(at, from, addrs::GUEST, 1234, 9999, vec![1; 64]),
            };
            send(&mut sys, t);
            // The guest's send published its request and kicked; the
            // backend drains after this instant.
            sys.run_until(t);
            sys.corrupt_req_prod(key);
            send(&mut sys, t * 2);
            sys.run_to_quiescence();
            assert_eq!(sys.netback_stats().ring_corrupt, 1, "{key}");
            let m = &sys.dp.metrics;
            assert_eq!((m.guest_rx_msgs, m.client_rx_msgs), (0, 0), "{key}");
        }
    }

    /// A recycled frame never shows the bytes it held before (the SoK's
    /// shared-state leak, PAPERS.md). The client's and netfront's spares
    /// are seeded with `0xA5`-filled buffers; two datagrams from the
    /// client, each shorter than the last, reach the guest as exactly the
    /// frames `encode_frame` builds, gathered into netfront's seeded
    /// buffer and built into the client's, which netback hands back.
    #[test]
    fn a_recycled_frame_shows_none_of_its_previous_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sys = SystemConfig::new(BackendOs::Kite, 5).build_net();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        sys.set_guest_app(Box::new(move |_, msg| {
            let frame = &msg.payload.frame;
            log.borrow_mut().push((frame.as_ptr(), frame.clone()));
            Vec::new()
        }));
        let (client, guest) = (vec![0xa5u8; 1024], vec![0xa5u8; 1024]);
        let (client_at, guest_at) = (client.as_ptr(), guest.as_ptr());
        sys.dp.client_frames.put(client);
        sys.dp.netfront.as_mut().expect("connected").recycle(guest);
        let (guest_mac, client_mac) = (sys.dp.guest_mac, sys.dp.client_mac);
        for len in [600, 520] {
            let payload = vec![len as u8; len];
            let udp = UdpDatagram::new(1234, 9999, &payload);
            let want = udp.encode_frame(guest_mac, client_mac, addrs::CLIENT, addrs::GUEST);
            let at = sys.now() + Nanos::from_micros(10);
            sys.send_udp_at(at, Side::Client, addrs::GUEST, 9999, 1234, payload);
            sys.run_to_quiescence();
            assert_eq!(
                seen.borrow_mut().pop(),
                Some((guest_at, want)),
                "{len} bytes"
            );
        }
        let back = sys.dp.client_frames.take(TSO_HEADERS_LEN + 520);
        assert_eq!(back.as_ptr(), client_at, "the client's frame came back");
    }

    /// Netback copies a single-slot Tx frame into a buffer the client's
    /// stack handed back, which holds what it carried before. Seeded with
    /// `0xA5`-filled buffers twice each frame's length, netback builds
    /// each guest→client datagram, at lengths up to one page, in the
    /// buffer seeded for it, and the client receives exactly the frame
    /// `encode_frame` builds: none of the buffer's bytes, and none past
    /// the frame's validated length.
    #[test]
    fn netbacks_recycled_tx_frames_show_none_of_their_previous_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sys = SystemConfig::new(BackendOs::Kite, 5).build_net();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            let frame = &msg.payload.frame;
            log.borrow_mut().push((frame.as_ptr(), frame.clone()));
            Vec::new()
        }));
        let (guest_mac, client_mac) = (sys.dp.guest_mac, sys.dp.client_mac);
        // Longest first: each frame goes back to netback once the client's
        // handler returns, and is then too large for the next.
        for len in [PAGE_SIZE, 1442, 601, 43, 42] {
            let payload = vec![len as u8; len - TSO_HEADERS_LEN];
            let udp = UdpDatagram::new(1234, 9999, &payload);
            let want = udp.encode_frame(client_mac, guest_mac, addrs::GUEST, addrs::CLIENT);
            assert_eq!(want.len(), len);
            let seeded = vec![0xa5u8; 2 * len];
            let seeded_at = seeded.as_ptr();
            sys.backend.device_mut().expect("connected").recycle(seeded);
            let at = sys.now() + Nanos::from_micros(10);
            sys.send_udp_at(at, Side::Guest, addrs::CLIENT, 9999, 1234, payload);
            sys.run_to_quiescence();
            assert_eq!(
                seen.borrow_mut().pop(),
                Some((seeded_at, want)),
                "a {len}-byte frame"
            );
        }
        assert_eq!(sys.netback_stats().gso_tx_frames, 0, "single slots only");
    }

    /// Netback moves every payload between the guest's granted pages and
    /// frames it owns, so the driver domain allocates no machine page for
    /// its data plane: traffic both ways on four queues, with and without
    /// GSO, leaves its page count where the build left it.
    #[test]
    fn the_driver_domain_allocates_no_page_for_traffic() {
        for gso in [true, false] {
            let mut sys = SystemConfig::new(BackendOs::Kite, 7)
                .queues(4)
                .gso(gso)
                .build_net();
            let dd = sys.driver_domain();
            let pages = |sys: &NetSystem| sys.hv.domains.get(dd).expect("dd").pages_allocated;
            let built = pages(&sys);
            // 48 flows of 9 000 bytes each way: one burst that fits the
            // client's link queue, and LRO chains towards the guest.
            let gap = Nanos::from_micros(50);
            crate::scenario::flow_burst(&mut sys, Side::Guest, 48, 9000, gap);
            crate::scenario::flow_burst(&mut sys, Side::Client, 48, 9000, gap);
            sys.run_to_quiescence();
            let m = &sys.dp.metrics;
            let bytes = 48 * 9000;
            assert_eq!(
                (m.guest_rx_bytes, m.client_rx_bytes),
                (bytes, bytes),
                "gso {gso}"
            );
            assert_eq!(pages(&sys), built, "gso {gso}");
        }
    }

    /// At quiescence after traffic both ways on four queues, GSO chains
    /// included, every netfront pool is sound: no Tx buffer is still out,
    /// and every Rx buffer is posted again (pool and ring both hold 256).
    #[test]
    fn four_queue_run_leaves_only_the_posted_rx_buffers_lent() {
        let mut sys = SystemConfig::new(BackendOs::Kite, 7).queues(4).build_net();
        let gap = Nanos::from_micros(50);
        crate::scenario::flow_burst(&mut sys, Side::Guest, 256, 9000, gap);
        crate::scenario::flow_burst(&mut sys, Side::Client, 256, 1400, gap);
        sys.run_to_quiescence();
        let m = &sys.dp.metrics;
        assert_eq!((m.guest_rx_msgs, m.client_rx_msgs), (256, 256));
        let nf = sys.dp.netfront.as_ref().expect("connected");
        assert_eq!(nf.pools_lent(), [(0, 256); 4]);
        assert_eq!(nf.rejects(), kite_frontends::RspRejects::default());
    }
}
