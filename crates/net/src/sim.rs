//! The simulator proper: [`SimNet`] owns the agents, the connection table,
//! the event queue, capture taps, and the fault model, and drives everything
//! deterministically.
//!
//! ## Transport semantics
//!
//! * **TCP connect**: subject to the configured [`FaultSchedule`] (a lost SYN
//!   or SYN-ACK manifests as a timeout, exactly the loss mode stateless
//!   scanners like ZMap experience; a rate-limiting intermediary manifests as
//!   a refusal; a churned-dark host as a timeout). Connecting to unoccupied
//!   space times out; to an occupied host with a refusing agent, produces an
//!   RST (`on_tcp_refused`).
//! * **TCP probe** ([`NetCtx::tcp_probe_tagged`]): a connect whose caller
//!   ignores failure callbacks, as a ZMap-style scanner does. With no fault
//!   schedule, a probe into unoccupied space, or to a spawner host that does
//!   not serve the port ([`HostSpawner::serves`]), is *stateless*: it is
//!   counted, observed by the taps and answered at send time, and it takes
//!   no connection slot and schedules no event. Every other probe is a
//!   plain connect.
//! * **TCP data**: reliable and ordered once established (retransmission is
//!   below the abstraction line), delivered after the connection's fixed
//!   per-pair latency plus any scheduled jitter — clamped so delivery stays
//!   FIFO per connection and direction. Fault schedules may inject resets
//!   (`on_tcp_reset` at both ends) and blackouts (segments crossing a total
//!   outage tear the connection down).
//! * **UDP**: unreliable — subject to drops, duplicate delivery, and
//!   (optionally) single-bit corruption. Supports spoofed sources, the
//!   reflection-attack primitive.
//!
//! Dropped packets are dropped *in transit*: observation taps do not see
//! them, which is how scheduled outages produce real gaps in the telescope's
//! capture. Churned-dark hosts, by contrast, drop traffic at the host, so
//! taps still observe it.
//!
//! ## Events that do nothing are never scheduled
//!
//! Besides stateless probes, two more events are provably no-ops when
//! dispatched, so the fabric counts them in [`Counters::events_elided`]
//! instead of scheduling them:
//!
//! * a datagram to a spawner host that does not serve its port (the agent
//!   would ignore it; every fault draw happens at send time, so this holds
//!   under any schedule);
//! * the `ConnTimeout` backstop of a SYN that reaches a present host with no
//!   fault schedule, when `2 × latency < syn_timeout`: the host's answer
//!   always notifies the client first. On a tie the backstop fires first
//!   (it is scheduled first), so it is kept.
//!
//! `events_processed + events_elided` is the event count of a fabric that
//! schedules everything.
//!
//! ## Observation taps
//!
//! A [`FlowTap`] attached to a CIDR range sees every packet destined into the
//! range, including — crucially — packets to *unoccupied* addresses. This is
//! the mechanism behind `ofh-telescope`'s /8 darknet, and mirrors how a real
//! network telescope passively records unsolicited traffic.

use std::any::Any;
use crate::fasthash::FastMap;
use crate::slab::Slab;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::addr::SockAddr;
use crate::agent::{Agent, AgentId, ConnToken, NetCtx, TcpDecision};
use crate::cidr::Cidr;
use crate::event::EventQueue;
use crate::fault::{churn_dark, Direction, FaultSchedule};
use crate::packet::{FlowKind, FlowObservation, Payload, Transport};
use crate::rng;
use crate::time::{SimDuration, SimTime};

/// How latency between a pair of hosts is derived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every packet takes exactly this long.
    Fixed(SimDuration),
    /// `base_ms` plus a deterministic per-(src,dst) component in
    /// `[0, spread_ms)` — distant hosts stay consistently distant.
    PairHash { base_ms: u64, spread_ms: u64 },
}

impl LatencyModel {
    fn one_way(&self, src: Ipv4Addr, dst: Ipv4Addr) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::PairHash { base_ms, spread_ms } => {
                let h = rng::splitmix64(((u32::from(src) as u64) << 32) | u32::from(dst) as u64);
                SimDuration::from_millis(base_ms + if spread_ms == 0 { 0 } else { h % spread_ms })
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::PairHash {
            base_ms: 10,
            spread_ms: 140,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimNetConfig {
    /// Master seed for the fabric RNG (fault decisions, jitter).
    pub seed: u64,
    /// Fault injection schedule (empty = fault-free fast path).
    #[serde(default)]
    pub faults: FaultSchedule,
    /// Latency model.
    pub latency: LatencyModel,
    /// How long a connection attempt waits before `on_tcp_timeout`.
    pub syn_timeout: SimDuration,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            seed: 0,
            faults: FaultSchedule::none(),
            latency: LatencyModel::default(),
            syn_timeout: SimDuration::from_secs(3),
        }
    }
}

/// Aggregate traffic counters, handy for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    pub events_processed: u64,
    /// Events never scheduled because their dispatch would do nothing:
    /// 1 per stateless SYN into unoccupied space, 3 per stateless SYN to a
    /// closed port, 1 per unserved datagram (2 when duplicated) and 1 per
    /// skipped `ConnTimeout` backstop (see the module docs).
    pub events_elided: u64,
    pub syns_sent: u64,
    pub conns_established: u64,
    pub conns_refused: u64,
    pub conn_timeouts: u64,
    pub tcp_payload_bytes: u64,
    pub udp_datagrams_sent: u64,
    pub udp_datagrams_dropped: u64,
    pub udp_datagrams_corrupted: u64,
    pub udp_datagrams_duplicated: u64,
    /// SYNs / SYN-ACKs lost to the fault schedule (in transit).
    pub tcp_handshake_drops: u64,
    /// SYNs answered by a simulated rate limiter instead of the host.
    pub tcp_rate_limited: u64,
    /// Established connections torn down by an injected reset or blackout.
    pub tcp_resets_injected: u64,
    /// Packets swallowed because the destination host was churned dark.
    pub churn_suppressed: u64,
}

impl Counters {
    /// Fold another fabric's counters into this one (the sharded engine
    /// sums per-shard counters into the report's aggregate).
    pub fn absorb(&mut self, other: &Counters) {
        self.events_processed += other.events_processed;
        self.events_elided += other.events_elided;
        self.syns_sent += other.syns_sent;
        self.conns_established += other.conns_established;
        self.conns_refused += other.conns_refused;
        self.conn_timeouts += other.conn_timeouts;
        self.tcp_payload_bytes += other.tcp_payload_bytes;
        self.udp_datagrams_sent += other.udp_datagrams_sent;
        self.udp_datagrams_dropped += other.udp_datagrams_dropped;
        self.udp_datagrams_corrupted += other.udp_datagrams_corrupted;
        self.udp_datagrams_duplicated += other.udp_datagrams_duplicated;
        self.tcp_handshake_drops += other.tcp_handshake_drops;
        self.tcp_rate_limited += other.tcp_rate_limited;
        self.tcp_resets_injected += other.tcp_resets_injected;
        self.churn_suppressed += other.churn_suppressed;
    }
}

/// A passive packet observer attached to a CIDR range. Implemented by the
/// network telescope; `Any` lets experiments recover the concrete tap after a
/// run.
pub trait FlowTap: Any {
    fn observe(&mut self, obs: &FlowObservation);
}

/// Handle to a registered tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    Connecting,
    Established,
}

struct ConnState {
    client: AgentId,
    client_sock: SockAddr,
    /// Filled in when the SYN reaches an occupied host.
    server: Option<AgentId>,
    server_sock: SockAddr,
    latency: SimDuration,
    phase: ConnPhase,
    /// Whether the client has heard the outcome (established/refused).
    client_notified: bool,
    /// Opaque client-chosen tag (see [`NetCtx::tcp_connect_tagged`]);
    /// scanners use it to recover the sweep a probe belongs to without a
    /// per-probe side table.
    tag: u64,
    /// Latest delivery time already scheduled toward the server — jittered
    /// segments are clamped to at least this, keeping the stream FIFO.
    fifo_fwd: SimTime,
    /// Same, toward the client.
    fifo_rev: SimTime,
    /// An injected reset is in flight: the connection is dying, further
    /// segments go nowhere, and a [`NetEvent::ResetTeardown`] will remove it.
    reset_pending: bool,
}

enum NetEvent {
    Boot {
        agent: AgentId,
    },
    SynArrive {
        conn: u64,
    },
    ConnOutcome {
        conn: u64,
        accepted: bool,
    },
    DataArrive {
        conn: u64,
        to_server: bool,
        data: Payload,
    },
    CloseArrive {
        conn: u64,
        to_agent: AgentId,
    },
    ResetTeardown {
        conn: u64,
    },
    ConnTimeout {
        conn: u64,
    },
    UdpArrive {
        src: SockAddr,
        dst: SockAddr,
        payload: Payload,
    },
    Timer {
        agent: AgentId,
        token: u64,
    },
}

/// Deterministic source of implicitly-populated hosts.
///
/// At paper scale the universe holds millions of occupied addresses; eagerly
/// attaching an agent per host would allocate the whole population up front.
/// A spawner instead answers occupancy queries as a pure function of the
/// address and materializes the agent only when traffic *reaches* the host
/// (first touch). The contract that keeps the simulation byte-identical to
/// an eager universe:
///
/// * [`Self::occupied`] is a pure, stable function of the address — it must
///   answer identically every time, and must never consult simulation state.
/// * [`Self::spawn`] is called at most once per address (the fabric caches
///   the materialized agent) and must be deterministic: same address, same
///   agent state.
/// * Spawned agents must not override [`Agent::on_boot`] with effects —
///   first touch runs the boot hook at materialization time, not at t=0, so
///   only boot-inert agents (plain devices, wild honeypots) may be implicit.
///   Hosts with boot-time behaviour (infected devices scheduling bot tasks)
///   stay eagerly attached.
/// * [`Self::spawn`] returns an agent for every address [`Self::occupied`]
///   claims: traffic already in flight to a host must find it.
/// * [`Self::serves`] must agree with the spawned agent's port guards. A
///   `Some(false)` lets the fabric skip delivery, so it must mean that the
///   agent refuses a SYN to that port, or ignores a datagram to it, with no
///   other effect.
/// * [`Self::serves`] returns `Some` only for addresses [`Self::occupied`]
///   claims. The fabric relies on it: a `Some` answer is taken as the
///   host's presence too, so a probe toward a spawner host costs the one
///   `serves` lookup, and only a `None` sends the fabric on to its attached
///   hosts and [`Self::occupied`].
pub trait HostSpawner {
    /// Whether an implicit host exists at `addr`. Must be stable.
    fn occupied(&self, addr: Ipv4Addr) -> bool;
    /// Materialize the host's agent. Called at most once per address.
    fn spawn(&mut self, addr: Ipv4Addr) -> Option<Box<dyn Agent>>;
    /// Whether the host at `addr` serves `port` over `transport`, answered
    /// without spawning it. `None` means no knowledge and keeps the full
    /// delivery path; `Some` may only be returned for occupied addresses,
    /// and means the host is there. Must be stable, like
    /// [`Self::occupied`].
    fn serves(&self, addr: Ipv4Addr, transport: Transport, port: u16) -> Option<bool> {
        let _ = (addr, transport, port);
        None
    }
}

/// What traffic toward a socket would reach, decided at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Nothing is at the address.
    Empty,
    /// A spawner host whose agent does not serve the port.
    Unserved,
    /// A host that serves the port, or may: attached agents and spawners
    /// without port knowledge always land here.
    Host,
}

/// The network fabric: everything except the agents themselves. Split out so
/// an agent callback can mutate the fabric (send packets, set timers) while
/// the simulator holds the agent itself mutably.
pub struct Fabric {
    queue: EventQueue<NetEvent>,
    conns: Slab<ConnState>,
    /// When set, every connection id opened via `tcp_connect` is appended —
    /// see [`NetCtx::begin_conn_capture`].
    conn_capture: Option<Vec<u64>>,
    next_port: u16,
    by_addr: FastMap<Ipv4Addr, AgentId>,
    ttls: Vec<u8>,
    windows: Vec<u16>,
    /// Outbound-initiation counters per agent: TCP connects + UDP datagrams
    /// sent to peers the agent was not already talking to. The egress audit
    /// (paper Appendix A.3: honeypots must never attack back) reads these.
    egress: Vec<EgressStats>,
    /// While dispatching a UDP arrival: (receiving agent, sender) — used to
    /// classify the agent's own sends during the callback as replies.
    current_udp_inbound: Option<(AgentId, SockAddr)>,
    /// While dispatching a terminal outcome (refused/timeout): the connection
    /// being torn down as `(id, tag, server_sock)`, so `conn_tag` /
    /// `conn_peer` still answer inside the callback — retrying clients need
    /// the target back — without keeping the slab slot alive (a callback may
    /// legitimately open new connections that reuse it).
    closing: Option<(u64, u64, SockAddr)>,
    /// Implicit-population source: consulted on `by_addr` misses for
    /// occupancy, and drained into `by_addr` on first touch.
    spawner: Option<Box<dyn HostSpawner>>,
    pub(crate) rng: StdRng,
    cfg: SimNetConfig,
    taps: Vec<(Cidr, Box<dyn FlowTap>)>,
    /// Interval index over `taps`: entries `(start, end, tap_idx)` sorted by
    /// start address, with a running prefix maximum of `end` for early
    /// termination. Rebuilt on `add_tap`. Lookup collects matching tap
    /// indices and dispatches them in insertion order, so adding the index
    /// changes nothing observable.
    tap_index: Vec<(u32, u32, u32)>,
    tap_max_end: Vec<u32>,
    /// Scratch for matching tap indices (avoids a per-packet alloc).
    tap_hits: Vec<u32>,
    pub counters: Counters,
    /// Locally-accumulated observability for the hot send paths; folded into
    /// the installed registry once per phase by [`SimNet::flush_obs`] so the
    /// per-packet cost is a plain field update, not a thread-local lookup.
    obs_conns_peak: u64,
    obs_tcp_bytes: ofh_obs::Histogram,
    obs_udp_bytes: ofh_obs::Histogram,
}

/// Per-agent egress accounting (Appendix A.3's sandboxing audit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EgressStats {
    /// TCP connections this agent initiated.
    pub tcp_initiated: u64,
    /// UDP datagrams this agent sent that were *not* replies (the
    /// destination had not previously sent this agent a datagram).
    pub udp_unsolicited: u64,
    /// UDP datagrams sent as replies to a peer that contacted us first.
    pub udp_replies: u64,
}

impl Fabric {
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    pub(crate) fn begin_conn_capture(&mut self) {
        self.conn_capture = Some(Vec::new());
    }

    pub(crate) fn end_conn_capture(&mut self) -> Vec<u64> {
        self.conn_capture.take().unwrap_or_default()
    }

    pub(crate) fn next_ephemeral_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if p >= 60_999 { 32_768 } else { p + 1 };
        p
    }

    pub(crate) fn set_ttl(&mut self, agent: AgentId, ttl: u8) {
        self.ttls[agent.0 as usize] = ttl;
    }

    pub(crate) fn set_window(&mut self, agent: AgentId, window: u16) {
        self.windows[agent.0 as usize] = window;
    }

    fn hops(src: Ipv4Addr, dst: Ipv4Addr) -> u8 {
        let h = rng::splitmix64(((u32::from(dst) as u64) << 32) | u32::from(src) as u64);
        5 + (h % 25) as u8
    }

    /// Rebuild the tap interval index after registration changes.
    fn rebuild_tap_index(&mut self) {
        self.tap_index = self
            .taps
            .iter()
            .enumerate()
            .map(|(i, (range, _))| (u32::from(range.first()), u32::from(range.last()), i as u32))
            .collect();
        self.tap_index.sort_unstable();
        let mut max_end = 0u32;
        self.tap_max_end = self
            .tap_index
            .iter()
            .map(|&(_, end, _)| {
                max_end = max_end.max(end);
                max_end
            })
            .collect();
    }

    fn observe(
        &mut self,
        src: SockAddr,
        dst: SockAddr,
        transport: Transport,
        kind: FlowKind,
        ttl: u8,
        tcp_flags: u8,
        tcp_window: u16,
        payload: &Payload,
        spoofed: bool,
    ) {
        if self.taps.is_empty() {
            return;
        }
        // Interval lookup: walk backwards from the last range starting at or
        // before `dst`; the prefix maximum of range ends bounds how far back
        // a covering range can sit, so disjoint taps terminate in O(log n).
        let d = u32::from(dst.addr);
        let mut i = self.tap_index.partition_point(|&(start, _, _)| start <= d);
        self.tap_hits.clear();
        while i > 0 {
            i -= 1;
            if self.tap_max_end[i] < d {
                break;
            }
            let (_, end, idx) = self.tap_index[i];
            if end >= d {
                self.tap_hits.push(idx);
            }
        }
        if self.tap_hits.is_empty() {
            return;
        }
        // Registration order, exactly as the linear scan dispatched.
        self.tap_hits.sort_unstable();
        let header = match transport {
            Transport::Tcp => 40,
            Transport::Udp => 28,
        };
        let ip_len = (header + payload.len()).min(u16::MAX as usize) as u16;
        let now = self.queue.now();
        let obs = FlowObservation {
            time: now,
            src: src.addr,
            dst: dst.addr,
            src_port: src.port,
            dst_port: dst.port,
            transport,
            kind,
            ttl: ttl.saturating_sub(Self::hops(src.addr, dst.addr)),
            tcp_flags,
            tcp_window,
            ip_len,
            payload: payload.clone(), // refcount bump, not a byte copy
            spoofed,
        };
        let hits = std::mem::take(&mut self.tap_hits);
        for &idx in &hits {
            self.taps[idx as usize].1.observe(&obs);
        }
        self.tap_hits = hits;
    }

    /// A SYN on the wire toward `dst`, as every tap covering `dst` sees it.
    fn observe_syn(&mut self, client: AgentId, client_sock: SockAddr, dst: SockAddr) {
        let ttl = self.ttls[client.0 as usize];
        let window = self.windows[client.0 as usize];
        self.observe(
            client_sock,
            dst,
            Transport::Tcp,
            FlowKind::TcpSyn,
            ttl,
            FlowObservation::SYN,
            window,
            &Payload::empty(),
            false,
        );
    }

    /// A connect whose caller ignores failure callbacks. Without faults, a
    /// SYN into unoccupied space or to a port the spawner host does not
    /// serve is answered here and now: the timeout or refusal the full path
    /// would deliver is counted, and nothing is stored or scheduled. The
    /// refusal must beat the backstop for this to hold. Every other probe
    /// opens a connection as [`Self::tcp_connect`] does; without faults the
    /// host lookup made here is not repeated.
    pub(crate) fn tcp_probe(
        &mut self,
        client: AgentId,
        client_addr: Ipv4Addr,
        src_port: u16,
        dst: SockAddr,
        tag: u64,
    ) {
        if !self.cfg.faults.is_none() {
            self.tcp_connect(client, client_addr, src_port, dst, tag);
            return;
        }
        let refused = match self.reach(dst, Transport::Tcp) {
            Reach::Empty => false,
            Reach::Unserved
                if self.answer_beats_backstop(self.cfg.latency.one_way(client_addr, dst.addr)) =>
            {
                true
            }
            // A host is there, serving the port or refusing too late to
            // beat the backstop: the full path, without a second lookup.
            _ => {
                self.open_conn(client, client_addr, src_port, dst, tag, Some(true));
                return;
            }
        };
        self.counters.syns_sent += 1;
        self.egress[client.0 as usize].tcp_initiated += 1;
        self.observe_syn(client, SockAddr::new(client_addr, src_port), dst);
        if refused {
            // SynArrive (the agent refuses), ConnOutcome, backstop.
            self.counters.conns_refused += 1;
            self.counters.events_elided += 3;
        } else {
            // The ConnTimeout backstop.
            self.counters.conn_timeouts += 1;
            self.counters.events_elided += 1;
        }
    }

    /// Whether a host's answer to a SYN, two one-way `latency`s after it
    /// was sent, reaches the client strictly before the `ConnTimeout`
    /// backstop. On a tie the backstop, scheduled first, wins.
    fn answer_beats_backstop(&self, latency: SimDuration) -> bool {
        latency + latency < self.cfg.syn_timeout
    }

    pub(crate) fn tcp_connect(
        &mut self,
        client: AgentId,
        client_addr: Ipv4Addr,
        src_port: u16,
        dst: SockAddr,
        tag: u64,
    ) -> ConnToken {
        self.open_conn(client, client_addr, src_port, dst, tag, None)
    }

    /// Open a connection toward `dst`. `present` is whether a host is at
    /// `dst`, when the caller already knows; `None` looks it up if the SYN
    /// is delivered.
    fn open_conn(
        &mut self,
        client: AgentId,
        client_addr: Ipv4Addr,
        src_port: u16,
        dst: SockAddr,
        tag: u64,
        present: Option<bool>,
    ) -> ConnToken {
        let latency = self.cfg.latency.one_way(client_addr, dst.addr);
        let client_sock = SockAddr::new(client_addr, src_port);
        let id = self.conns.insert(ConnState {
            client,
            client_sock,
            server: None,
            server_sock: dst,
            latency,
            phase: ConnPhase::Connecting,
            client_notified: false,
            tag,
            fifo_fwd: SimTime(0),
            fifo_rev: SimTime(0),
            reset_pending: false,
        });
        if let Some(log) = &mut self.conn_capture {
            log.push(id);
        }
        self.counters.syns_sent += 1;
        self.egress[client.0 as usize].tcp_initiated += 1;
        self.obs_conns_peak = self.obs_conns_peak.max(self.conns.len() as u64);
        let verdict = if self.cfg.faults.is_none() {
            SynVerdict::Deliver
        } else {
            self.fault_syn(dst)
        };
        match verdict {
            SynVerdict::Lost => self.counters.tcp_handshake_drops += 1,
            SynVerdict::RateLimited => self.counters.tcp_rate_limited += 1,
            SynVerdict::Dark => self.counters.churn_suppressed += 1,
            SynVerdict::Deliver => {}
        }
        // Lost and rate-limited SYNs die *in transit*, before any tap at the
        // destination network; dark-host suppression happens at the host, so
        // the wire (and the telescope) still sees the SYN.
        if !matches!(verdict, SynVerdict::Lost | SynVerdict::RateLimited) {
            self.observe_syn(client, client_sock, dst);
        }
        let now = self.queue.now();
        let delivered = verdict == SynVerdict::Deliver
            && present.unwrap_or_else(|| self.host_present(dst.addr));
        // The timeout backstop catches SYNs nobody answers. Without faults
        // a delivered SYN is always answered (SynArrive schedules a
        // ConnOutcome), so the backstop is only needed when the answer
        // could come too late.
        if self.cfg.faults.is_none() && delivered && self.answer_beats_backstop(latency) {
            self.counters.events_elided += 1;
        } else {
            self.queue.schedule(
                now + self.cfg.syn_timeout,
                NetEvent::ConnTimeout { conn: id },
            );
        }
        match verdict {
            SynVerdict::Deliver if delivered => {
                self.queue
                    .schedule(now + latency, NetEvent::SynArrive { conn: id });
            }
            SynVerdict::RateLimited => {
                // An intermediary answered with ICMP unreachable: the client
                // experiences a refusal after one round trip.
                self.queue.schedule(
                    now + latency,
                    NetEvent::ConnOutcome {
                        conn: id,
                        accepted: false,
                    },
                );
            }
            _ => {}
        }
        ConnToken(id)
    }

    pub(crate) fn tcp_send(&mut self, sender: AgentId, conn: ConnToken, data: Payload) {
        let Some(c) = self.conns.get(conn.0) else {
            return; // connection already gone (closed/refused)
        };
        if c.reset_pending {
            return; // dying connection: the segment is lost with it
        }
        let to_server = c.client == sender;
        let (latency, src, dst) = if to_server {
            (c.latency, c.client_sock, c.server_sock)
        } else {
            (c.latency, c.server_sock, c.client_sock)
        };
        let service = if to_server { dst } else { src };
        self.counters.tcp_payload_bytes += data.len() as u64;
        self.obs_tcp_bytes.record(data.len() as u64);
        let ttl = self.ttls[sender.0 as usize];
        self.observe(
            src,
            dst,
            Transport::Tcp,
            FlowKind::TcpData,
            ttl,
            FlowObservation::ACK | FlowObservation::PSH,
            0,
            &data,
            false,
        );
        let now = self.queue.now();
        let mut deliver = now + latency;
        if !self.cfg.faults.is_none() {
            let dir = if to_server {
                Direction::Forward
            } else {
                Direction::Reverse
            };
            let (reset, jitter) = self.fault_tcp_segment(service, dir);
            if reset {
                // The connection is torn down mid-stream; both ends learn of
                // it after one latency. The segment itself is gone, but the
                // conn stays in the table until the teardown event so an
                // in-flight `ConnOutcome` (the greeting races the SYN-ACK)
                // still notifies the client before the reset does.
                self.counters.tcp_resets_injected += 1;
                let c = self.conns.get_mut(conn.0).expect("conn checked above");
                c.reset_pending = true;
                self.queue
                    .schedule(now + latency, NetEvent::ResetTeardown { conn: conn.0 });
                return;
            }
            deliver = deliver + jitter;
        }
        // FIFO clamp: a lightly-jittered segment never overtakes a heavily-
        // jittered predecessor within the same connection and direction.
        let c = self.conns.get_mut(conn.0).expect("conn checked above");
        let fifo = if to_server {
            &mut c.fifo_fwd
        } else {
            &mut c.fifo_rev
        };
        if deliver < *fifo {
            deliver = *fifo;
        }
        *fifo = deliver;
        self.queue.schedule(
            deliver,
            NetEvent::DataArrive {
                conn: conn.0,
                to_server,
                data,
            },
        );
    }

    pub(crate) fn tcp_close(&mut self, closer: AgentId, conn: ConnToken) {
        let Some(c) = self.conns.remove(conn.0) else {
            return;
        };
        let peer = if c.client == closer { c.server } else { Some(c.client) };
        if let Some(peer) = peer {
            let now = self.queue.now();
            self.queue.schedule(
                now + c.latency,
                NetEvent::CloseArrive {
                    conn: conn.0,
                    to_agent: peer,
                },
            );
        }
    }

    pub(crate) fn udp_send(
        &mut self,
        sender: AgentId,
        src: SockAddr,
        dst: SockAddr,
        mut payload: Payload,
        spoofed: bool,
    ) {
        self.counters.udp_datagrams_sent += 1;
        self.obs_udp_bytes.record(payload.len() as u64);
        // Egress accounting: a send to the peer whose datagram we are
        // currently handling is a reply; everything else is unsolicited.
        let is_reply = matches!(
            self.current_udp_inbound,
            Some((agent, peer)) if agent == sender && peer.addr == dst.addr
        );
        if is_reply {
            self.egress[sender.0 as usize].udp_replies += 1;
        } else {
            self.egress[sender.0 as usize].udp_unsolicited += 1;
        }
        // Spoofed packets carry the TTL fingerprint of the claimed source's
        // would-be stack only if the attacker bothers; we use a fixed 255.
        let ttl = 255u8;
        let mut jitter = SimDuration::ZERO;
        let mut duplicate = false;
        if !self.cfg.faults.is_none() {
            match self.fault_udp(dst, &mut payload) {
                UdpVerdict::Dropped => {
                    // Lost in transit: no tap sees it — scheduled outages
                    // carve real gaps into the telescope capture.
                    self.counters.udp_datagrams_dropped += 1;
                    return;
                }
                UdpVerdict::Dark => {
                    // Dropped at the churned-dark host; the wire saw it.
                    self.counters.churn_suppressed += 1;
                    self.observe(
                        src,
                        dst,
                        Transport::Udp,
                        FlowKind::UdpDatagram,
                        ttl,
                        0,
                        0,
                        &payload,
                        spoofed,
                    );
                    return;
                }
                UdpVerdict::Deliver { jitter: j, dup } => {
                    jitter = j;
                    duplicate = dup;
                }
            }
        }
        self.observe(
            src,
            dst,
            Transport::Udp,
            FlowKind::UdpDatagram,
            ttl,
            0,
            0,
            &payload,
            spoofed,
        );
        let reach = self.reach(dst, Transport::Udp);
        if reach == Reach::Empty {
            return;
        }
        if reach == Reach::Unserved {
            // The agent would ignore it: count the arrivals, schedule none.
            self.counters.udp_datagrams_duplicated += u64::from(duplicate);
            self.counters.events_elided += 1 + u64::from(duplicate);
            return;
        }
        let latency = self.cfg.latency.one_way(src.addr, dst.addr) + jitter;
        let now = self.queue.now();
        if duplicate {
            self.counters.udp_datagrams_duplicated += 1;
            self.queue.schedule(
                now + latency + SimDuration::from_millis(1),
                NetEvent::UdpArrive {
                    src,
                    dst,
                    payload: payload.clone(),
                },
            );
        }
        self.queue
            .schedule(now + latency, NetEvent::UdpArrive { src, dst, payload });
    }

    pub(crate) fn conn_tag(&self, conn: ConnToken) -> Option<u64> {
        self.conns.get(conn.0).map(|c| c.tag).or(match self.closing {
            Some((id, tag, _)) if id == conn.0 => Some(tag),
            _ => None,
        })
    }

    pub(crate) fn conn_peer(&self, conn: ConnToken) -> Option<SockAddr> {
        self.conns
            .get(conn.0)
            .map(|c| c.server_sock)
            .or(match self.closing {
                Some((id, _, peer)) if id == conn.0 => Some(peer),
                _ => None,
            })
    }

    pub(crate) fn set_timer(&mut self, agent: AgentId, delay: SimDuration, token: u64) {
        let now = self.queue.now();
        self.queue
            .schedule(now + delay, NetEvent::Timer { agent, token });
    }

    /// Whether a host exists at `addr` — attached, or still implicit in the
    /// spawner. Occupancy checks (deciding whether a probe will reach a
    /// host at all) must **not** materialize the host; only traffic that is
    /// actually delivered does, in [`SimNet::resolve_host`].
    fn host_present(&self, addr: Ipv4Addr) -> bool {
        self.by_addr.contains_key(&addr)
            || self.spawner.as_ref().is_some_and(|s| s.occupied(addr))
    }

    /// Where traffic to `dst` over `transport` would land. The spawner is
    /// asked first, even about a host it has materialized (its agent's
    /// guards are the spawner's answer): a `Some` answer also settles
    /// presence, so a spawner host costs one lookup. Only on `None` are the
    /// attached hosts and the spawner's occupancy consulted. Never
    /// materializes anything.
    fn reach(&self, dst: SockAddr, transport: Transport) -> Reach {
        if let Some(spawner) = &self.spawner {
            if let Some(serves) = spawner.serves(dst.addr, transport, dst.port) {
                debug_assert!(
                    spawner.occupied(dst.addr),
                    "HostSpawner::serves answered for unoccupied {}",
                    dst.addr
                );
                return if serves { Reach::Host } else { Reach::Unserved };
            }
        }
        if self.host_present(dst.addr) {
            Reach::Host
        } else {
            Reach::Empty
        }
    }

    /// Evaluate the fault schedule for an outbound SYN toward `dst`.
    fn fault_syn(&mut self, dst: SockAddr) -> SynVerdict {
        let now = self.queue.now();
        let seed = self.cfg.seed;
        let rng = &mut self.rng;
        for p in self.cfg.faults.matching(now, dst, Direction::Forward) {
            if churn_dark(seed, dst.addr, now, p.plan.churn_chance, p.plan.churn_period_ms) {
                return SynVerdict::Dark;
            }
            if roll(rng, p.drop_chance_at(now)) {
                return SynVerdict::Lost;
            }
            if roll(rng, p.plan.rate_limit_chance) {
                return SynVerdict::RateLimited;
            }
        }
        SynVerdict::Deliver
    }

    /// Whether a server→client handshake response is lost in transit.
    fn fault_response_lost(&mut self, service: SockAddr) -> bool {
        let now = self.queue.now();
        let rng = &mut self.rng;
        for p in self.cfg.faults.matching(now, service, Direction::Reverse) {
            if roll(rng, p.drop_chance_at(now)) {
                return true;
            }
        }
        false
    }

    /// Faults for one established-connection segment: `(reset, jitter)`.
    /// Segments are never silently dropped (TCP retransmits below the
    /// abstraction line), but a segment crossing a total blackout means the
    /// retransmissions die too — the connection tears down like a reset.
    fn fault_tcp_segment(&mut self, service: SockAddr, dir: Direction) -> (bool, SimDuration) {
        let now = self.queue.now();
        let rng = &mut self.rng;
        let mut jitter_ms = 0u64;
        for p in self.cfg.faults.matching(now, service, dir) {
            if p.drop_chance_at(now) >= 1.0 || roll(rng, p.plan.reset_chance) {
                return (true, SimDuration::ZERO);
            }
            if p.plan.jitter_ms > 0 {
                jitter_ms += rng.gen_range(0..=p.plan.jitter_ms);
            }
        }
        (false, SimDuration::from_millis(jitter_ms))
    }

    /// Faults for one UDP datagram toward `dst`; may corrupt the payload
    /// in place (copy-on-write — payload buffers are shared immutably).
    fn fault_udp(&mut self, dst: SockAddr, payload: &mut Payload) -> UdpVerdict {
        let now = self.queue.now();
        let seed = self.cfg.seed;
        let rng = &mut self.rng;
        let mut jitter_ms = 0u64;
        let mut dup = false;
        let mut corrupt = false;
        for p in self.cfg.faults.matching(now, dst, Direction::Forward) {
            if roll(rng, p.drop_chance_at(now)) {
                return UdpVerdict::Dropped;
            }
            if churn_dark(seed, dst.addr, now, p.plan.churn_chance, p.plan.churn_period_ms) {
                return UdpVerdict::Dark;
            }
            corrupt |= roll(rng, p.plan.corrupt_chance);
            dup |= roll(rng, p.plan.duplicate_chance);
            if p.plan.jitter_ms > 0 {
                jitter_ms += rng.gen_range(0..=p.plan.jitter_ms);
            }
        }
        if corrupt && !payload.is_empty() {
            self.counters.udp_datagrams_corrupted += 1;
            let idx = self.rng.gen_range(0..payload.len());
            let bit = 1u8 << self.rng.gen_range(0..8);
            let mut corrupted = payload.to_vec();
            corrupted[idx] ^= bit;
            *payload = Payload::from(corrupted);
        }
        UdpVerdict::Deliver {
            jitter: SimDuration::from_millis(jitter_ms),
            dup,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SynVerdict {
    Deliver,
    Lost,
    RateLimited,
    Dark,
}

enum UdpVerdict {
    Dropped,
    Dark,
    Deliver { jitter: SimDuration, dup: bool },
}

#[inline]
fn roll(rng: &mut StdRng, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p.min(1.0))
}

/// The simulated Internet.
pub struct SimNet {
    fabric: Fabric,
    agents: Vec<Option<Box<dyn Agent>>>,
    addrs: Vec<Ipv4Addr>,
    /// Implicit hosts materialized by first touch (diagnostic; the arena
    /// tests assert untouched addresses never materialize).
    materialized: u64,
    /// Sim-hour the events-per-hour accumulator below belongs to.
    obs_hour: u64,
    /// Events processed so far within `obs_hour`.
    obs_hour_events: u64,
    /// Sorted sim-times (ms) at which a scheduled fault phase opens or
    /// closes. Each crossing records a flight-recorder entry and triggers a
    /// dump, so a run that survives a brownout still leaves a post-mortem
    /// artifact. Empty for fault-free runs — the per-event cost is then a
    /// single always-false bounds check.
    fault_transitions: Vec<u64>,
    /// Index of the next un-crossed entry in `fault_transitions`.
    next_fault_transition: usize,
}

impl SimNet {
    pub fn new(cfg: SimNetConfig) -> Self {
        cfg.faults.validate().expect("invalid fault schedule");
        let rng = StdRng::seed_from_u64(rng::derive_seed(cfg.seed, "ofh-net/fabric"));
        let mut fault_transitions: Vec<u64> = cfg
            .faults
            .phases
            .iter()
            .flat_map(|p| {
                let (from, to) = p.window();
                [from, to]
            })
            .filter(|&t| t > 0 && t < u64::MAX)
            .collect();
        fault_transitions.sort_unstable();
        fault_transitions.dedup();
        SimNet {
            fabric: Fabric {
                queue: EventQueue::new(),
                conns: Slab::new(),
                conn_capture: None,
                next_port: 32_768,
                by_addr: FastMap::default(),
                ttls: Vec::new(),
                windows: Vec::new(),
                egress: Vec::new(),
                current_udp_inbound: None,
                closing: None,
                spawner: None,
                rng,
                cfg,
                taps: Vec::new(),
                tap_index: Vec::new(),
                tap_max_end: Vec::new(),
                tap_hits: Vec::new(),
                counters: Counters::default(),
                obs_conns_peak: 0,
                obs_tcp_bytes: ofh_obs::Histogram::default(),
                obs_udp_bytes: ofh_obs::Histogram::default(),
            },
            agents: Vec::new(),
            addrs: Vec::new(),
            materialized: 0,
            obs_hour: 0,
            obs_hour_events: 0,
            fault_transitions,
            next_fault_transition: 0,
        }
    }

    /// Attach an agent at `addr`. Panics if the address is already occupied —
    /// the population builders guarantee distinct addresses.
    pub fn attach(&mut self, addr: Ipv4Addr, agent: Box<dyn Agent>) -> AgentId {
        assert!(
            !self.fabric.host_present(addr),
            "address {addr} is already occupied"
        );
        let id = self.register(addr, agent);
        let now = self.fabric.queue.now();
        self.fabric.queue.schedule(now, NetEvent::Boot { agent: id });
        id
    }

    /// Install the implicit-population source. Addresses the spawner claims
    /// must be disjoint from every [`Self::attach`]ed address.
    pub fn set_spawner(&mut self, spawner: Box<dyn HostSpawner>) {
        self.fabric.spawner = Some(spawner);
    }

    /// How many implicit hosts have been materialized by first touch so far.
    pub fn materialized_count(&self) -> u64 {
        self.materialized
    }

    /// Allocate the per-agent state rows (the struct-of-arrays side of a
    /// host: TTL, SYN window, egress stats, address map entry).
    fn register(&mut self, addr: Ipv4Addr, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(agent));
        self.addrs.push(addr);
        self.fabric.ttls.push(64);
        self.fabric.windows.push(65_535);
        self.fabric.egress.push(EgressStats::default());
        self.fabric.by_addr.insert(addr, id);
        id
    }

    /// The agent at `addr`, materializing an implicit host on first touch.
    /// Called from delivery paths only (SYN and UDP arrivals): occupancy
    /// was already decided at send time, so the host is there unless a
    /// spawner broke its contract.
    fn resolve_host(&mut self, addr: Ipv4Addr) -> Option<AgentId> {
        if let Some(id) = self.fabric.by_addr.get(&addr).copied() {
            return Some(id);
        }
        let agent = self.fabric.spawner.as_mut()?.spawn(addr)?;
        self.materialized += 1;
        ofh_obs::live::spawned(1);
        let id = self.register(addr, agent);
        // First touch substitutes for t=0 attachment: run the boot hook
        // inline, before the packet that woke the host is delivered. The
        // spawner contract keeps this equivalent to an eager attach (boot-
        // inert agents only), so no Boot event enters the queue.
        self.with_agent(id, |a, ctx| a.on_boot(ctx));
        Some(id)
    }

    /// Register a passive observation tap over `range`.
    pub fn add_tap(&mut self, range: Cidr, tap: Box<dyn FlowTap>) -> TapId {
        self.fabric.taps.push((range, tap));
        self.fabric.rebuild_tap_index();
        TapId(self.fabric.taps.len() - 1)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.fabric.queue.now()
    }

    /// Whether any agent is attached at `addr`.
    pub fn is_occupied(&self, addr: Ipv4Addr) -> bool {
        self.fabric.by_addr.contains_key(&addr)
    }

    /// The address an agent is attached at.
    pub fn addr_of(&self, id: AgentId) -> Ipv4Addr {
        self.addrs[id.0 as usize]
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> Counters {
        self.fabric.counters
    }

    /// Connections still open in the fabric (sessions neither side has
    /// closed yet). Diagnostic: the chaos harness checks a fault schedule
    /// does not inflate this beyond the fault-free run's count.
    pub fn live_connections(&self) -> usize {
        self.fabric.conns.len()
    }

    /// Egress accounting for an agent — the Appendix A.3 sandboxing audit:
    /// a well-behaved honeypot has `tcp_initiated == 0` and
    /// `udp_unsolicited == 0` (it only ever *answers*).
    pub fn egress_of(&self, id: AgentId) -> EgressStats {
        self.fabric.egress[id.0 as usize]
    }

    /// Jump the clock forward to `t` (no events may be pending before `t`).
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(next) = self.fabric.queue.peek_time() {
            assert!(
                next >= t,
                "cannot advance past pending events (next at {next}, target {t})"
            );
        }
        self.fabric.queue.advance_to(t);
    }

    /// Per-event observability bookkeeping: accumulate events into the
    /// current sim-hour, flushing one histogram sample per completed hour.
    /// Keyed on sim-time, so the histogram is deterministic.
    #[inline]
    fn note_event(&mut self) {
        let now = self.fabric.queue.now().0;
        if self.next_fault_transition < self.fault_transitions.len()
            && now >= self.fault_transitions[self.next_fault_transition]
        {
            self.on_fault_transition(now);
        }
        let hour = now / 3_600_000;
        if hour != self.obs_hour {
            if self.obs_hour_events > 0 {
                ofh_obs::observe("net.events_per_hour", self.obs_hour_events);
                ofh_obs::flight(now, "metric.events_per_hour", "net", self.obs_hour_events, 0);
            }
            // Live progress publishes at hour granularity, never per event:
            // the cells stay off the hot path and the reporter's racy reads
            // see monotone counters.
            ofh_obs::live::tick(now, self.fabric.counters.events_processed);
            self.obs_hour = hour;
            self.obs_hour_events = 0;
        }
        self.obs_hour_events += 1;
    }

    /// A scheduled fault phase just opened or closed: record the crossing
    /// and dump this shard's flight ring (cold; at most a handful of
    /// crossings per run).
    #[cold]
    fn on_fault_transition(&mut self, now: u64) {
        while self.next_fault_transition < self.fault_transitions.len()
            && now >= self.fault_transitions[self.next_fault_transition]
        {
            let at = self.fault_transitions[self.next_fault_transition];
            self.next_fault_transition += 1;
            ofh_obs::flight(
                now,
                "fault.window",
                "transition",
                self.next_fault_transition as u64,
                at,
            );
        }
        ofh_obs::dump_flight("fault-window");
    }

    /// Flush the locally-accumulated observability — the partial
    /// events-per-hour sample plus the hot-path accumulators (connection
    /// high-water mark, payload-size histograms). Call after the last
    /// `run_until` of a phase, while the phase's observability target is
    /// still installed. Idempotent: accumulators reset on flush.
    pub fn flush_obs(&mut self) {
        if self.obs_hour_events > 0 {
            ofh_obs::observe("net.events_per_hour", self.obs_hour_events);
            self.obs_hour_events = 0;
        }
        if self.fabric.obs_conns_peak > 0 {
            ofh_obs::gauge_max("net.conns_live", self.fabric.obs_conns_peak);
            self.fabric.obs_conns_peak = 0;
        }
        ofh_obs::observe_hist("net.tcp_payload_bytes", &self.fabric.obs_tcp_bytes);
        self.fabric.obs_tcp_bytes = ofh_obs::Histogram::default();
        ofh_obs::observe_hist("net.udp_payload_bytes", &self.fabric.obs_udp_bytes);
        self.fabric.obs_udp_bytes = ofh_obs::Histogram::default();
    }

    /// Run until the queue is empty or the clock passes `deadline`.
    /// Events scheduled exactly at the deadline are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.fabric.queue.pop_before(deadline) {
            self.fabric.counters.events_processed += 1;
            self.note_event();
            self.dispatch(ev);
        }
        if self.fabric.queue.now() < deadline {
            self.fabric.queue.advance_to(deadline);
        }
    }

    /// Recover a concrete agent for result extraction after (or during) a run.
    pub fn agent_downcast_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        let slot = self.agents.get_mut(id.0 as usize)?.as_deref_mut()?;
        let any: &mut dyn Any = slot;
        any.downcast_mut::<T>()
    }

    /// Recover a concrete agent immutably.
    pub fn agent_downcast<T: Agent>(&self, id: AgentId) -> Option<&T> {
        let slot = self.agents.get(id.0 as usize)?.as_deref()?;
        let any: &dyn Any = slot;
        any.downcast_ref::<T>()
    }

    /// Recover a concrete tap for result extraction after a run.
    pub fn tap_downcast_mut<T: FlowTap>(&mut self, id: TapId) -> Option<&mut T> {
        let (_, tap) = self.fabric.taps.get_mut(id.0)?;
        let any: &mut dyn Any = tap.as_mut();
        any.downcast_mut::<T>()
    }

    fn with_agent(&mut self, id: AgentId, f: impl FnOnce(&mut dyn Agent, &mut NetCtx<'_>)) {
        let Some(slot) = self.agents.get_mut(id.0 as usize) else {
            return;
        };
        let Some(mut agent) = slot.take() else {
            return; // re-entrant dispatch cannot happen; defensive
        };
        let mut ctx = NetCtx {
            fabric: &mut self.fabric,
            me: id,
            my_addr: self.addrs[id.0 as usize],
        };
        f(agent.as_mut(), &mut ctx);
        self.agents[id.0 as usize] = Some(agent);
    }

    fn dispatch(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Boot { agent } => {
                self.with_agent(agent, |a, ctx| a.on_boot(ctx));
            }
            NetEvent::SynArrive { conn } => {
                let Some(c) = self.fabric.conns.get(conn) else {
                    return;
                };
                let (dst_sock, client_sock) = (c.server_sock, c.client_sock);
                // Occupancy was decided at send time, and a fault-free SYN
                // to a present host may have no backstop: a host that
                // vanished here would leak the connection.
                let server_id = self.resolve_host(dst_sock.addr).expect(
                    "HostSpawner contract: spawn must return an agent for every occupied address",
                );
                let mut decision = TcpDecision::Refuse;
                self.with_agent(server_id, |a, ctx| {
                    decision = a.on_tcp_open(ctx, ConnToken(conn), dst_sock.port, client_sock);
                });
                let response_lost = if self.fabric.cfg.faults.is_none() {
                    false
                } else {
                    self.fabric.fault_response_lost(dst_sock)
                };
                if response_lost {
                    self.fabric.counters.tcp_handshake_drops += 1;
                }
                let Some(c) = self.fabric.conns.get_mut(conn) else {
                    return;
                };
                let latency = c.latency;
                let now = self.fabric.queue.now();
                match decision {
                    TcpDecision::Accept { greeting } => {
                        c.server = Some(server_id);
                        c.phase = ConnPhase::Established;
                        if !response_lost {
                            self.fabric.queue.schedule(
                                now + latency,
                                NetEvent::ConnOutcome {
                                    conn,
                                    accepted: true,
                                },
                            );
                            if let Some(banner) = greeting {
                                // Scheduled after the outcome at the same
                                // arrival time: seq order guarantees the
                                // client learns "established" first.
                                self.fabric.tcp_send(server_id, ConnToken(conn), banner);
                            }
                        }
                    }
                    TcpDecision::Refuse => {
                        if !response_lost {
                            self.fabric.queue.schedule(
                                now + latency,
                                NetEvent::ConnOutcome {
                                    conn,
                                    accepted: false,
                                },
                            );
                        }
                    }
                }
            }
            NetEvent::ConnOutcome { conn, accepted } => {
                let Some(c) = self.fabric.conns.get_mut(conn) else {
                    return;
                };
                if c.client_notified {
                    return;
                }
                c.client_notified = true;
                let client = c.client;
                if accepted {
                    self.fabric.counters.conns_established += 1;
                    self.with_agent(client, |a, ctx| a.on_tcp_established(ctx, ConnToken(conn)));
                } else {
                    self.fabric.counters.conns_refused += 1;
                    let c = self.fabric.conns.remove(conn).expect("conn checked above");
                    // Keep tag/peer answerable during the callback so a
                    // retrying client can recover its target.
                    self.fabric.closing = Some((conn, c.tag, c.server_sock));
                    self.with_agent(client, |a, ctx| a.on_tcp_refused(ctx, ConnToken(conn)));
                    self.fabric.closing = None;
                }
            }
            NetEvent::DataArrive {
                conn,
                to_server,
                data,
            } => {
                let Some(c) = self.fabric.conns.get(conn) else {
                    return;
                };
                if c.phase != ConnPhase::Established {
                    return;
                }
                let target = if to_server { c.server } else { Some(c.client) };
                if let Some(target) = target {
                    self.with_agent(target, |a, ctx| a.on_tcp_data(ctx, ConnToken(conn), &data));
                }
            }
            NetEvent::CloseArrive { conn, to_agent } => {
                self.with_agent(to_agent, |a, ctx| a.on_tcp_closed(ctx, ConnToken(conn)));
            }
            NetEvent::ResetTeardown { conn } => {
                let Some(c) = self.fabric.conns.remove(conn) else {
                    return;
                };
                // Keep tag/peer answerable during the callbacks so resilient
                // clients (the scanner's grab retry) can recover the target.
                self.fabric.closing = Some((conn, c.tag, c.server_sock));
                self.with_agent(c.client, |a, ctx| a.on_tcp_reset(ctx, ConnToken(conn)));
                if let Some(server) = c.server {
                    self.with_agent(server, |a, ctx| a.on_tcp_reset(ctx, ConnToken(conn)));
                }
                self.fabric.closing = None;
            }
            NetEvent::ConnTimeout { conn } => {
                let Some(c) = self.fabric.conns.get(conn) else {
                    return;
                };
                if c.client_notified {
                    return; // outcome already delivered; backstop is stale
                }
                let client = c.client;
                let c = self.fabric.conns.remove(conn).expect("conn checked above");
                self.fabric.counters.conn_timeouts += 1;
                self.fabric.closing = Some((conn, c.tag, c.server_sock));
                self.with_agent(client, |a, ctx| a.on_tcp_timeout(ctx, ConnToken(conn)));
                self.fabric.closing = None;
            }
            NetEvent::UdpArrive { src, dst, payload } => {
                let Some(target) = self.resolve_host(dst.addr) else {
                    return;
                };
                self.fabric.current_udp_inbound = Some((target, src));
                self.with_agent(target, |a, ctx| a.on_udp(ctx, dst.port, src, &payload));
                self.fabric.current_udp_inbound = None;
            }
            NetEvent::Timer { agent, token } => {
                self.with_agent(agent, |a, ctx| a.on_timer(ctx, token));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;
    use crate::fault::{FaultPhase, FaultPlan, FaultScope};

    /// A server that accepts on one port with a banner and echoes data back
    /// in upper-case; refuses every other port.
    struct Echo {
        port: u16,
        banner: &'static [u8],
        seen: Vec<Vec<u8>>,
        closed: usize,
        udp_seen: Vec<Vec<u8>>,
    }

    impl Echo {
        fn new(port: u16, banner: &'static [u8]) -> Self {
            Echo {
                port,
                banner,
                seen: Vec::new(),
                closed: 0,
                udp_seen: Vec::new(),
            }
        }
    }

    impl Agent for Echo {
        fn on_tcp_open(
            &mut self,
            _ctx: &mut NetCtx<'_>,
            _conn: ConnToken,
            port: u16,
            _peer: SockAddr,
        ) -> TcpDecision {
            if port == self.port {
                TcpDecision::accept_with(self.banner)
            } else {
                TcpDecision::Refuse
            }
        }

        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            self.seen.push(data.to_vec());
            ctx.tcp_send(conn, data.to_ascii_uppercase());
        }

        fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
            self.closed += 1;
        }

        fn on_udp(&mut self, ctx: &mut NetCtx<'_>, port: u16, peer: SockAddr, payload: &Payload) {
            self.udp_seen.push(payload.to_vec());
            ctx.udp_send(port, peer, payload.to_ascii_uppercase());
        }
    }

    /// A client that connects on boot, records lifecycle events, sends one
    /// message, and closes after the echo comes back.
    struct Client {
        dst: SockAddr,
        conn: Option<ConnToken>,
        established: bool,
        refused: bool,
        timed_out: bool,
        received: Vec<Vec<u8>>,
        udp_received: Vec<Vec<u8>>,
    }

    impl Client {
        fn new(dst: SockAddr) -> Self {
            Client {
                dst,
                conn: None,
                established: false,
                refused: false,
                timed_out: false,
                received: Vec::new(),
                udp_received: Vec::new(),
            }
        }
    }

    impl Agent for Client {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            self.conn = Some(ctx.tcp_connect(self.dst));
        }

        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            self.established = true;
            ctx.tcp_send(conn, b"hello".to_vec());
        }

        fn on_tcp_refused(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
            self.refused = true;
        }

        fn on_tcp_timeout(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
            self.timed_out = true;
        }

        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            self.received.push(data.to_vec());
            if self.received.len() == 2 {
                ctx.tcp_close(conn);
            }
        }

        fn on_udp(&mut self, _ctx: &mut NetCtx<'_>, _port: u16, _peer: SockAddr, payload: &Payload) {
            self.udp_received.push(payload.to_vec());
        }
    }

    fn net() -> SimNet {
        SimNet::new(SimNetConfig {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            ..SimNetConfig::default()
        })
    }

    #[test]
    fn tcp_handshake_banner_echo_close() {
        let mut net = net();
        let server_addr = ip(10, 0, 0, 1);
        let server = net.attach(server_addr, Box::new(Echo::new(23, b"login: ")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(server_addr, 23))),
        );
        net.run_until(SimTime(10_000));

        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.established);
        assert!(!c.refused && !c.timed_out);
        // Banner first, then the upper-cased echo.
        assert_eq!(c.received, vec![b"login: ".to_vec(), b"HELLO".to_vec()]);

        let s = net.agent_downcast::<Echo>(server).unwrap();
        assert_eq!(s.seen, vec![b"hello".to_vec()]);
        assert_eq!(s.closed, 1, "server must learn about the client's close");

        let counters = net.counters();
        assert_eq!(counters.conns_established, 1);
        assert_eq!(counters.conn_timeouts, 0);
    }

    #[test]
    fn tcp_refused_on_closed_port() {
        let mut net = net();
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(23, b"")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(server_addr, 8080))),
        );
        net.run_until(SimTime(10_000));
        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.refused && !c.established && !c.timed_out);
        assert_eq!(net.counters().conns_refused, 1);
    }

    #[test]
    fn tcp_timeout_on_empty_space() {
        let mut net = net();
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(ip(10, 9, 9, 9), 23))),
        );
        net.run_until(SimTime(10_000));
        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.timed_out && !c.established && !c.refused);
        assert_eq!(net.counters().conn_timeouts, 1);
    }

    #[test]
    fn udp_roundtrip() {
        struct UdpClient {
            dst: SockAddr,
            got: Vec<Vec<u8>>,
        }
        impl Agent for UdpClient {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.udp_send(40_000, self.dst, b"coap?".to_vec());
            }
            fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
                self.got.push(payload.to_vec());
            }
        }
        let mut net = net();
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(23, b"")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(UdpClient {
                dst: SockAddr::new(server_addr, 5683),
                got: Vec::new(),
            }),
        );
        net.run_until(SimTime(10_000));
        let c = net.agent_downcast::<UdpClient>(client).unwrap();
        assert_eq!(c.got, vec![b"COAP?".to_vec()]);
    }

    #[test]
    fn spoofed_udp_reflects_to_victim() {
        // Attacker spoofs the victim's address; the reflector's reply lands
        // on the victim. This is the CoAP/SSDP amplification primitive.
        struct Attacker {
            reflector: SockAddr,
            victim: SockAddr,
        }
        impl Agent for Attacker {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.udp_send_spoofed(self.victim, self.reflector, b"discover".to_vec());
            }
        }
        struct Victim {
            hits: Vec<Vec<u8>>,
        }
        impl Agent for Victim {
            fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, payload: &Payload) {
                self.hits.push(payload.to_vec());
            }
        }
        let mut net = net();
        let reflector_addr = ip(10, 0, 0, 1);
        net.attach(reflector_addr, Box::new(Echo::new(23, b"")));
        let victim_id = net.attach(ip(10, 0, 0, 3), Box::new(Victim { hits: Vec::new() }));
        let victim_addr = SockAddr::new(ip(10, 0, 0, 3), 9999);
        net.attach(
            ip(10, 0, 0, 2),
            Box::new(Attacker {
                reflector: SockAddr::new(reflector_addr, 1900),
                victim: victim_addr,
            }),
        );
        net.run_until(SimTime(10_000));
        let v = net.agent_downcast::<Victim>(victim_id).unwrap();
        assert_eq!(v.hits, vec![b"DISCOVER".to_vec()]);
    }

    #[test]
    fn tap_sees_traffic_into_unoccupied_range() {
        struct Recorder {
            flows: Vec<FlowObservation>,
        }
        impl FlowTap for Recorder {
            fn observe(&mut self, obs: &FlowObservation) {
                self.flows.push(obs.clone());
            }
        }
        let mut net = net();
        let tap = net.add_tap(
            "44.0.0.0/8".parse().unwrap(),
            Box::new(Recorder { flows: Vec::new() }),
        );
        // A client probing into the dark /8: nobody answers, but the tap sees
        // the SYN — this is the network telescope mechanism.
        let dark = SockAddr::new(ip(44, 1, 2, 3), 23);
        let client = net.attach(ip(10, 0, 0, 2), Box::new(Client::new(dark)));
        net.run_until(SimTime(10_000));

        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.timed_out);
        let rec = net.tap_downcast_mut::<Recorder>(tap).unwrap();
        assert_eq!(rec.flows.len(), 1);
        let f = &rec.flows[0];
        assert_eq!(f.dst, ip(44, 1, 2, 3));
        assert_eq!(f.dst_port, 23);
        assert_eq!(f.transport, Transport::Tcp);
        assert_eq!(f.tcp_flags, FlowObservation::SYN);
        assert!(f.ttl < 64, "TTL must be decremented by hop count");
    }

    #[test]
    fn faults_cause_timeouts_deterministically() {
        let cfg = SimNetConfig {
            seed: 7,
            faults: FaultSchedule::uniform(FaultPlan {
                drop_chance: 0.5,
                ..FaultPlan::NONE
            }),
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            ..SimNetConfig::default()
        };
        let run = |cfg: SimNetConfig| {
            let mut net = SimNet::new(cfg);
            let server_addr = ip(10, 0, 0, 1);
            net.attach(server_addr, Box::new(Echo::new(23, b"x")));
            let mut clients = Vec::new();
            for i in 0..64u32 {
                clients.push(net.attach(
                    Ipv4Addr::from(0x0b00_0000 + i),
                    Box::new(Client::new(SockAddr::new(server_addr, 23))),
                ));
            }
            net.run_until(SimTime(60_000));
            clients
                .iter()
                .map(|&c| net.agent_downcast::<Client>(c).unwrap().timed_out)
                .collect::<Vec<bool>>()
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a, b, "same seed, same outcome");
        let timeouts = a.iter().filter(|&&t| t).count();
        assert!(timeouts > 5 && timeouts < 60, "drop_chance=0.5 must lose some, not all: {timeouts}");
    }

    #[test]
    fn per_pair_latency_is_stable() {
        let m = LatencyModel::default();
        let a = m.one_way(ip(1, 2, 3, 4), ip(5, 6, 7, 8));
        let b = m.one_way(ip(1, 2, 3, 4), ip(5, 6, 7, 8));
        assert_eq!(a, b);
        assert!(a >= SimDuration::from_millis(10));
        assert!(a < SimDuration::from_millis(150));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_attach_panics() {
        let mut net = net();
        net.attach(ip(10, 0, 0, 1), Box::new(Echo::new(23, b"")));
        net.attach(ip(10, 0, 0, 1), Box::new(Echo::new(24, b"")));
    }

    #[test]
    fn send_after_close_is_dropped() {
        // Closing removes the connection; any straggler send is a no-op.
        struct Rude {
            dst: SockAddr,
        }
        impl Agent for Rude {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                let conn = ctx.tcp_connect(self.dst);
                ctx.tcp_close(conn);
                ctx.tcp_send(conn, b"too late".to_vec());
            }
        }
        let mut net = net();
        let server_addr = ip(10, 0, 0, 1);
        let server = net.attach(server_addr, Box::new(Echo::new(23, b"")));
        net.attach(
            ip(10, 0, 0, 2),
            Box::new(Rude {
                dst: SockAddr::new(server_addr, 23),
            }),
        );
        net.run_until(SimTime(10_000));
        let s = net.agent_downcast::<Echo>(server).unwrap();
        assert!(s.seen.is_empty());
    }

    fn uniform_net(plan: FaultPlan) -> SimNet {
        SimNet::new(SimNetConfig {
            seed: 7,
            faults: FaultSchedule::uniform(plan),
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            ..SimNetConfig::default()
        })
    }

    /// Client that records a reset distinctly from a close.
    struct ResetAware {
        dst: SockAddr,
        established: bool,
        reset: bool,
        closed: bool,
    }

    impl Agent for ResetAware {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            self.established = true;
            ctx.tcp_send(conn, b"hello".to_vec());
        }
        fn on_tcp_reset(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
            self.reset = true;
        }
        fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
            self.closed = true;
        }
    }

    #[test]
    fn injected_reset_notifies_both_ends() {
        // Every segment rolls a reset: the client's "hello" tears the
        // connection down; client sees on_tcp_reset, server's default
        // on_tcp_reset falls through to on_tcp_closed.
        let mut net = uniform_net(FaultPlan {
            reset_chance: 1.0,
            ..FaultPlan::NONE
        });
        let server_addr = ip(10, 0, 0, 1);
        let server = net.attach(server_addr, Box::new(Echo::new(23, b"")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(ResetAware {
                dst: SockAddr::new(server_addr, 23),
                established: false,
                reset: false,
                closed: false,
            }),
        );
        net.run_until(SimTime(30_000));
        let s = net.agent_downcast::<Echo>(server).unwrap();
        assert!(s.seen.is_empty(), "segment must not be delivered");
        assert_eq!(s.closed, 1, "server hears the reset via on_tcp_closed");
        let c = net.agent_downcast::<ResetAware>(client).unwrap();
        assert!(c.reset && !c.closed);
        assert!(net.counters().tcp_resets_injected >= 1);
    }

    #[test]
    fn rate_limit_manifests_as_refusal() {
        let mut net = uniform_net(FaultPlan {
            rate_limit_chance: 1.0,
            ..FaultPlan::NONE
        });
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(23, b"x")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(server_addr, 23))),
        );
        net.run_until(SimTime(30_000));
        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.refused && !c.established && !c.timed_out);
        let counters = net.counters();
        assert_eq!(counters.tcp_rate_limited, 1);
        assert_eq!(counters.conns_refused, 1);
        assert_eq!(counters.conns_established, 0);
    }

    #[test]
    fn churned_dark_host_times_out_but_is_observed() {
        struct Recorder {
            flows: usize,
        }
        impl FlowTap for Recorder {
            fn observe(&mut self, _obs: &FlowObservation) {
                self.flows += 1;
            }
        }
        let mut net = uniform_net(FaultPlan {
            churn_chance: 1.0,
            ..FaultPlan::NONE
        });
        let tap = net.add_tap("10.0.0.0/8".parse().unwrap(), Box::new(Recorder { flows: 0 }));
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(23, b"x")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(server_addr, 23))),
        );
        net.run_until(SimTime(30_000));
        let c = net.agent_downcast::<Client>(client).unwrap();
        assert!(c.timed_out && !c.established, "dark host looks like empty space");
        assert_eq!(net.counters().churn_suppressed, 1);
        let rec = net.tap_downcast_mut::<Recorder>(tap).unwrap();
        assert_eq!(rec.flows, 1, "host-level churn still reaches the wire tap");
    }

    #[test]
    fn duplicate_udp_delivers_twice() {
        struct OneShot {
            dst: SockAddr,
        }
        impl Agent for OneShot {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.udp_send(40_000, self.dst, b"ping".to_vec());
            }
        }
        let mut net = uniform_net(FaultPlan {
            duplicate_chance: 1.0,
            ..FaultPlan::NONE
        });
        let server_addr = ip(10, 0, 0, 1);
        let server = net.attach(server_addr, Box::new(Echo::new(23, b"")));
        net.attach(
            ip(10, 0, 0, 2),
            Box::new(OneShot {
                dst: SockAddr::new(server_addr, 5683),
            }),
        );
        net.run_until(SimTime(10_000));
        let s = net.agent_downcast::<Echo>(server).unwrap();
        assert_eq!(s.udp_seen.len(), 2, "duplicate delivery arrives twice");
        assert!(net.counters().udp_datagrams_duplicated >= 1);
    }

    #[test]
    fn outage_window_blacks_out_then_recovers() {
        struct Retrier {
            dst: SockAddr,
            outcomes: Vec<&'static str>,
        }
        impl Agent for Retrier {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
                ctx.set_timer(SimDuration::from_secs(10), 1);
            }
            fn on_tcp_established(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
                self.outcomes.push("established");
            }
            fn on_tcp_timeout(&mut self, _ctx: &mut NetCtx<'_>, _conn: ConnToken) {
                self.outcomes.push("timeout");
            }
            fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
                ctx.tcp_connect(self.dst);
            }
        }
        let mut net = SimNet::new(SimNetConfig {
            seed: 7,
            faults: FaultSchedule {
                phases: vec![FaultPhase {
                    name: "outage".into(),
                    from_ms: Some(0),
                    to_ms: Some(5_000),
                    plan: FaultPlan {
                        drop_chance: 1.0,
                        ..FaultPlan::NONE
                    },
                    ..FaultPhase::default()
                }],
            },
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            ..SimNetConfig::default()
        });
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(23, b"x")));
        let client = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Retrier {
                dst: SockAddr::new(server_addr, 23),
                outcomes: Vec::new(),
            }),
        );
        net.run_until(SimTime(60_000));
        let c = net.agent_downcast::<Retrier>(client).unwrap();
        assert_eq!(
            c.outcomes,
            vec!["timeout", "established"],
            "blackout swallows the first attempt; the retry after the window lands"
        );
        assert_eq!(net.counters().tcp_handshake_drops, 1);
    }

    #[test]
    fn scoped_phase_only_hits_matching_port() {
        let mut net = SimNet::new(SimNetConfig {
            seed: 7,
            faults: FaultSchedule {
                phases: vec![FaultPhase {
                    name: "telnet-only".into(),
                    scope: FaultScope {
                        ports: vec![23],
                        ..FaultScope::default()
                    },
                    plan: FaultPlan {
                        drop_chance: 1.0,
                        ..FaultPlan::NONE
                    },
                    from_ms: Some(0),
                    to_ms: Some(600_000),
                    ..FaultPhase::default()
                }],
            },
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            ..SimNetConfig::default()
        });
        let server_addr = ip(10, 0, 0, 1);
        net.attach(server_addr, Box::new(Echo::new(80, b"ok")));
        let telnet = net.attach(
            ip(10, 0, 0, 2),
            Box::new(Client::new(SockAddr::new(server_addr, 23))),
        );
        let http = net.attach(
            ip(10, 0, 0, 3),
            Box::new(Client::new(SockAddr::new(server_addr, 80))),
        );
        net.run_until(SimTime(30_000));
        assert!(net.agent_downcast::<Client>(telnet).unwrap().timed_out);
        assert!(net.agent_downcast::<Client>(http).unwrap().established);
    }

    #[test]
    fn jitter_never_reorders_within_a_connection() {
        // 40 back-to-back segments under heavy jitter must arrive in order
        // (the per-conn FIFO clamp); see also crates/net/tests/fault_props.rs.
        struct Burst {
            dst: SockAddr,
        }
        impl Agent for Burst {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
                for i in 0..40u8 {
                    ctx.tcp_send(conn, vec![i]);
                }
            }
        }
        let mut net = uniform_net(FaultPlan {
            jitter_ms: 500,
            ..FaultPlan::NONE
        });
        let server_addr = ip(10, 0, 0, 1);
        let server = net.attach(server_addr, Box::new(Echo::new(23, b"")));
        net.attach(
            ip(10, 0, 0, 2),
            Box::new(Burst {
                dst: SockAddr::new(server_addr, 23),
            }),
        );
        net.run_until(SimTime(60_000));
        let s = net.agent_downcast::<Echo>(server).unwrap();
        let order: Vec<u8> = s.seen.iter().map(|m| m[0]).collect();
        assert_eq!(order, (0..40).collect::<Vec<u8>>());
    }
}
