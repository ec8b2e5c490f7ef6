//! Differential property: the fabric's elision rules change nothing but
//! the event count.
//!
//! Without faults the fabric answers some traffic at send time instead of
//! scheduling events whose dispatch would do nothing: stateless probes into
//! unoccupied space or to ports a spawner host does not serve, datagrams to
//! unserved ports, and the `ConnTimeout` backstop of a SYN whose answer
//! always comes first. The oracle runs the same scenario on the full path:
//! its spawner gives no port answers (`serves` is `None`) and its fault
//! schedule is one always-on phase of [`FaultPlan::NONE`], which forces the
//! full path but draws nothing from the RNG (every chance is zero).
//!
//! Both runs must give the same client log (time, kind, peer, bytes), the
//! same tap observations and the same counters, except that the oracle's
//! `events_processed` is the fast run's `events_processed + events_elided`.
//! A lossy variant (drops and duplicates) checks the datagram rule under a
//! real fault schedule, and that every `tcp_connect` still gets exactly one
//! outcome callback.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofh_net::sim::{Counters, FlowTap};
use ofh_net::{
    ip, Agent, ConnToken, FaultPhase, FaultPlan, FaultSchedule, FlowObservation, HostSpawner,
    LatencyModel, NetCtx, Payload, SimDuration, SimNet, SimNetConfig, SimTime, SockAddr,
    TcpDecision, Transport,
};
use proptest::prelude::*;

/// The ports hosts may serve: bit `i` of a mask serves `PORTS[i]` over TCP,
/// bit `PORTS.len() + i` over UDP.
const PORTS: [u16; 5] = [23, 80, 1883, 5683, 1900];

const PROBE_TAG: u64 = 1;

fn serves_bit(mask: u16, transport: Transport, port: u16) -> bool {
    let Some(i) = PORTS.iter().position(|&p| p == port) else {
        return false;
    };
    let bit = match transport {
        Transport::Tcp => i,
        Transport::Udp => PORTS.len() + i,
    };
    mask & (1 << bit) != 0
}

fn grid(octet: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, 0, octet)
}

/// A host serving the (transport, port) pairs in its mask: it greets on
/// accept, echoes TCP data upper-cased and answers served datagrams.
struct PortSet {
    mask: u16,
}

impl Agent for PortSet {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        _conn: ConnToken,
        port: u16,
        _peer: SockAddr,
    ) -> TcpDecision {
        if serves_bit(self.mask, Transport::Tcp, port) {
            TcpDecision::accept_with(format!("hi from {}:{port}", ctx.my_addr()))
        } else {
            TcpDecision::Refuse
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        ctx.tcp_send(conn, data.to_ascii_uppercase());
    }

    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, port: u16, peer: SockAddr, payload: &Payload) {
        if serves_bit(self.mask, Transport::Udp, port) {
            let mut reply = format!("udp {}:{port} ", ctx.my_addr()).into_bytes();
            reply.extend_from_slice(payload);
            ctx.udp_send(port, peer, reply);
        }
    }
}

/// Implicit hosts of the /24, by last octet.
#[derive(Clone)]
struct GridSpawner {
    hosts: BTreeMap<u8, u16>,
}

impl GridSpawner {
    fn mask(&self, addr: Ipv4Addr) -> Option<u16> {
        let [a, b, c, d] = addr.octets();
        if [a, b, c] != [10, 1, 0] {
            return None;
        }
        self.hosts.get(&d).copied()
    }
}

impl HostSpawner for GridSpawner {
    fn occupied(&self, addr: Ipv4Addr) -> bool {
        self.mask(addr).is_some()
    }

    fn spawn(&mut self, addr: Ipv4Addr) -> Option<Box<dyn Agent>> {
        self.mask(addr)
            .map(|mask| Box::new(PortSet { mask }) as Box<dyn Agent>)
    }

    fn serves(&self, addr: Ipv4Addr, transport: Transport, port: u16) -> Option<bool> {
        self.mask(addr)
            .map(|mask| serves_bit(mask, transport, port))
    }
}

/// The oracle's spawner: the same hosts, no port knowledge.
struct Blind(GridSpawner);

impl HostSpawner for Blind {
    fn occupied(&self, addr: Ipv4Addr) -> bool {
        self.0.occupied(addr)
    }

    fn spawn(&mut self, addr: Ipv4Addr) -> Option<Box<dyn Agent>> {
        self.0.spawn(addr)
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Probe,
    Connect,
    Datagram,
}

/// One client action: at `at_ms`, send `kind` to `(octet, port)`.
#[derive(Debug, Clone, Copy)]
struct Action {
    at_ms: u64,
    kind: Kind,
    octet: u8,
    port: u16,
}

/// What the client saw: (time, kind, peer, bytes). No connection ids.
type LogEntry = (u64, &'static str, SockAddr, Vec<u8>);

/// Mixes stateless probes, plain connects and datagrams. Like the scanner,
/// it ignores failure callbacks on its probes; it logs everything else.
struct Client {
    actions: Vec<Action>,
    log: Vec<LogEntry>,
    /// Outcome callbacks per `tcp_connect` (not logged: ids differ).
    outcomes: BTreeMap<ConnToken, u32>,
}

impl Client {
    fn entry(&mut self, ctx: &NetCtx<'_>, kind: &'static str, peer: SockAddr, bytes: &[u8]) {
        self.log.push((ctx.now().0, kind, peer, bytes.to_vec()));
    }

    /// A failure callback: probes are ignored, connects logged.
    fn failed(&mut self, ctx: &NetCtx<'_>, conn: ConnToken, kind: &'static str) {
        if ctx.conn_tag(conn) == Some(PROBE_TAG) {
            return;
        }
        *self.outcomes.entry(conn).or_default() += 1;
        let peer = ctx
            .conn_peer(conn)
            .expect("peer answerable in a failure callback");
        self.entry(ctx, kind, peer, b"");
    }
}

impl Agent for Client {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        for (i, a) in self.actions.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(a.at_ms), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let a = self.actions[token as usize];
        let dst = SockAddr::new(grid(a.octet), a.port);
        match a.kind {
            Kind::Probe => ctx.tcp_probe_tagged(dst, PROBE_TAG),
            Kind::Connect => {
                let conn = ctx.tcp_connect(dst);
                self.outcomes.insert(conn, 0);
            }
            Kind::Datagram => ctx.udp_send(40_000, dst, format!("q{token}")),
        }
    }

    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        if ctx.conn_tag(conn) != Some(PROBE_TAG) {
            *self.outcomes.entry(conn).or_default() += 1;
        }
        let peer = ctx.conn_peer(conn).expect("live connection");
        self.entry(ctx, "established", peer, b"");
        ctx.tcp_send(conn, b"ping".as_slice());
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let peer = ctx.conn_peer(conn).expect("live connection");
        self.entry(ctx, "data", peer, data);
        ctx.tcp_close(conn);
    }

    fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.failed(ctx, conn, "refused");
    }

    fn on_tcp_timeout(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.failed(ctx, conn, "timeout");
    }

    fn on_tcp_reset(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let peer = ctx
            .conn_peer(conn)
            .unwrap_or(SockAddr::new(Ipv4Addr::UNSPECIFIED, 0));
        self.entry(ctx, "reset", peer, b"");
    }

    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, _port: u16, peer: SockAddr, payload: &Payload) {
        self.entry(ctx, "udp", peer, payload);
    }
}

#[derive(Default)]
struct Recorder {
    seen: Vec<FlowObservation>,
}

impl FlowTap for Recorder {
    fn observe(&mut self, obs: &FlowObservation) {
        self.seen.push(obs.clone());
    }
}

struct Scenario {
    spawned: GridSpawner,
    attached: BTreeMap<u8, u16>,
    actions: Vec<Action>,
    latency: LatencyModel,
    syn_timeout: SimDuration,
}

struct Outcome {
    log: Vec<LogEntry>,
    taps: Vec<FlowObservation>,
    counters: Counters,
    live: usize,
    /// Outcome callbacks each `tcp_connect` received.
    outcomes: Vec<u32>,
}

fn run(s: &Scenario, faults: FaultSchedule, spawner: Box<dyn HostSpawner>) -> Outcome {
    let mut net = SimNet::new(SimNetConfig {
        seed: 7,
        faults,
        latency: s.latency,
        syn_timeout: s.syn_timeout,
    });
    let tap = net.add_tap("10.0.0.0/8".parse().unwrap(), Box::new(Recorder::default()));
    net.set_spawner(spawner);
    for (&octet, &mask) in &s.attached {
        net.attach(grid(octet), Box::new(PortSet { mask }));
    }
    let client = net.attach(
        ip(10, 2, 0, 1),
        Box::new(Client {
            actions: s.actions.clone(),
            log: Vec::new(),
            outcomes: BTreeMap::new(),
        }),
    );
    net.run_until(SimTime(120_000));
    let counters = net.counters();
    let live = net.live_connections();
    let taps = std::mem::take(&mut net.tap_downcast_mut::<Recorder>(tap).unwrap().seen);
    let c = net.agent_downcast_mut::<Client>(client).unwrap();
    Outcome {
        log: std::mem::take(&mut c.log),
        taps,
        counters,
        live,
        outcomes: c.outcomes.values().copied().collect(),
    }
}

/// One always-on phase that injects nothing: the full path, no RNG draws.
fn inert_schedule() -> FaultSchedule {
    FaultSchedule {
        phases: vec![FaultPhase {
            name: "inert".into(),
            plan: FaultPlan::NONE,
            ..FaultPhase::default()
        }],
    }
}

fn without_event_counts(mut c: Counters) -> Counters {
    c.events_processed = 0;
    c.events_elided = 0;
    c
}

/// The fast run against the oracle: same behaviour, same counters, and the
/// event identity.
fn assert_equivalent(fast: &Outcome, oracle: &Outcome) {
    assert_eq!(fast.log, oracle.log, "client logs differ");
    assert_eq!(fast.taps, oracle.taps, "tap observations differ");
    assert_eq!(
        without_event_counts(fast.counters),
        without_event_counts(oracle.counters),
        "counters differ"
    );
    assert_eq!(
        oracle.counters.events_elided, 0,
        "the oracle must take the full path"
    );
    assert_eq!(
        oracle.counters.events_processed,
        fast.counters.events_processed + fast.counters.events_elided,
        "processed + elided must equal the full path's event count"
    );
    assert_eq!(fast.live, oracle.live, "live connections differ");
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let hosts = prop::collection::vec((0u8..=255, 0u16..1 << 10), 2..24);
    let attached = prop::collection::vec((0u8..=255, 0u16..1 << 10), 0..4);
    // Half the actions aim at a host, the rest anywhere in the /24.
    let action = (
        0u64..20_000,
        0u8..3,
        any::<bool>(),
        any::<prop::sample::Index>(),
        0u8..=255,
        0usize..PORTS.len(),
    );
    let actions = prop::collection::vec(action, 1..64);
    // Latency against syn_timeout: just under, at and just over the tie
    // where the backstop must stay, or the default 3 s.
    let timing = (1u64..200, 0u8..4, any::<bool>());
    (hosts, attached, actions, timing).prop_map(|(hosts, attached, actions, timing)| {
        let attached: BTreeMap<u8, u16> = attached.into_iter().collect();
        let hosts: BTreeMap<u8, u16> = hosts
            .into_iter()
            .filter(|(octet, _)| !attached.contains_key(octet))
            .collect();
        let targets: Vec<u8> = hosts.keys().chain(attached.keys()).copied().collect();
        let actions = actions
            .into_iter()
            .map(|(at_ms, kind, aimed, pick, octet, port)| Action {
                at_ms,
                kind: [Kind::Probe, Kind::Connect, Kind::Datagram][kind as usize],
                octet: if aimed && !targets.is_empty() {
                    targets[pick.index(targets.len())]
                } else {
                    octet
                },
                port: PORTS[port],
            })
            .collect();
        let (lat_ms, pick, pair_hash) = timing;
        let latency = if pair_hash {
            LatencyModel::PairHash {
                base_ms: lat_ms,
                spread_ms: lat_ms,
            }
        } else {
            LatencyModel::Fixed(SimDuration::from_millis(lat_ms))
        };
        let syn_timeout = SimDuration::from_millis(match pick {
            0 => 2 * lat_ms - 1,
            1 => 2 * lat_ms,
            2 => 2 * lat_ms + 1,
            _ => 3_000,
        });
        Scenario {
            spawned: GridSpawner { hosts },
            attached,
            actions,
            latency,
            syn_timeout,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fault_free_elision_matches_the_full_path(s in scenario_strategy()) {
        let fast = run(&s, FaultSchedule::none(), Box::new(s.spawned.clone()));
        let oracle = run(&s, inert_schedule(), Box::new(Blind(s.spawned.clone())));
        assert_equivalent(&fast, &oracle);
        prop_assert_eq!(fast.live, 0, "connections leaked");
    }

    #[test]
    fn lossy_runs_keep_every_outcome(s in scenario_strategy()) {
        let lossy = || FaultSchedule::uniform(FaultPlan {
            drop_chance: 0.3,
            duplicate_chance: 0.3,
            ..FaultPlan::NONE
        });
        let fast = run(&s, lossy(), Box::new(s.spawned.clone()));
        let oracle = run(&s, lossy(), Box::new(Blind(s.spawned.clone())));
        // Only the datagram rule applies under faults; RNG draws all happen
        // at send time, so the two runs stay in lockstep.
        assert_equivalent(&fast, &oracle);
        prop_assert!(
            fast.outcomes.iter().all(|&n| n == 1),
            "every tcp_connect gets exactly one outcome: {:?}",
            fast.outcomes
        );
        prop_assert_eq!(fast.live, 0, "connections leaked");
    }
}

/// The rules fire in the scenario at all: a fixed case with one host of
/// each kind and every kind of traffic elides exactly what it should.
#[test]
fn each_rule_elides_its_events() {
    let s = Scenario {
        // .10 serves TCP/23 and UDP/5683.
        spawned: GridSpawner {
            hosts: BTreeMap::from([(10, 1 | 1 << (PORTS.len() + 3))]),
        },
        attached: BTreeMap::new(),
        actions: vec![
            // Probe into empty space: the backstop.
            Action {
                at_ms: 0,
                kind: Kind::Probe,
                octet: 99,
                port: 23,
            },
            // Probe to a closed port: SynArrive, ConnOutcome, backstop.
            Action {
                at_ms: 100,
                kind: Kind::Probe,
                octet: 10,
                port: 80,
            },
            // Connect to the open port: only the backstop.
            Action {
                at_ms: 200,
                kind: Kind::Connect,
                octet: 10,
                port: 23,
            },
            // Datagram to an unserved port: its arrival.
            Action {
                at_ms: 300,
                kind: Kind::Datagram,
                octet: 10,
                port: 1900,
            },
        ],
        latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
        syn_timeout: SimDuration::from_secs(3),
    };
    let fast = run(&s, FaultSchedule::none(), Box::new(s.spawned.clone()));
    let oracle = run(&s, inert_schedule(), Box::new(Blind(s.spawned.clone())));
    assert_equivalent(&fast, &oracle);
    assert_eq!(fast.counters.events_elided, 1 + 3 + 1 + 1);
    assert_eq!(fast.counters.conn_timeouts, 1);
    assert_eq!(fast.counters.conns_refused, 1);
    assert_eq!(fast.counters.conns_established, 1);
}
