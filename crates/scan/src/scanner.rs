//! The scanning agent — ZMap's pacing and statelessness plus ZGrab's
//! application-layer grabs, as one event-driven state machine.
//!
//! A [`Scanner`] runs one or more **sweeps**. Each sweep iterates a
//! pseudorandom permutation of the target space (see [`crate::iterator`]),
//! paced in batches per timer tick, probing every configured port:
//!
//! * **TCP protocols** (banner-based, Table 2): SYN → on accept, optionally
//!   send the protocol's opening probe → collect response bytes for a grab
//!   window → normalize and record;
//! * **UDP protocols** (response-based, Table 3): send the probe datagram;
//!   any response is normalized and recorded.
//!
//! Sweeps honour a CIDR blocklist (ZMap default + FireHOL, §3.1.1) and an
//! optional per-address sampling rate (used by the Sonar/Shodan coverage
//! models in [`crate::datasets`]).

use std::net::Ipv4Addr;
use std::sync::Arc;

use ofh_net::Payload;
use ofh_net::{
    Agent, CidrSet, ConnToken, FastMap, NetCtx, ShardSpec, SimDuration, SimTime, SockAddr,
};
use ofh_wire::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitset::BitSet;
use crate::iterator::AddressPermutation;
use crate::probe;
use crate::results::{HostRecord, ScanResults};

/// What a sweep permutes over: the whole address range, or a sparse index.
///
/// A paper-scale universe spans 2^32 addresses but carries only ~10^6
/// occupied hosts. Walking the dense range would cost four billion
/// permutation steps per sweep replica *and* a 512 MB probed-bitset per UDP
/// port; the index walks only the addresses that can possibly matter —
/// occupied hosts plus a deterministic stride sample of the telescope's
/// dark space (so scan-phase background radiation still reaches the tap).
/// The permutation then runs over index *positions*, keeping ZMap's
/// subnet-scattering property over whatever the index contains.
#[derive(Debug, Clone, Default)]
pub enum TargetSpace {
    /// Probe every address in `[base, base + size)` (the dense default).
    #[default]
    Range,
    /// Probe only `base + offset` for the listed offsets (sorted, unique).
    /// Shared by reference: one index serves every sweep of every shard.
    Index(Arc<Vec<u32>>),
}

impl TargetSpace {
    /// An indexed space over sorted, deduplicated offsets.
    pub fn index(offsets: Vec<u32>) -> TargetSpace {
        debug_assert!(offsets.windows(2).all(|w| w[0] < w[1]), "index not sorted/unique");
        TargetSpace::Index(Arc::new(offsets))
    }

    /// Size of the permutation domain for a range of `size` addresses.
    pub fn domain(&self, size: u64) -> u64 {
        match self {
            TargetSpace::Range => size,
            TargetSpace::Index(ix) => ix.len() as u64,
        }
    }

    /// Address offset at permutation position `pos`, if in domain.
    #[inline]
    fn offset_at(&self, pos: u64) -> Option<u32> {
        match self {
            TargetSpace::Range => Some(pos as u32),
            TargetSpace::Index(ix) => ix.get(pos as usize).copied(),
        }
    }

    /// Permutation position of address offset `rel` (for bitset tracking).
    #[inline]
    fn position_of(&self, rel: u32) -> Option<u64> {
        match self {
            TargetSpace::Range => Some(u64::from(rel)),
            TargetSpace::Index(ix) => ix.binary_search(&rel).ok().map(|i| i as u64),
        }
    }
}

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    pub protocol: Protocol,
    /// Ports to probe per address (e.g. Telnet: [23, 2323]).
    pub ports: Vec<u16>,
    /// First address of the target space.
    pub base: Ipv4Addr,
    /// Number of addresses to cover.
    pub size: u64,
    /// When the sweep starts (Table 9 schedule).
    pub start_at: SimTime,
    /// Probes (address × port) issued per tick.
    pub batch: u32,
    /// Tick interval.
    pub tick: SimDuration,
    /// How long to collect response bytes per TCP grab.
    pub grab_window: SimDuration,
    /// Addresses never probed.
    pub blocklist: CidrSet,
    /// Probability of probing each address (1.0 = full coverage).
    pub sample_rate: f64,
    /// Permutation seed.
    pub seed: u64,
    /// Which slice of the address space this sweep probes. The sweep walks
    /// the full permutation but only issues probes for addresses the shard
    /// owns; `ShardSpec::WHOLE` (the default) probes everything.
    pub shard: ShardSpec,
    /// The permutation domain: dense range or sparse index (paper scale).
    pub targets: TargetSpace,
}

/// ZGrab-style bounded retry policy for interrupted application-layer grabs.
///
/// ZMap's SYN phase stays stateless — a lost first-attempt SYN is
/// indistinguishable from empty address space and is *never* retried (the
/// paper's ~2% scan loss). But once a host has answered and a grab is in
/// flight, an injected reset or a retry-connect failure is a known-responsive
/// host worth re-contacting: the scanner reconnects after a deterministic
/// exponential backoff (`min(base · 2^(attempt-1), cap)` plus seeded jitter),
/// up to `attempts` retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry connects per target after the first attempt (0 = off).
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on the exponential backoff, in milliseconds.
    pub cap_ms: u64,
    /// Uniform jitter in `[0, jitter_ms]` added to each backoff, drawn from
    /// the scanner's dedicated retry RNG stream.
    pub jitter_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 2,
            base_ms: 500,
            cap_ms: 4_000,
            jitter_ms: 250,
        }
    }
}

/// Degradation accounting for one scanner: what the faults took and what the
/// retry machinery got back. `first_attempt_losses - retries_recovered` is
/// the net grab loss, non-negative by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanResilience {
    /// First-attempt grabs interrupted by an injected reset or blackout.
    pub first_attempt_losses: u64,
    /// Retry connects actually issued.
    pub retries_issued: u64,
    /// Grabs recorded on a retry attempt — losses clawed back.
    pub retries_recovered: u64,
}

impl ScanResilience {
    /// Fold another scanner's counters into this one (cross-shard merge).
    pub fn absorb(&mut self, other: &ScanResilience) {
        self.first_attempt_losses += other.first_attempt_losses;
        self.retries_issued += other.retries_issued;
        self.retries_recovered += other.retries_recovered;
    }
}

impl ScannerConfig {
    /// A full-coverage sweep with paper-faithful ports for `protocol`.
    pub fn full(protocol: Protocol, base: Ipv4Addr, size: u64, start_at: SimTime, seed: u64) -> Self {
        let mut ports = vec![protocol.port()];
        ports.extend_from_slice(protocol.extra_ports());
        ScannerConfig {
            protocol,
            ports,
            base,
            size,
            start_at,
            batch: 2_048,
            tick: SimDuration::from_millis(100),
            grab_window: SimDuration::from_millis(1_500),
            blocklist: CidrSet::new(),
            sample_rate: 1.0,
            seed,
            shard: ShardSpec::WHOLE,
            targets: TargetSpace::Range,
        }
    }

    /// Addresses this sweep will actually consider probing — the shard's
    /// share of the target domain. O(domain) when sharded (one hash per
    /// candidate); used once per sweep to bound the schedule.
    pub fn target_count(&self) -> u64 {
        match &self.targets {
            TargetSpace::Range => self.shard.owned_in(self.base, self.size),
            TargetSpace::Index(ix) => {
                let base = u32::from(self.base);
                ix.iter()
                    .filter(|&&rel| {
                        self.shard.owns(Ipv4Addr::from(base.wrapping_add(rel)))
                    })
                    .count() as u64
            }
        }
    }
}

struct Sweep {
    cfg: ScannerConfig,
    perm: AddressPermutation,
    /// Pending ports for the current address (probed one per slot).
    pending_ports: Vec<(Ipv4Addr, u16)>,
    exhausted: bool,
    probes_sent: u64,
}

struct Grab {
    sweep: usize,
    addr: Ipv4Addr,
    port: u16,
    buf: Vec<u8>,
    followed_up: bool,
    /// 0 for the original sweep probe; n for the n-th retry connect.
    attempt: u8,
}

/// A scheduled retry connect, parked until its backoff timer fires.
struct RetryEntry {
    sweep: u32,
    addr: Ipv4Addr,
    port: u16,
    attempt: u8,
}

/// Remembers which addresses the scanner's UDP sweeps probed, so a response
/// can be attributed to its sweep (response-based protocols, Table 3).
enum UdpTracker {
    /// Every UDP port belongs to exactly one sweep (the normal case):
    /// port → (sweep, probed-offset bitset). Marking a probe is a bit set;
    /// no per-probe allocation or hashing of 1M+ map entries.
    ByPort(FastMap<u16, PortTracker>),
    /// Fallback when two sweeps share a UDP port: exact `(addr, port)`
    /// bookkeeping with latest-probe-wins attribution.
    Shared(FastMap<(Ipv4Addr, u16), usize>),
}

struct PortTracker {
    sweep: usize,
    base: u32,
    /// One bit per *domain position* — index length, not address-range
    /// size, so a sparse 2^32 sweep tracks probes in kilobytes, not 512 MB.
    probed: BitSet,
    targets: TargetSpace,
}

/// The scanning agent. Attach at the scanning host's address, run the
/// network past the expected completion time, then read [`Scanner::results`].
pub struct Scanner {
    pub results: ScanResults,
    /// Retry/backoff policy for interrupted grabs (ZGrab behaviour).
    pub retry: RetryPolicy,
    /// Degradation accounting: losses, retries, recoveries.
    pub resilience: ScanResilience,
    sweeps: Vec<Sweep>,
    /// Grabs in progress — created on `on_tcp_established`, so the table
    /// only ever holds responsive hosts, not the millions of probes into
    /// empty space.
    grabs: FastMap<ConnToken, Grab>,
    udp_track: UdpTracker,
    /// Probe payloads encoded once at construction; the per-address CoAP
    /// message id is patched into a copy of the template (see
    /// [`probe::ProbeTemplates`]).
    templates: probe::ProbeTemplates,
    rng: StdRng,
    /// Dedicated stream for backoff jitter, so retries never perturb the
    /// sampling draw sequence (which must stay a pure function of targets).
    retry_rng: StdRng,
    /// Parked retries, keyed by the id carried in the retry timer token.
    retries: FastMap<u64, RetryEntry>,
    next_retry_id: u64,
    message_id: u16,
    active_sweeps: usize,
}

const DEADLINE_BIT: u64 = 1 << 63;
const RETRY_BIT: u64 = 1 << 62;

/// The sweep index occupies the tag's low bits; the retry attempt rides in
/// the high bits so established connections know which attempt they are.
const TAG_ATTEMPT_SHIFT: u64 = 48;

impl Scanner {
    pub fn new(source: impl Into<String>, configs: Vec<ScannerConfig>) -> Scanner {
        let seed = configs.first().map(|c| c.seed).unwrap_or(0);
        let active = configs.len();
        let sweeps: Vec<Sweep> = configs
            .into_iter()
            .map(|cfg| Sweep {
                // An empty index still builds a 1-element permutation whose
                // sole position falls outside the domain and is skipped.
                perm: AddressPermutation::new(cfg.targets.domain(cfg.size).max(1), cfg.seed),
                cfg,
                pending_ports: Vec::new(),
                exhausted: false,
                probes_sent: 0,
            })
            .collect();
        let udp_track = Self::build_udp_tracker(&sweeps);
        Scanner {
            results: ScanResults::new(source),
            retry: RetryPolicy::default(),
            resilience: ScanResilience::default(),
            sweeps,
            grabs: FastMap::default(),
            udp_track,
            templates: probe::ProbeTemplates::new(),
            rng: StdRng::seed_from_u64(ofh_net::rng::derive_seed(seed, "scanner")),
            retry_rng: StdRng::seed_from_u64(ofh_net::rng::derive_seed(seed, "scanner/retry")),
            retries: FastMap::default(),
            next_retry_id: 0,
            message_id: 1,
            active_sweeps: active,
        }
    }

    /// In-flight grabs plus parked retries — must be zero once the network
    /// has drained past the scan's end (the chaos harness asserts this).
    pub fn leaked_state(&self) -> u64 {
        (self.grabs.len() + self.retries.len()) as u64
    }

    /// Port-indexed UDP probe tracking when ports are unambiguous, exact
    /// per-address map otherwise.
    fn build_udp_tracker(sweeps: &[Sweep]) -> UdpTracker {
        let mut by_port: FastMap<u16, PortTracker> = FastMap::default();
        for (idx, sweep) in sweeps.iter().enumerate() {
            if !sweep.cfg.protocol.is_udp() {
                continue;
            }
            for &port in &sweep.cfg.ports {
                if by_port
                    .insert(
                        port,
                        PortTracker {
                            sweep: idx,
                            base: u32::from(sweep.cfg.base),
                            probed: BitSet::new(sweep.cfg.targets.domain(sweep.cfg.size)),
                            targets: sweep.cfg.targets.clone(),
                        },
                    )
                    .is_some()
                {
                    // Two sweeps share a UDP port: fall back to exact
                    // bookkeeping.
                    return UdpTracker::Shared(FastMap::default());
                }
            }
        }
        UdpTracker::ByPort(by_port)
    }

    fn mark_udp_probe(&mut self, addr: Ipv4Addr, port: u16, sweep: usize) {
        match &mut self.udp_track {
            UdpTracker::ByPort(map) => {
                if let Some(t) = map.get_mut(&port) {
                    let rel = u32::from(addr).wrapping_sub(t.base);
                    if let Some(pos) = t.targets.position_of(rel) {
                        t.probed.set(pos);
                    }
                }
            }
            UdpTracker::Shared(map) => {
                map.insert((addr, port), sweep);
            }
        }
    }

    fn udp_response_sweep(&self, addr: Ipv4Addr, port: u16) -> Option<usize> {
        match &self.udp_track {
            UdpTracker::ByPort(map) => {
                let t = map.get(&port)?;
                let rel = u32::from(addr).wrapping_sub(t.base);
                let pos = t.targets.position_of(rel)?;
                t.probed.get(pos).then_some(t.sweep)
            }
            UdpTracker::Shared(map) => map.get(&(addr, port)).copied(),
        }
    }

    /// Whether every sweep has issued all its probes. (Responses may still
    /// be in flight for one grab window.)
    pub fn all_probes_sent(&self) -> bool {
        self.active_sweeps == 0
    }

    /// Total probes issued so far.
    pub fn probes_sent(&self) -> u64 {
        self.sweeps.iter().map(|s| s.probes_sent).sum()
    }

    /// Conservatively estimate when a sweep's probing finishes. Sharded
    /// sweeps issue probes only for their owned addresses, so the schedule
    /// shrinks proportionally (the exact owned count is used, keeping the
    /// bound safe for uneven hash splits).
    pub fn estimated_end(cfg: &ScannerConfig) -> SimTime {
        let probes = cfg.target_count() * cfg.ports.len() as u64;
        let ticks = probes / cfg.batch as u64 + 2;
        cfg.start_at + cfg.tick.mul(ticks) + cfg.grab_window + SimDuration::from_secs(10)
    }

    fn next_target(&mut self, sweep_idx: usize) -> Option<(Ipv4Addr, u16)> {
        loop {
            let sweep = &mut self.sweeps[sweep_idx];
            if let Some(t) = sweep.pending_ports.pop() {
                return Some(t);
            }
            let pos = sweep.perm.next()?;
            let Some(rel) = sweep.cfg.targets.offset_at(pos) else {
                continue;
            };
            let addr = Ipv4Addr::from(u32::from(sweep.cfg.base).wrapping_add(rel));
            // Shard filter first: the sampling RNG must only be consulted
            // for owned addresses, so each shard's draw sequence is a pure
            // function of its own targets.
            if !sweep.cfg.shard.owns(addr) {
                continue;
            }
            if sweep.cfg.blocklist.contains(addr) {
                continue;
            }
            if sweep.cfg.sample_rate < 1.0 && !self.rng.gen_bool(sweep.cfg.sample_rate) {
                continue;
            }
            let sweep = &mut self.sweeps[sweep_idx];
            for &port in sweep.cfg.ports.iter().rev() {
                sweep.pending_ports.push((addr, port));
            }
        }
    }

    fn issue_batch(&mut self, ctx: &mut NetCtx<'_>, sweep_idx: usize) {
        let (protocol, batch, is_udp) = {
            let cfg = &self.sweeps[sweep_idx].cfg;
            (cfg.protocol, cfg.batch, cfg.protocol.is_udp())
        };
        // Counted once per batch, not per probe — issue_batch is the
        // scanner's hottest loop.
        let before = self.sweeps[sweep_idx].probes_sent;
        for _ in 0..batch {
            let Some((addr, port)) = self.next_target(sweep_idx) else {
                if !self.sweeps[sweep_idx].exhausted {
                    self.sweeps[sweep_idx].exhausted = true;
                    self.active_sweeps -= 1;
                }
                let sent = self.sweeps[sweep_idx].probes_sent - before;
                if sent > 0 {
                    ofh_obs::count_l("scan.probe.sent", protocol.name(), sent);
                }
                return;
            };
            self.sweeps[sweep_idx].probes_sent += 1;
            let dst = SockAddr::new(addr, port);
            if is_udp {
                let mid = self.message_id;
                self.message_id = self.message_id.wrapping_add(1).max(1);
                if let Some(payload) = self.templates.udp_probe(protocol, mid) {
                    self.mark_udp_probe(addr, port, sweep_idx);
                    ctx.udp_send(40_000, dst, payload);
                }
            } else {
                // The sweep index rides on the connection as a tag; the grab
                // record is created only if the host answers — probes into
                // empty space leave no scanner-side state at all.
                ctx.tcp_connect_tagged(dst, sweep_idx as u64);
            }
        }
        ofh_obs::count_l("scan.probe.sent", protocol.name(), batch as u64);
    }

    /// Park a retry connect for `attempt` (1-based) against a target that
    /// already proved responsive, after the policy's backoff plus jitter.
    fn schedule_retry(
        &mut self,
        ctx: &mut NetCtx<'_>,
        sweep: usize,
        addr: Ipv4Addr,
        port: u16,
        attempt: u8,
    ) {
        let shift = u32::from(attempt.saturating_sub(1)).min(16);
        let backoff = self
            .retry
            .base_ms
            .saturating_mul(1 << shift)
            .min(self.retry.cap_ms);
        let jitter = if self.retry.jitter_ms > 0 {
            self.retry_rng.gen_range(0..=self.retry.jitter_ms)
        } else {
            0
        };
        let id = self.next_retry_id;
        self.next_retry_id += 1;
        self.retries.insert(
            id,
            RetryEntry {
                sweep: sweep as u32,
                addr,
                port,
                attempt,
            },
        );
        ctx.set_timer(SimDuration::from_millis(backoff + jitter), RETRY_BIT | id);
    }

    /// A connect that was itself a retry failed (refused / timed out /
    /// rate-limited). First-attempt failures never reach here: they carry
    /// attempt 0 and stay stateless, exactly like ZMap.
    fn retry_connect_failure(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let Some(tag) = ctx.conn_tag(conn) else {
            return;
        };
        let attempt = (tag >> TAG_ATTEMPT_SHIFT) as u8;
        if attempt == 0 {
            return;
        }
        let Some(peer) = ctx.conn_peer(conn) else {
            return;
        };
        if u32::from(attempt) < self.retry.attempts {
            let sweep = (tag & 0xFFFF_FFFF) as usize;
            self.schedule_retry(ctx, sweep, peer.addr, peer.port, attempt + 1);
        }
    }

    fn finalize(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, close: bool) {
        let Some(grab) = self.grabs.remove(&conn) else {
            return;
        };
        if grab.attempt > 0 {
            self.resilience.retries_recovered += 1;
        }
        let protocol = self.sweeps[grab.sweep].cfg.protocol;
        ofh_obs::count_l("scan.response.recorded", protocol.name(), 1);
        ofh_obs::observe_l("scan.response_bytes", protocol.name(), grab.buf.len() as u64);
        ofh_obs::span(
            "scan.grab",
            protocol.name(),
            ctx.now().0,
            ctx.now().0,
            u32::from(ctx.my_addr()),
            u32::from(grab.addr),
            grab.port,
            grab.buf.len() as u32,
        );
        // Empty buffer = responsive host with no banner: still recorded,
        // with an empty response (the port is provably open).
        let response = probe::normalize_response(protocol, &grab.buf);
        self.results.insert(HostRecord {
            addr: grab.addr,
            port: grab.port,
            protocol,
            response,
            raw: grab.buf,
        });
        if close {
            ctx.tcp_close(conn);
        }
    }
}

impl Agent for Scanner {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.set_initial_ttl(64);
        // ZMap's characteristic large SYN window (the telescope's
        // is_masscan heuristic keys off scanner windows).
        ctx.set_syn_window(65_535);
        let now = ctx.now();
        for (i, sweep) in self.sweeps.iter().enumerate() {
            let delay = sweep.cfg.start_at.since(now);
            ctx.set_timer(delay, i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        if token & DEADLINE_BIT != 0 {
            let conn = ConnToken(token & !DEADLINE_BIT);
            self.finalize(ctx, conn, true);
            return;
        }
        if token & RETRY_BIT != 0 {
            let Some(e) = self.retries.remove(&(token & !RETRY_BIT)) else {
                return;
            };
            self.resilience.retries_issued += 1;
            let tag = u64::from(e.sweep) | (u64::from(e.attempt) << TAG_ATTEMPT_SHIFT);
            ctx.tcp_connect_tagged(SockAddr::new(e.addr, e.port), tag);
            return;
        }
        let sweep_idx = token as usize;
        self.issue_batch(ctx, sweep_idx);
        if !self.sweeps[sweep_idx].exhausted {
            let tick = self.sweeps[sweep_idx].cfg.tick;
            ctx.set_timer(tick, token);
        }
    }

    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        // Recover the probe context from the connection itself (sweep and
        // attempt from the tag, target from the peer) — a responsive host is
        // the rare case, so this is where the grab record is created.
        let Some(tag) = ctx.conn_tag(conn) else {
            return;
        };
        let sweep_idx = (tag & 0xFFFF_FFFF) as usize;
        let attempt = (tag >> TAG_ATTEMPT_SHIFT) as u8;
        let Some(peer) = ctx.conn_peer(conn) else {
            return;
        };
        debug_assert!(conn.0 & DEADLINE_BIT == 0, "conn id collides with deadline bit");
        self.grabs.insert(
            conn,
            Grab {
                sweep: sweep_idx,
                addr: peer.addr,
                port: peer.port,
                buf: Vec::new(),
                followed_up: false,
                attempt,
            },
        );
        let cfg = &self.sweeps[sweep_idx].cfg;
        let (protocol, window) = (cfg.protocol, cfg.grab_window);
        if let Some(opening) = self.templates.tcp_opening(protocol) {
            ctx.tcp_send(conn, opening);
        }
        ctx.set_timer(window, DEADLINE_BIT | conn.0);
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(grab) = self.grabs.get_mut(&conn) else {
            return;
        };
        let first_chunk = grab.buf.is_empty();
        grab.buf.extend_from_slice(data);
        let protocol = self.sweeps[grab.sweep].cfg.protocol;
        if first_chunk && !grab.followed_up {
            if let Some(followup) = probe::tcp_followup(protocol, data) {
                grab.followed_up = true;
                ctx.tcp_send(conn, followup);
            }
        }
    }

    // First-attempt refused / timed-out probes carry no scanner-side state
    // (the grab is only created on establishment); only connects that were
    // themselves retries are followed up.

    fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.retry_connect_failure(ctx, conn);
    }

    fn on_tcp_timeout(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.retry_connect_failure(ctx, conn);
    }

    fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        // Peer closed first: record what we have.
        self.finalize(ctx, conn, false);
    }

    fn on_tcp_reset(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        // The network tore the grab down mid-flight (injected reset or
        // blackout). The host already proved responsive, so unlike a lost
        // SYN this is a loss worth recovering: reconnect after backoff.
        let Some(grab) = self.grabs.remove(&conn) else {
            return;
        };
        if grab.attempt == 0 {
            self.resilience.first_attempt_losses += 1;
        }
        if u32::from(grab.attempt) < self.retry.attempts {
            self.schedule_retry(ctx, grab.sweep, grab.addr, grab.port, grab.attempt + 1);
        }
    }

    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, _local_port: u16, peer: SockAddr, payload: &Payload) {
        let Some(sweep_idx) = self.udp_response_sweep(peer.addr, peer.port) else {
            return;
        };
        let protocol = self.sweeps[sweep_idx].cfg.protocol;
        ofh_obs::count_l("scan.response.recorded", protocol.name(), 1);
        ofh_obs::observe_l("scan.response_bytes", protocol.name(), payload.len() as u64);
        ofh_obs::span(
            "scan.grab",
            protocol.name(),
            ctx.now().0,
            ctx.now().0,
            u32::from(ctx.my_addr()),
            u32::from(peer.addr),
            peer.port,
            payload.len() as u32,
        );
        let response = probe::normalize_response(protocol, payload);
        self.results.insert(HostRecord {
            addr: peer.addr,
            port: peer.port,
            protocol,
            response,
            raw: payload.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_devices::endpoints::{CoapDevice, MqttDevice, TelnetDevice, UpnpDevice};
    use ofh_devices::Misconfig;
    use ofh_net::{ip, SimNet, SimNetConfig};
    use ofh_wire::ssdp::DeviceDescription;

    fn scan_one(
        protocol: Protocol,
        attach: impl FnOnce(&mut SimNet),
    ) -> ScanResults {
        let mut net = SimNet::new(SimNetConfig::default());
        attach(&mut net);
        let cfg = ScannerConfig {
            batch: 64,
            ..ScannerConfig::full(protocol, ip(16, 4, 0, 0), 256, SimTime::ZERO, 1)
        };
        let end = Scanner::estimated_end(&cfg);
        let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
        net.run_until(end);
        net.agent_downcast_mut::<Scanner>(sid).unwrap().results.clone()
    }

    #[test]
    fn telnet_sweep_finds_and_classifies() {
        let results = scan_one(Protocol::Telnet, |net| {
            net.attach(
                ip(16, 4, 0, 10),
                Box::new(TelnetDevice::new("PK5001Z login:", Some(Misconfig::TelnetNoAuthRoot), 23)),
            );
            net.attach(
                ip(16, 4, 0, 20),
                Box::new(TelnetDevice::new("192.168.0.64 login:", None, 23)),
            );
            net.attach(
                ip(16, 4, 0, 30),
                Box::new(TelnetDevice::new("BusyBox", Some(Misconfig::TelnetNoAuth), 2323)),
            );
        });
        assert_eq!(results.exposed_hosts(Protocol::Telnet), 3);
        assert_eq!(
            results.misconfigured_addrs(Misconfig::TelnetNoAuthRoot).len(),
            1
        );
        // The 2323-only device was found thanks to the extra port.
        assert!(results
            .misconfigured_addrs(Misconfig::TelnetNoAuth)
            .contains(&ip(16, 4, 0, 30)));
        // Device tagging works on the scan output.
        let rec = results.records.get(&(ip(16, 4, 0, 20), 23)).unwrap();
        assert_eq!(rec.device().unwrap().name, "HiKVision Camera");
    }

    #[test]
    fn mqtt_sweep_grabs_connack_and_topics() {
        let results = scan_one(Protocol::Mqtt, |net| {
            net.attach(
                ip(16, 4, 0, 40),
                Box::new(MqttDevice::new(
                    Some(Misconfig::MqttNoAuth),
                    vec![("homeassistant/light/k".into(), b"on".to_vec())],
                )),
            );
            net.attach(ip(16, 4, 0, 50), Box::new(MqttDevice::new(None, vec![])));
        });
        assert_eq!(results.exposed_hosts(Protocol::Mqtt), 2);
        let open = results.records.get(&(ip(16, 4, 0, 40), 1883)).unwrap();
        assert!(open.response.contains("MQTT Connection Code:0"));
        assert!(open.response.contains("topic: homeassistant/light/k"));
        assert_eq!(open.misconfig(), Some(Misconfig::MqttNoAuth));
        let closed = results.records.get(&(ip(16, 4, 0, 50), 1883)).unwrap();
        assert_eq!(closed.misconfig(), None);
    }

    #[test]
    fn coap_sweep_is_response_based() {
        let results = scan_one(Protocol::Coap, |net| {
            net.attach(
                ip(16, 4, 0, 60),
                Box::new(CoapDevice::new(
                    Some(Misconfig::CoapReflection),
                    vec![ofh_wire::coap::LinkEntry {
                        path: "/ndm/login".into(),
                        attrs: vec![],
                    }],
                )),
            );
            net.attach(ip(16, 4, 0, 61), Box::new(CoapDevice::new(None, vec![])));
        });
        assert_eq!(results.exposed_hosts(Protocol::Coap), 2);
        let reflect = results.records.get(&(ip(16, 4, 0, 60), 5683)).unwrap();
        assert_eq!(reflect.misconfig(), Some(Misconfig::CoapReflection));
        assert_eq!(reflect.device().unwrap().name, "NDM");
        let safe = results.records.get(&(ip(16, 4, 0, 61), 5683)).unwrap();
        assert_eq!(safe.misconfig(), None);
    }

    #[test]
    fn upnp_sweep_discovers_rootdevices() {
        let results = scan_one(Protocol::Upnp, |net| {
            net.attach(
                ip(16, 4, 0, 70),
                Box::new(UpnpDevice::new(
                    Some(Misconfig::UpnpReflection),
                    "Linux/2.x UPnP/1.0 Avtech/1.0",
                    DeviceDescription::default(),
                )),
            );
        });
        let rec = results.records.get(&(ip(16, 4, 0, 70), 1900)).unwrap();
        assert_eq!(rec.misconfig(), Some(Misconfig::UpnpReflection));
        assert_eq!(rec.device().unwrap().name, "Avtech AVN801");
    }

    #[test]
    fn blocklist_is_honoured() {
        let mut net = SimNet::new(SimNetConfig::default());
        net.attach(
            ip(16, 4, 0, 10),
            Box::new(TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 23)),
        );
        let mut cfg = ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 256, SimTime::ZERO, 1);
        cfg.blocklist.insert("16.4.0.0/24".parse().unwrap());
        let end = Scanner::estimated_end(&cfg);
        let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
        net.run_until(end);
        let s = net.agent_downcast::<Scanner>(sid).unwrap();
        assert!(s.results.is_empty());
        assert!(s.all_probes_sent());
        assert_eq!(s.probes_sent(), 0);
    }

    #[test]
    fn sampling_reduces_coverage_deterministically() {
        let run = || {
            let mut net = SimNet::new(SimNetConfig::default());
            for i in 0..64u32 {
                net.attach(
                    Ipv4Addr::from(u32::from(ip(16, 4, 0, 0)) + i),
                    Box::new(TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 23)),
                );
            }
            let cfg = ScannerConfig {
                sample_rate: 0.5,
                ports: vec![23],
                ..ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 64, SimTime::ZERO, 9)
            };
            let end = Scanner::estimated_end(&cfg);
            let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("Shodan", vec![cfg])));
            net.run_until(end);
            net.agent_downcast::<Scanner>(sid).unwrap().results.len()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "sampling must be deterministic");
        assert!(a > 16 && a < 48, "coverage {a} should be ~half");
    }

    #[test]
    fn resets_are_retried_and_recovered() {
        use ofh_net::{FaultPlan, FaultSchedule};
        let run = || {
            let mut net = SimNet::new(SimNetConfig {
                // Aggressive mid-grab resets: every grab is likely
                // interrupted at least once, so the retry path is exercised
                // heavily while two attempts still recover almost everything.
                faults: FaultSchedule::uniform(FaultPlan {
                    reset_chance: 0.3,
                    ..FaultPlan::NONE
                }),
                ..SimNetConfig::default()
            });
            for i in 0..24u32 {
                net.attach(
                    Ipv4Addr::from(u32::from(ip(16, 4, 0, 1)) + i),
                    Box::new(TelnetDevice::new("BusyBox login:", Some(Misconfig::TelnetNoAuth), 23)),
                );
            }
            let cfg = ScannerConfig {
                batch: 64,
                ports: vec![23],
                ..ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 256, SimTime::ZERO, 1)
            };
            let end = Scanner::estimated_end(&cfg) + SimDuration::from_secs(30);
            let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
            net.run_until(end);
            let s = net.agent_downcast::<Scanner>(sid).unwrap();
            assert_eq!(s.leaked_state(), 0, "grabs or retries leaked");
            (s.resilience, s.results.len())
        };
        let (r, found) = run();
        assert!(r.first_attempt_losses > 0, "faults never bit: {r:?}");
        assert!(r.retries_issued > 0 && r.retries_recovered > 0, "{r:?}");
        assert!(r.retries_recovered <= r.retries_issued, "{r:?}");
        assert!(r.retries_recovered <= r.first_attempt_losses, "{r:?}");
        // Retries claw back most of the interrupted grabs.
        assert!(found > 12, "only {found}/24 hosts recorded: {r:?}");
        // And the whole faulty run is deterministic.
        assert_eq!(run(), (r, found));
    }

    #[test]
    fn indexed_sweep_probes_exactly_the_index() {
        // A sparse index over a huge nominal range: probe accounting must
        // track the index length, never the range size.
        let mut net = SimNet::new(SimNetConfig::default());
        net.attach(
            ip(16, 4, 0, 10),
            Box::new(TelnetDevice::new("BusyBox login:", Some(Misconfig::TelnetNoAuth), 23)),
        );
        let offsets: Vec<u32> = vec![10, 77, 500, 9_999, 4_000_000];
        let cfg = ScannerConfig {
            ports: vec![23],
            targets: TargetSpace::index(offsets.clone()),
            ..ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 1 << 31, SimTime::ZERO, 5)
        };
        assert_eq!(cfg.target_count(), offsets.len() as u64);
        let end = Scanner::estimated_end(&cfg);
        let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
        net.run_until(end);
        let s = net.agent_downcast::<Scanner>(sid).unwrap();
        assert_eq!(s.probes_sent(), offsets.len() as u64);
        assert!(s.all_probes_sent());
        assert_eq!(s.results.exposed_hosts(Protocol::Telnet), 1);
        assert!(s.results.records.contains_key(&(ip(16, 4, 0, 10), 23)));
    }

    #[test]
    fn indexed_udp_sweep_attributes_responses() {
        // The UDP probed-set must work through the index mapping: a CoAP
        // response from an indexed address is attributed; the bitset is
        // domain-sized (5 bits here), not range-sized.
        let mut net = SimNet::new(SimNetConfig::default());
        net.attach(
            ip(16, 4, 0, 77),
            Box::new(CoapDevice::new(
                Some(Misconfig::CoapReflection),
                vec![ofh_wire::coap::LinkEntry {
                    path: "/ndm/login".into(),
                    attrs: vec![],
                }],
            )),
        );
        let cfg = ScannerConfig {
            targets: TargetSpace::index(vec![3, 77, 1_000, 65_536, 2_000_000]),
            ..ScannerConfig::full(Protocol::Coap, ip(16, 4, 0, 0), 1 << 31, SimTime::ZERO, 8)
        };
        let end = Scanner::estimated_end(&cfg);
        let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
        net.run_until(end);
        let s = net.agent_downcast::<Scanner>(sid).unwrap();
        let rec = s.results.records.get(&(ip(16, 4, 0, 77), 5683)).unwrap();
        assert_eq!(rec.misconfig(), Some(Misconfig::CoapReflection));
    }

    #[test]
    fn indexed_and_range_sweeps_find_the_same_hosts() {
        // Over a small universe where both modes are feasible, an index
        // listing every offset is just a reordered full sweep: same hosts.
        let attach_hosts = |net: &mut SimNet| {
            for i in [9u32, 33, 200] {
                net.attach(
                    Ipv4Addr::from(u32::from(ip(16, 4, 0, 0)) + i),
                    Box::new(TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 23)),
                );
            }
        };
        let run = |targets: TargetSpace| {
            let mut net = SimNet::new(SimNetConfig::default());
            attach_hosts(&mut net);
            let cfg = ScannerConfig {
                ports: vec![23],
                targets,
                ..ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 256, SimTime::ZERO, 3)
            };
            let end = Scanner::estimated_end(&cfg);
            let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
            net.run_until(end);
            let s = net.agent_downcast::<Scanner>(sid).unwrap();
            let mut addrs: Vec<Ipv4Addr> =
                s.results.records.keys().map(|&(a, _)| a).collect();
            addrs.sort_unstable();
            addrs
        };
        let dense = run(TargetSpace::Range);
        let sparse = run(TargetSpace::index((0..256).collect()));
        assert_eq!(dense.len(), 3);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn sweeps_cover_whole_space() {
        // No devices: just verify probe accounting over the permutation.
        let mut net = SimNet::new(SimNetConfig::default());
        let cfg = ScannerConfig {
            ports: vec![23, 2323],
            ..ScannerConfig::full(Protocol::Telnet, ip(16, 4, 0, 0), 512, SimTime::ZERO, 3)
        };
        let end = Scanner::estimated_end(&cfg);
        let sid = net.attach(ip(16, 3, 0, 1), Box::new(Scanner::new("ZMap Scan", vec![cfg])));
        net.run_until(end);
        let s = net.agent_downcast::<Scanner>(sid).unwrap();
        assert_eq!(s.probes_sent(), 512 * 2);
        assert!(s.all_probes_sent());
    }
}
