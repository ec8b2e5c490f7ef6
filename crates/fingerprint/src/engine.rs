//! The multistage fingerprinting engine.
//!
//! Stage 1 (passive) walks the scan results' raw banners through the
//! [`SignatureDb`]. Stage 2 (active) re-probes each candidate with two junk
//! lines: a low-interaction honeypot replays the same static output both
//! times, while a real device's shell reacts to the input (command echo,
//! error text). Only candidates that pass both stages are reported —
//! which is what keeps Table 6 free of false positives even though banners
//! are attacker-controllable strings.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use ofh_honeypots::WildHoneypot;
use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, FastMap, NetCtx, SimDuration, SockAddr};
use ofh_scan::ScanResults;

use crate::signatures::SignatureDb;

/// One confirmed honeypot instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    pub addr: Ipv4Addr,
    pub port: u16,
    pub family: WildHoneypot,
}

/// The end result of a fingerprint run.
#[derive(Debug, Clone, Default)]
pub struct FingerprintReport {
    pub detections: Vec<Detection>,
    /// Candidates that matched passively but failed the active check
    /// (banner coincidence on a real device).
    pub rejected: Vec<(Ipv4Addr, u16)>,
    /// Active-stage re-checks whose first connect or probe was cut short by
    /// the network (refused / timed out / reset) and was re-attempted.
    pub retries_issued: u64,
    /// Re-attempts that established — the re-check ran thanks to the retry.
    pub retries_recovered: u64,
}

impl FingerprintReport {
    /// Counts per family — Table 6's #Detected Instances column.
    pub fn counts(&self) -> BTreeMap<WildHoneypot, u64> {
        let mut map = BTreeMap::new();
        for d in &self.detections {
            *map.entry(d.family).or_insert(0u64) += 1;
        }
        map
    }

    /// The confirmed honeypot address set — what gets filtered out of the
    /// misconfigured-device results.
    pub fn filter_set(&self) -> BTreeSet<Ipv4Addr> {
        self.detections.iter().map(|d| d.addr).collect()
    }

    pub fn total(&self) -> usize {
        self.detections.len()
    }

    /// Fold another prober's report into this one (the sharded engine runs
    /// one prober per shard over disjoint candidate sets).
    pub fn absorb(&mut self, other: FingerprintReport) {
        self.detections.extend(other.detections);
        self.rejected.extend(other.rejected);
        self.retries_issued += other.retries_issued;
        self.retries_recovered += other.retries_recovered;
    }

    /// Sort detections and rejections into a canonical order, so a merged
    /// report is independent of the order its parts arrived in.
    pub fn normalize(&mut self) {
        self.detections.sort_by_key(|d| (d.addr, d.port));
        self.rejected.sort_unstable();
    }
}

/// Passive stage: candidates from scan results whose raw banner matches a
/// signature, in record order.
///
/// Records that share an interned banner share one raw buffer, so each
/// distinct buffer goes through the automaton once and its verdict is
/// reused, keyed by the buffer's address and length. Every buffer stays
/// borrowed from `results` for the whole call, so that key names one
/// buffer (records with equal bytes in separate buffers are matched once
/// each, to the same verdict). The `fingerprint.ac.*` counters are
/// recorded once, with the totals matching every record on its own would
/// have recorded.
pub fn passive_candidates(
    db: &SignatureDb,
    results: &ScanResults,
) -> Vec<(Ipv4Addr, u16, WildHoneypot)> {
    let mut verdicts: FastMap<(usize, usize), (Option<WildHoneypot>, u64)> = FastMap::default();
    let (mut bytes, mut matches) = (0u64, 0u64);
    let candidates: Vec<_> = results
        .records
        .iter()
        .filter_map(|r| {
            let raw = r.raw();
            let (family, hits) = *verdicts
                .entry((raw.as_ptr() as usize, raw.len()))
                .or_insert_with(|| db.match_quietly(raw));
            bytes += raw.len() as u64;
            matches += hits;
            family.map(|family| (r.addr, r.port, family))
        })
        .collect();
    crate::signatures::count_scanned(results.records.len() as u64, bytes, matches);
    for &(_, _, family) in &candidates {
        ofh_obs::count_l("fingerprint.passive.candidate", family.name(), 1);
    }
    candidates
}

#[derive(Debug)]
struct ProbeState {
    addr: Ipv4Addr,
    port: u16,
    family: WildHoneypot,
    /// Response chunks per probe round (banner, reply 1, reply 2).
    rounds: Vec<Vec<u8>>,
    sent: u8,
    /// 0 for the first connect, 1 for the single allowed retry.
    attempt: u8,
    established: bool,
}

/// The active-stage prober agent: connects to every candidate, sends two
/// junk probes, and compares responses.
pub struct FingerprintProber {
    pub report: FingerprintReport,
    queue: Vec<(Ipv4Addr, u16, WildHoneypot)>,
    states: HashMap<ConnToken, ProbeState>,
    /// Candidates whose first attempt the network cut short, parked until
    /// their retry timer fires.
    retries: HashMap<u64, (Ipv4Addr, u16, WildHoneypot)>,
    next_retry_id: u64,
    batch: usize,
    outstanding: usize,
}

const JUNK_PROBE: &[u8] = b"zxcv-fingerprint-probe\n";
const ROUND_GAP: SimDuration = SimDuration::from_millis(1_200);
const TICK: u64 = u64::MAX; // timer token for the dispatch tick
const RETRY_BIT: u64 = 1 << 62; // retry timer tokens (conn ids stay far below)
const RETRY_DELAY: SimDuration = SimDuration::from_millis(2_000);

impl FingerprintProber {
    pub fn new(candidates: Vec<(Ipv4Addr, u16, WildHoneypot)>) -> FingerprintProber {
        FingerprintProber {
            report: FingerprintReport::default(),
            queue: candidates,
            states: HashMap::new(),
            retries: HashMap::new(),
            next_retry_id: 0,
            batch: 512,
            outstanding: 0,
        }
    }

    /// Probe states plus parked retries — zero once the run has drained.
    pub fn leaked_state(&self) -> u64 {
        (self.states.len() + self.retries.len()) as u64
    }

    /// Conservative end-time estimate for `n` candidates.
    pub fn estimated_duration(n: usize) -> SimDuration {
        let rounds = (n / 512 + 2) as u64;
        SimDuration::from_millis(rounds * 1_000) + ROUND_GAP.mul(4) + SimDuration::from_secs(30)
    }

    fn dispatch(&mut self, ctx: &mut NetCtx<'_>) {
        while self.outstanding < self.batch {
            let Some((addr, port, family)) = self.queue.pop() else {
                return;
            };
            self.connect(ctx, addr, port, family, 0);
        }
    }

    fn connect(
        &mut self,
        ctx: &mut NetCtx<'_>,
        addr: Ipv4Addr,
        port: u16,
        family: WildHoneypot,
        attempt: u8,
    ) {
        let conn = ctx.tcp_connect(SockAddr::new(addr, port));
        self.states.insert(
            conn,
            ProbeState {
                addr,
                port,
                family,
                rounds: vec![Vec::new()],
                sent: 0,
                attempt,
                established: false,
            },
        );
        self.outstanding += 1;
    }

    /// A connect or in-flight probe failed. First attempts get one retry
    /// after a short deterministic backoff (staggered per candidate so a
    /// burst of failures doesn't reconnect as a thundering herd); a failed
    /// retry concludes with whatever rounds were gathered.
    fn probe_failed(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let attempt = match self.states.get(&conn) {
            Some(st) => st.attempt,
            None => return,
        };
        if attempt > 0 {
            self.conclude(ctx.now(), conn);
            return;
        }
        let st = self.states.remove(&conn).expect("state checked above");
        self.outstanding = self.outstanding.saturating_sub(1);
        let id = self.next_retry_id;
        self.next_retry_id += 1;
        self.retries.insert(id, (st.addr, st.port, st.family));
        let stagger = SimDuration::from_millis(id.wrapping_mul(137) % 700);
        ctx.set_timer(RETRY_DELAY + stagger, RETRY_BIT | id);
    }

    fn conclude(&mut self, now: ofh_net::SimTime, conn: ConnToken) {
        let Some(st) = self.states.remove(&conn) else {
            return;
        };
        self.outstanding = self.outstanding.saturating_sub(1);
        if st.attempt > 0 && st.established {
            self.report.retries_recovered += 1;
        }
        // Verdict: both junk probes answered, answers identical, and the
        // static banner (with the signature) keeps being replayed.
        let confirmed = st.rounds.len() >= 3
            && !st.rounds[1].is_empty()
            && st.rounds[1] == st.rounds[2]
            && !st.rounds[1]
                .windows(JUNK_PROBE.len() - 1)
                .any(|w| w == &JUNK_PROBE[..JUNK_PROBE.len() - 1]);
        let verdict = if confirmed { "fingerprint.detected" } else { "fingerprint.rejected" };
        ofh_obs::count_l(verdict, st.family.name(), 1);
        ofh_obs::span(
            "fingerprint.match",
            st.family.name(),
            now.0,
            now.0,
            0,
            u32::from(st.addr),
            st.port,
            st.rounds.iter().map(|r| r.len() as u32).sum(),
        );
        if confirmed {
            self.report.detections.push(Detection {
                addr: st.addr,
                port: st.port,
                family: st.family,
            });
        } else {
            self.report.rejected.push((st.addr, st.port));
        }
    }
}

impl Agent for FingerprintProber {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), TICK);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        if token == TICK {
            self.dispatch(ctx);
            if !self.queue.is_empty() || self.outstanding > 0 {
                ctx.set_timer(SimDuration::from_secs(1), TICK);
            }
            return;
        }
        if token & RETRY_BIT != 0 {
            let Some((addr, port, family)) = self.retries.remove(&(token & !RETRY_BIT)) else {
                return;
            };
            self.report.retries_issued += 1;
            self.connect(ctx, addr, port, family, 1);
            return;
        }
        // Per-connection round deadline.
        let conn = ConnToken(token);
        let Some(st) = self.states.get_mut(&conn) else {
            return;
        };
        if st.sent < 2 {
            st.sent += 1;
            st.rounds.push(Vec::new());
            ctx.tcp_send(conn, JUNK_PROBE.to_vec());
            ctx.set_timer(ROUND_GAP, conn.0);
        } else {
            ctx.tcp_close(conn);
            self.conclude(ctx.now(), conn);
        }
    }

    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        if let Some(st) = self.states.get_mut(&conn) {
            st.established = true;
            ctx.set_timer(ROUND_GAP, conn.0);
        }
    }

    fn on_tcp_data(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        if let Some(st) = self.states.get_mut(&conn) {
            st.rounds.last_mut().expect("round open").extend_from_slice(data);
        }
    }

    fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.probe_failed(ctx, conn);
    }

    fn on_tcp_timeout(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.probe_failed(ctx, conn);
    }

    fn on_tcp_reset(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.probe_failed(ctx, conn);
    }

    fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.conclude(ctx.now(), conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_devices::endpoints::TelnetDevice;
    use ofh_devices::Misconfig;
    use ofh_honeypots::WildHoneypotAgent;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    /// A malicious "real device" whose banner *contains* the Anglerfish
    /// signature but which otherwise behaves like a shell — the active stage
    /// must reject it.
    fn impostor() -> TelnetDevice {
        TelnetDevice::new("[root@LocalHost tmp]$ fake", Some(Misconfig::TelnetNoAuth), 23)
    }

    #[test]
    fn passive_then_active_distinguishes() {
        let mut net = SimNet::new(SimNetConfig::default());
        // A true wild Cowrie, a true Anglerfish, and an impostor device.
        net.attach(ip(16, 20, 0, 1), Box::new(WildHoneypotAgent::new(WildHoneypot::Cowrie)));
        net.attach(
            ip(16, 20, 0, 2),
            Box::new(WildHoneypotAgent::new(WildHoneypot::Anglerfish)),
        );
        net.attach(ip(16, 20, 0, 3), Box::new(impostor()));

        let candidates = vec![
            (ip(16, 20, 0, 1), 23, WildHoneypot::Cowrie),
            (ip(16, 20, 0, 2), 23, WildHoneypot::Anglerfish),
            (ip(16, 20, 0, 3), 23, WildHoneypot::Anglerfish), // passive hit
        ];
        let pid = net.attach(
            ip(16, 3, 0, 9),
            Box::new(FingerprintProber::new(candidates)),
        );
        net.run_until(SimTime::ZERO + FingerprintProber::estimated_duration(3));
        let report = &net.agent_downcast::<FingerprintProber>(pid).unwrap().report;
        let counts = report.counts();
        assert_eq!(counts.get(&WildHoneypot::Cowrie), Some(&1));
        assert_eq!(counts.get(&WildHoneypot::Anglerfish), Some(&1));
        assert_eq!(report.total(), 2);
        assert!(report.rejected.contains(&(ip(16, 20, 0, 3), 23)));
        assert!(report.filter_set().contains(&ip(16, 20, 0, 1)));
        assert!(!report.filter_set().contains(&ip(16, 20, 0, 3)));
    }

    #[test]
    fn outage_cut_recheck_recovers_on_retry() {
        use ofh_net::{FaultPhase, FaultPlan, FaultSchedule};
        // A total blackout covers the first connect attempt (the SYN dies,
        // the 3 s connect timeout fires inside the window); the single retry
        // lands after the outage lifts and completes the re-check.
        let mut net = SimNet::new(SimNetConfig {
            faults: FaultSchedule {
                phases: vec![FaultPhase {
                    name: "boot-outage".into(),
                    from_ms: Some(0),
                    to_ms: Some(4_000),
                    plan: FaultPlan {
                        drop_chance: 1.0,
                        ..FaultPlan::NONE
                    },
                    ..FaultPhase::default()
                }],
            },
            ..SimNetConfig::default()
        });
        net.attach(ip(16, 20, 0, 1), Box::new(WildHoneypotAgent::new(WildHoneypot::Cowrie)));
        let pid = net.attach(
            ip(16, 3, 0, 9),
            Box::new(FingerprintProber::new(vec![(
                ip(16, 20, 0, 1),
                23,
                WildHoneypot::Cowrie,
            )])),
        );
        net.run_until(SimTime::ZERO + FingerprintProber::estimated_duration(1));
        let prober = net.agent_downcast::<FingerprintProber>(pid).unwrap();
        assert_eq!(prober.report.total(), 1, "retry should complete the re-check");
        assert_eq!(prober.report.retries_issued, 1);
        assert_eq!(prober.report.retries_recovered, 1);
        assert_eq!(prober.leaked_state(), 0);
    }

    #[test]
    fn vanished_candidates_are_rejected_not_detected() {
        let mut net = SimNet::new(SimNetConfig::default());
        let candidates = vec![(ip(16, 20, 0, 99), 23, WildHoneypot::Kako)];
        let pid = net.attach(
            ip(16, 3, 0, 9),
            Box::new(FingerprintProber::new(candidates)),
        );
        net.run_until(SimTime::ZERO + FingerprintProber::estimated_duration(1));
        let report = &net.agent_downcast::<FingerprintProber>(pid).unwrap().report;
        assert_eq!(report.total(), 0);
        assert_eq!(report.rejected.len(), 1);
    }
}
