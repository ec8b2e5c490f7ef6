//! The concurrent query layer.
//!
//! [`StoreReader`] opens a segment file through one shared read-only
//! mapping and parses the metadata (TOC, dictionaries, zone maps, restart
//! directories) once, checking every dictionary code against its
//! dictionary; it is `Send + Sync`, so an `Arc<StoreReader>` fans
//! out across any number of query threads with zero per-thread state and
//! zero row copies — predicates run directly against the mapped bytes.
//!
//! Predicate pushdown: equality predicates on dictionary columns resolve
//! to bitmap AND + popcount (no row decode at all), point lookups on
//! zoned `U32` columns touch only blocks whose `[min, max]` admits the
//! value, and time-range scans over `T64` columns skip to the first
//! candidate restart block. A query that mentions a label the store never
//! saw short-circuits to zero without touching row data.
//!
//! [`QueryEngine`] adds a small LRU answer cache (answers are pure
//! functions of the store, so caching is transparent) behind a mutex —
//! the mutex guards only the cache; concurrent readers never serialize on
//! the scan path itself.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::bytes::{FormatError, Result};
use crate::column::DictView;
use crate::mmap::Mmap;
use crate::segment::{SegmentView, TableView};

/// A query against the store. `Ord` + a total field order make queries
/// usable as deterministic cache keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Every scan record of one address, across all three sources.
    HostLookup { addr: Ipv4Addr },
    /// Scan records matching every given label (bitmap AND).
    CountScan {
        source: Option<String>,
        protocol: Option<String>,
        misconfig: Option<String>,
        country: Option<String>,
    },
    /// Attack events matching every given label (bitmap AND).
    CountEvents {
        honeypot: Option<String>,
        protocol: Option<String>,
        attack_type: Option<String>,
        class: Option<String>,
    },
    /// Attack events with `start_ms <= time < end_ms`, optionally
    /// restricted to one honeypot.
    EventsInRange {
        start_ms: u64,
        end_ms: u64,
        honeypot: Option<String>,
    },
    /// Telescope flows matching every given label (bitmap AND).
    CountTelescope {
        protocol: Option<String>,
        country: Option<String>,
    },
    /// Re-render a study table (4, 5 or 7) from the store.
    Table(u8),
    /// Store layout and provenance summary.
    Info,
}

/// One scan record, decoded for a point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostHit {
    pub source: String,
    pub addr: Ipv4Addr,
    pub port: u16,
    pub protocol: String,
    pub misconfig: Option<String>,
    pub device: Option<String>,
    pub country: String,
    pub asn: Option<u32>,
    pub hp_filtered: bool,
}

/// A query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Hosts(Vec<HostHit>),
    Count(u64),
    Rendered(String),
}

impl Answer {
    /// Human-readable form (what the CLI prints).
    pub fn render(&self) -> String {
        match self {
            Answer::Count(n) => n.to_string(),
            Answer::Rendered(s) => s.clone(),
            Answer::Hosts(hits) if hits.is_empty() => "no records".to_string(),
            Answer::Hosts(hits) => {
                let mut out = String::new();
                for h in hits {
                    out.push_str(&format!(
                        "{src}: {addr}:{port} {proto} misconfig={mc} device={dev} country={cc} asn={asn} honeypot_filtered={hp}\n",
                        src = h.source,
                        addr = h.addr,
                        port = h.port,
                        proto = h.protocol,
                        mc = h.misconfig.as_deref().unwrap_or("-"),
                        dev = h.device.as_deref().unwrap_or("-"),
                        cc = h.country,
                        asn = h.asn.map(|a| a.to_string()).unwrap_or_else(|| "-".into()),
                        hp = h.hp_filtered,
                    ));
                }
                out
            }
        }
    }
}

/// The open store: one shared mapping plus parsed metadata.
pub struct StoreReader {
    map: Mmap,
    seg: SegmentView,
}

impl StoreReader {
    pub fn open(path: &Path) -> io::Result<StoreReader> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let seg = SegmentView::parse(&map)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(StoreReader { map, seg })
    }

    /// Parse an in-memory segment (tests; no file round-trip).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<StoreReader> {
        let map = Mmap::Owned(bytes);
        let seg = SegmentView::parse(&map)?;
        Ok(StoreReader { map, seg })
    }

    /// The raw mapped bytes (pair with column views to read rows).
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// Whether the file is served by a real kernel mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    pub fn table(&self, name: &str) -> Result<&TableView> {
        self.seg.table(name)
    }

    /// A `meta` table value ("seed", "shards", "format").
    pub fn meta(&self, key: &str) -> Option<&str> {
        let t = self.seg.table("meta").ok()?;
        let d = t.columns.get(key)?;
        match d {
            crate::segment::Column::Dict(v) => v.labels.first().map(String::as_str),
            _ => None,
        }
    }

    // -- executors ---------------------------------------------------------

    /// Resolve an optional label filter against a dictionary column:
    /// `Ok(None)` = no filter, `Ok(Some(code))` = filter by code,
    /// `Err(())` = label unknown to the store, the result is empty.
    fn resolve<'a>(
        filter: &Option<String>,
        dict: &'a DictView,
    ) -> std::result::Result<Option<(&'a DictView, u8)>, ()> {
        match filter {
            None => Ok(None),
            Some(label) => match dict.code_of(label) {
                Some(code) => Ok(Some((dict, code))),
                None => Err(()),
            },
        }
    }

    /// Rows of `table` whose dictionary columns carry every filter's label
    /// (`None` filters nothing). Every column must exist; a label missing
    /// from its column's dictionary matches no row.
    fn count_labels(&self, table: &str, specs: &[(&Option<String>, &str)]) -> Result<u64> {
        let t = self.table(table)?;
        let dicts: Vec<_> = specs
            .iter()
            .map(|(_, c)| t.dict(c))
            .collect::<Result<_>>()?;
        let mut filters = Vec::new();
        for ((f, _), d) in specs.iter().zip(dicts) {
            match Self::resolve(f, d) {
                Ok(Some(p)) => filters.push(p),
                Ok(None) => {}
                Err(()) => return Ok(0),
            }
        }
        Ok(self.count_filtered(t.rows, &filters))
    }

    /// Bitmap-AND count over any number of (dict, code) predicates.
    fn count_filtered(&self, rows: usize, filters: &[(&DictView, u8)]) -> u64 {
        match filters {
            [] => rows as u64,
            [(d, c)] => d.count(self.bytes(), *c),
            [(first, c0), rest @ ..] => {
                let file = self.bytes();
                let words = rows.div_ceil(64);
                let mut total = 0u64;
                for w in 0..words {
                    let mut acc = first.bitmap_word(file, *c0, w);
                    for (d, c) in rest {
                        acc &= d.bitmap_word(file, *c, w);
                    }
                    total += acc.count_ones() as u64;
                }
                total
            }
        }
    }

    pub fn host_lookup(&self, addr: Ipv4Addr) -> Result<Vec<HostHit>> {
        Ok(self.host_lookup_stats(addr)?.0)
    }

    /// [`StoreReader::host_lookup`] plus the zone-map prune count (rows in
    /// blocks the lookup never decoded). Deterministic for a given store.
    pub fn host_lookup_stats(&self, addr: Ipv4Addr) -> Result<(Vec<HostHit>, u64)> {
        let file = self.bytes();
        let t = self.table("scan")?;
        let addrs = t.u32("addr")?;
        let source = t.dict("source")?;
        let ports = t.u16("port")?;
        let protocol = t.dict("protocol")?;
        let misconfig = t.dict("misconfig")?;
        let device = t.dict("device")?;
        let country = t.dict("country")?;
        let asn1 = t.u32("asn1")?;
        let hp = t.bitset("hp_filtered")?;
        let none = |s: &str| {
            if s == crate::build::NONE_LABEL {
                None
            } else {
                Some(s.to_string())
            }
        };
        let mut hits = Vec::new();
        let pruned = addrs.for_each_eq(file, u32::from(addr), |row| {
            let a = asn1.get(file, row);
            hits.push(HostHit {
                source: source.label(file, row).to_string(),
                addr,
                port: ports.get(file, row),
                protocol: protocol.label(file, row).to_string(),
                misconfig: none(misconfig.label(file, row)),
                device: none(device.label(file, row)),
                country: country.label(file, row).to_string(),
                asn: if a == 0 { None } else { Some(a - 1) },
                hp_filtered: hp.get(file, row),
            });
        });
        Ok((hits, pruned))
    }

    pub fn count_scan(
        &self,
        source: &Option<String>,
        protocol: &Option<String>,
        misconfig: &Option<String>,
        country: &Option<String>,
    ) -> Result<u64> {
        self.count_labels(
            "scan",
            &[
                (source, "source"),
                (protocol, "protocol"),
                (misconfig, "misconfig"),
                (country, "country"),
            ],
        )
    }

    pub fn count_events(
        &self,
        honeypot: &Option<String>,
        protocol: &Option<String>,
        attack_type: &Option<String>,
        class: &Option<String>,
    ) -> Result<u64> {
        self.count_labels(
            "events",
            &[
                (honeypot, "honeypot"),
                (protocol, "protocol"),
                (attack_type, "attack_type"),
                (class, "src_class"),
            ],
        )
    }

    pub fn events_in_range(
        &self,
        start_ms: u64,
        end_ms: u64,
        honeypot: &Option<String>,
    ) -> Result<u64> {
        Ok(self.events_in_range_stats(start_ms, end_ms, honeypot)?.0)
    }

    /// [`StoreReader::events_in_range`] plus the restart-directory prune
    /// count (rows in blocks the range scan never decoded).
    pub fn events_in_range_stats(
        &self,
        start_ms: u64,
        end_ms: u64,
        honeypot: &Option<String>,
    ) -> Result<(u64, u64)> {
        let file = self.bytes();
        let t = self.table("events")?;
        let times = t.t64("time")?;
        let hp_dict = t.dict("honeypot")?;
        let hp = match Self::resolve(honeypot, hp_dict) {
            Ok(p) => p,
            Err(()) => return Ok((0, 0)),
        };
        let mut n = 0u64;
        let pruned = times.for_each_in_range(file, start_ms, end_ms, |row, _| {
            let keep = match hp {
                None => true,
                Some((d, c)) => d.code(file, row) == c,
            };
            if keep {
                n += 1;
            }
        })?;
        Ok((n, pruned))
    }

    pub fn count_telescope(
        &self,
        protocol: &Option<String>,
        country: &Option<String>,
    ) -> Result<u64> {
        self.count_labels("telescope", &[(protocol, "protocol"), (country, "country")])
    }

    pub fn info(&self) -> Result<String> {
        let mut out = String::new();
        out.push_str(&format!(
            "ofh_store segment ({} bytes, {})\n",
            self.bytes().len(),
            if self.is_mapped() { "mmap" } else { "owned" },
        ));
        for key in ["format", "seed", "shards", "preset"] {
            if let Some(v) = self.meta(key) {
                out.push_str(&format!("  {key}: {v}\n"));
            }
        }
        for (name, t) in &self.seg.tables {
            if name == "meta" {
                continue;
            }
            out.push_str(&format!("  table {name}: {} rows, columns:", t.rows));
            for col in t.columns.keys() {
                out.push_str(&format!(" {col}"));
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// Execute one query.
    pub fn execute(&self, q: &Query) -> Result<Answer> {
        Ok(self.execute_stats(q)?.0)
    }

    /// Execute one query, also returning the number of rows pruned by the
    /// zone map / restart directory (0 for bitmap and rendered queries,
    /// which never visit row blocks at all). The prune count is a pure
    /// function of the store and the query — it feeds the deterministic
    /// section of the engine's metrics snapshot.
    pub fn execute_stats(&self, q: &Query) -> Result<(Answer, u64)> {
        match q {
            Query::HostLookup { addr } => {
                let (hits, pruned) = self.host_lookup_stats(*addr)?;
                Ok((Answer::Hosts(hits), pruned))
            }
            Query::CountScan {
                source,
                protocol,
                misconfig,
                country,
            } => Ok((
                Answer::Count(self.count_scan(source, protocol, misconfig, country)?),
                0,
            )),
            Query::CountEvents {
                honeypot,
                protocol,
                attack_type,
                class,
            } => Ok((
                Answer::Count(self.count_events(honeypot, protocol, attack_type, class)?),
                0,
            )),
            Query::EventsInRange {
                start_ms,
                end_ms,
                honeypot,
            } => {
                let (n, pruned) = self.events_in_range_stats(*start_ms, *end_ms, honeypot)?;
                Ok((Answer::Count(n), pruned))
            }
            Query::CountTelescope { protocol, country } => {
                Ok((Answer::Count(self.count_telescope(protocol, country)?), 0))
            }
            Query::Table(4) => Ok((Answer::Rendered(crate::tables::table4(self)?.render()), 0)),
            Query::Table(5) => Ok((Answer::Rendered(crate::tables::table5(self)?.render()), 0)),
            Query::Table(7) => Ok((Answer::Rendered(crate::tables::table7(self)?.render()), 0)),
            Query::Table(n) => Err(FormatError(format!("table {n} is not stored (use 4, 5 or 7)"))),
            Query::Info => Ok((Answer::Rendered(self.info()?), 0)),
        }
    }
}

/// Default answer-cache capacity.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Query classes, in snapshot label order. Each [`Query`] variant maps to
/// exactly one class; per-class counters in the engine snapshot carry these
/// as labels (`store.query.executed{host}`, …).
pub const QUERY_CLASSES: [&str; 7] =
    ["host", "scan", "events", "range", "telescope", "table", "info"];

/// Index of a query's class in [`QUERY_CLASSES`].
fn class_index(q: &Query) -> usize {
    match q {
        Query::HostLookup { .. } => 0,
        Query::CountScan { .. } => 1,
        Query::CountEvents { .. } => 2,
        Query::EventsInRange { .. } => 3,
        Query::CountTelescope { .. } => 4,
        Query::Table(_) => 5,
        Query::Info => 6,
    }
}

/// Per-class instrumentation cells. `executed` and `rows_pruned` are
/// deterministic (functions of the query sequence and the store);
/// `latency_ns` is wall clock and therefore volatile.
#[derive(Debug, Default)]
struct ClassStats {
    executed: AtomicU64,
    rows_pruned: AtomicU64,
    latency_ns: ofh_obs::AtomicHistogram,
}

struct Lru {
    entries: BTreeMap<Query, (Answer, u64)>,
    stamp: u64,
    capacity: usize,
}

/// A [`StoreReader`] plus a small LRU answer cache. Cheap queries bypass
/// caching entirely (a bitmap count is faster than a map lookup is worth);
/// rendered tables — the expensive reconstructions — are cached.
///
/// The engine counts every query by class, accumulates zone-map /
/// restart-directory prune totals, and records wall-clock latency
/// histograms; [`QueryEngine::snapshot`] exports them as a
/// [`ofh_obs::MetricsSnapshot`] whose deterministic section depends only on
/// the query sequence and the store bytes — the regression sentinel's
/// contract.
pub struct QueryEngine {
    reader: std::sync::Arc<StoreReader>,
    cache: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    stats: [ClassStats; 7],
}

impl QueryEngine {
    pub fn new(reader: std::sync::Arc<StoreReader>) -> QueryEngine {
        Self::with_capacity(reader, DEFAULT_CACHE_CAPACITY)
    }

    pub fn with_capacity(reader: std::sync::Arc<StoreReader>, capacity: usize) -> QueryEngine {
        QueryEngine {
            reader,
            cache: Mutex::new(Lru {
                entries: BTreeMap::new(),
                stamp: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stats: Default::default(),
        }
    }

    pub fn reader(&self) -> &StoreReader {
        &self.reader
    }

    /// Whether answers to this query are worth caching.
    fn cacheable(q: &Query) -> bool {
        matches!(q, Query::Table(_) | Query::Info | Query::EventsInRange { .. })
    }

    pub fn query(&self, q: &Query) -> Result<Answer> {
        let started = std::time::Instant::now();
        let stats = &self.stats[class_index(q)];
        stats.executed.fetch_add(1, Ordering::Relaxed);
        let answer = self.query_uninstrumented(q, stats);
        // Wall clock only — never feeds the deterministic section.
        stats
            .latency_ns
            .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        answer
    }

    fn query_uninstrumented(&self, q: &Query, stats: &ClassStats) -> Result<Answer> {
        let run = |q: &Query| -> Result<Answer> {
            let (answer, pruned) = self.reader.execute_stats(q)?;
            stats.rows_pruned.fetch_add(pruned, Ordering::Relaxed);
            Ok(answer)
        };
        if !Self::cacheable(q) {
            return run(q);
        }
        {
            let mut cache = self.cache.lock().unwrap();
            cache.stamp += 1;
            let stamp = cache.stamp;
            if let Some((answer, at)) = cache.entries.get_mut(q) {
                *at = stamp;
                let answer = answer.clone();
                drop(cache);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(answer);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let answer = run(q)?;
        let mut cache = self.cache.lock().unwrap();
        cache.stamp += 1;
        let stamp = cache.stamp;
        if cache.entries.len() >= cache.capacity {
            // Evict the least-recently-used entry (deterministic: stamps
            // are unique under the lock).
            if let Some(victim) = cache
                .entries
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())
            {
                cache.entries.remove(&victim);
            }
        }
        cache.entries.insert(q.clone(), (answer.clone(), stamp));
        Ok(answer)
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Export the engine's instrumentation as a metrics snapshot.
    ///
    /// Deterministic section: `store.query.executed{class}`,
    /// `store.query.rows_pruned{class}` (all classes, zeros included, so the
    /// key set is stable), `store.query.cache_hits` and
    /// `store.query.cache_misses` — all pure functions of the query
    /// sequence and the store. Run identity (seed/shards/preset) comes from
    /// the store's own `meta` table. Volatile section: per-class wall-clock
    /// latency histograms under `host.latency` (`query.host`, …), in
    /// nanoseconds. `per_shard_events` is empty — there is no event loop
    /// behind an engine.
    pub fn snapshot(&self) -> ofh_obs::MetricsSnapshot {
        let meta_u64 = |key: &str| {
            self.reader
                .meta(key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let mut reg = ofh_obs::MetricRegistry::new();
        reg.count("store.query.cache_hits", "", self.hits.load(Ordering::Relaxed));
        reg.count("store.query.cache_misses", "", self.misses.load(Ordering::Relaxed));
        for (i, class) in QUERY_CLASSES.iter().enumerate() {
            reg.count("store.query.executed", class, self.stats[i].executed.load(Ordering::Relaxed));
            reg.count(
                "store.query.rows_pruned",
                class,
                self.stats[i].rows_pruned.load(Ordering::Relaxed),
            );
        }
        let mut snap = ofh_obs::MetricsSnapshot::from_registry(
            meta_u64("seed"),
            meta_u64("shards") as u32,
            self.reader.meta("preset").unwrap_or("unknown"),
            &reg,
            Vec::new(),
        );
        for (i, class) in QUERY_CLASSES.iter().enumerate() {
            let h = self.stats[i].latency_ns.snapshot();
            if h.count > 0 {
                snap.host.latency.insert(
                    format!("query.{class}"),
                    ofh_obs::HistogramSnapshot::from_histogram(&h),
                );
            }
        }
        snap
    }
}
