//! # ofh-core (`openforhire`) — the full-study orchestrator
//!
//! The public API of the reproduction. A [`Study`] wires every subsystem
//! together and executes the paper's methodology end to end on one
//! deterministic simulated Internet:
//!
//! 1. **Population** — synthesize the IoT device population (Tables 4/5/10
//!    marginals) and the wild-honeypot population (Table 6);
//! 2. **Scan** (March 1–5, Table 9) — ZMap-style sweeps of six protocols,
//!    plus the Project Sonar and Shodan dataset providers;
//! 3. **Fingerprint** — passive signature matching + active static-response
//!    probes; filter detected honeypots from the scan results;
//! 4. **Honeypot month** (April) — six deployed honeypots face the attack
//!    population: botnets, scanning services, DoS, poisoning, multistage,
//!    infected devices;
//! 5. **Telescope** — the dark-space tap records FlowTuples all along;
//! 6. **Analysis** — every table/figure is computed from the measured
//!    datasets and threat-intel oracles.
//!
//! ```no_run
//! use ofh_core::{Study, StudyConfig};
//!
//! let report = Study::new(StudyConfig::quick(7)).run();
//! println!("{}", report.render_summary());
//! ```

pub mod config;
pub mod oracles;
pub mod report;
pub mod study;

pub use config::{faults_from_arg, PopulationMode, StudyConfig};
pub use report::{ResilienceReport, StudyReport};
pub use study::Study;

// Re-export the observability layer (the `--metrics-out` / `--trace-out`
// machinery) alongside the component crates.
pub use ofh_obs as obs;

// Re-export the component crates under one roof for downstream users.
pub use ofh_analysis as analysis;
pub use ofh_attack as attack;
pub use ofh_devices as devices;
pub use ofh_fingerprint as fingerprint;
pub use ofh_honeypots as honeypots;
pub use ofh_intel as intel;
pub use ofh_net as net;
pub use ofh_scan as scan;
pub use ofh_telescope as telescope;
pub use ofh_wire as wire;
