//! # ofh-analysis — dataset joins and report generation
//!
//! Takes the raw datasets the other crates produce — scan results, honeypot
//! event logs, telescope FlowTuples, threat-intelligence oracles — and
//! computes every table and figure of the paper's evaluation. Nothing here
//! touches generation ground truth: classifications are re-derived from
//! banners, reverse lookups, rates, and oracle queries, exactly as the
//! paper's pipeline derives them.
//!
//! | module | produces |
//! |---|---|
//! | [`events`]     | merged honeypot dataset, source classification, attack typing |
//! | [`table4`]     | exposed systems per protocol × source |
//! | [`table5`]     | misconfigured devices per class (post honeypot-filter) |
//! | [`table7`]     | attack events per honeypot/protocol + source splits |
//! | [`table10`]    | misconfigured devices by country |
//! | [`table12`]    | top credentials observed |
//! | [`table13`]    | SHA-256 of captured malware |
//! | [`figures`]    | Figs. 2, 3, 4, 5, 6, 7, 8, 9 data series |
//! | [`infected`]   | the §5.3 joins (11,118 / Censys / domains) |
//! | [`render`]     | ASCII table/figure rendering |
//! | [`rows`]       | the typed rows Tables 4, 5 and 7 fold, live or from a store |

pub mod events;
pub mod figures;
pub mod infected;
pub mod render;
pub mod rows;
pub mod table10;
pub mod table12;
pub mod table13;
pub mod table4;
pub mod table5;
pub mod table7;

pub use events::{AttackDataset, AttackType, SourceClass};
pub use render::Table;
