//! Security analysis for the Kite reproduction (§5.1, Figures 1, 4, 5,
//! Table 3).
//!
//! * [`gadgets`] — an x86-64 gadget scanner (decoder + Ropper-style
//!   backward walk) run once over real machine code, scaled to each OS's
//!   text size;
//! * [`cves`] — the CVE database with the paper's syscall-based mitigation
//!   methodology;
//! * [`surface`] — the combined Figure 4 attack-surface report.

#![forbid(unsafe_code)]

pub mod cves;
pub mod gadgets;
pub mod surface;

pub use cves::{
    driver_cves_by_year, environment_cves, table3_cves, AttackVector, Cve, DomainSurface,
};
pub use gadgets::{analyze, figure5_profiles, Category, GadgetCounts, OsImageProfile};
pub use surface::{surface_report, SurfaceRow};
