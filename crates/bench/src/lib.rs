//! The evaluation harness: regenerates every table and figure of the
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! Each experiment is a library function returning structured results,
//! wrapped by a thin binary (`src/bin/*.rs`) that prints the paper's
//! rows/series. The timed gates are the BENCH bins ([`harness`]), whose
//! reports are checked in as `BENCH_<bin>.json`.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 1 (event-distance CDF) | [`fig1`] | `fig1_event_distance` |
//! | Fig. 3 (K9 power trace) | [`k9`] | `fig3_k9_power_trace` |
//! | Figs. 7/8 + Table II (K9 diagnosis) | [`k9`] | `tab2_k9_events` |
//! | Table III (fleet) | [`tab3`] | `tab3_fleet` |
//! | §IV-B comparison (No-sleep, eDelta) | [`comparison`] | `tab_comparison` |
//! | Figs. 9/10 + Table IV (OpenGPS) | [`casestudy`] | `fig9_opengps` |
//! | Figs. 11/14 (power breakdowns) | [`casestudy`] | `fig11_breakdown` |
//! | Figs. 12/13 + Table V (Wallabag) | [`casestudy`] | `fig12_wallabag` |
//! | Fig. 15 + Table VI (Tinfoil) | [`casestudy`] | `fig15_tinfoil` |
//! | Fig. 16 (code reduction vs CheckAll) | [`comparison`] | `fig16_code_reduction` |
//! | Fig. 17 (power before/after fix) | [`fig17`] | `fig17_power_reduction` |
//! | §IV-F overheads | [`overhead`] | `overhead` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod casestudy;
pub mod comparison;
pub mod fig1;
pub mod fig17;
pub mod fleetscale;
pub mod harness;
pub mod k9;
pub mod overhead;
pub mod render;
pub mod run;
pub mod scaling;
pub mod tab3;
