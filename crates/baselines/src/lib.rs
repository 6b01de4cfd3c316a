//! # ipt-baselines — CPU comparators for the Table 3 / Figure 9 study
//!
//! Real multi-threaded host implementations (measured wall-clock, not
//! simulated):
//!
//! * [`gkk`] — Gustavson/Karlsson parallel in-place 4-stage transposition
//!   with greedy cycle assignment and a-priori long-cycle splitting,
//! * [`mkl_like`] — parallel blocked out-of-place (the `mkl_somatcopy`
//!   role),
//! * [`seq`] — sequential in-place (the `mkl_simatcopy` role) and naive
//!   out-of-place,
//! * [`pipt`] — one-task-per-cycle P-IPT.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

pub mod gkk;
pub mod mkl_like;
pub mod pipt;
pub mod seq;

pub use gkk::{plan_segments, shift_segmented, transpose_in_place_gkk, transpose_oop_gkk, Segment};
pub use mkl_like::transpose_oop_par;
pub use pipt::transpose_in_place_pipt;
pub use seq::{transpose_in_place_seq, transpose_oop_seq};
