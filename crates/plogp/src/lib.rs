//! # gridcast-plogp
//!
//! The **parameterised LogP** (pLogP) performance model used throughout the
//! `gridcast` workspace, following Kielmann et al. ("Fast measurement of LogP
//! parameters for message passing platforms") and its use in Barchet-Steffenel &
//! Mounié's broadcast scheduling paper.
//!
//! The model describes a point-to-point message of size `m` between two endpoints
//! with four parameters:
//!
//! * `L`      — end-to-end latency,
//! * `g(m)`   — the *gap* per message of size `m`: the minimum interval between
//!   consecutive message transmissions, i.e. the reciprocal of the effective
//!   bandwidth for that size,
//! * `os(m)`  — send overhead (CPU time the sender is busy),
//! * `or(m)`  — receive overhead (CPU time the receiver is busy).
//!
//! The completion time of a single message of size `m` is modelled, as in the
//! paper, by `L + g(m)`; a sender issuing `k` messages back-to-back is busy for
//! `k·g(m)` before it may do anything else.
//!
//! This crate provides:
//!
//! * [`Time`] — an ergonomic, totally-ordered time quantity (internally seconds),
//! * [`GapFunction`] — piecewise-linear gap functions over message size (plus the
//!   simpler affine `α + β·m` form),
//! * [`PLogP`] — a full per-link parameter set with cost helpers,
//! * [`measurement`] — a simulated reproduction of the RTT-saturation measurement
//!   procedure used to obtain pLogP parameters on a real platform,
//! * [`MessageSize`] — byte counts with convenience constructors,
//! * [`ContentHasher`] — a tiny word-wise content-digest hasher over IEEE-754
//!   bit patterns, the substrate of the grid/problem identity hashes the
//!   schedule cache keys on.
//!
//! ## Quick example
//!
//! ```
//! use gridcast_plogp::{PLogP, Time, MessageSize};
//!
//! // A wide-area link: 10 ms latency, 100 MB/s effective bandwidth, 50 µs fixed gap.
//! let link = PLogP::affine(Time::from_millis(10.0), Time::from_micros(50.0), 100e6);
//! let m = MessageSize::from_mib(1);
//! let t = link.point_to_point(m);
//! assert!(t > Time::from_millis(10.0));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod digest;
pub mod error;
pub mod gap;
pub mod measurement;
pub mod message;
pub mod model;
pub mod time;

pub use digest::ContentHasher;
pub use error::PLogPError;
pub use gap::GapFunction;
pub use measurement::{estimate_from_rtt, MeasurementConfig, MeasurementRun};
pub use message::MessageSize;
pub use model::{PLogP, PointToPoint};
pub use time::Time;
