//! Gap functions `g(m)`.
//!
//! pLogP differs from plain LogP/LogGP by making the gap an arbitrary function of
//! the message size rather than a linear extrapolation, which lets the model
//! capture protocol switches (eager → rendezvous), TCP window effects and other
//! non-linearities that matter for collective operation tuning.
//!
//! Two representations are provided:
//!
//! * [`GapFunction::Affine`] — the classical `g(m) = g0 + m / bandwidth` form,
//!   convenient for synthetic topologies (Table 2 of the paper draws a single gap
//!   value per link for the 1 MB reference message), and
//! * [`GapFunction::Table`] — a piecewise-linear interpolation over measured
//!   sample points, matching how pLogP parameters are acquired in practice
//!   (a handful of message sizes are benchmarked and intermediate sizes are
//!   interpolated).

use crate::{ContentHasher, MessageSize, PLogPError, Time};
use serde::{Deserialize, Serialize};

/// A single measured (message size, gap) sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapSample {
    /// Message size at which the gap was measured.
    pub size: MessageSize,
    /// Measured gap for that size.
    pub gap: Time,
}

/// The per-message gap `g(m)` of a link, as a function of message size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GapFunction {
    /// `g(m) = g0 + m / bandwidth` with `bandwidth` in bytes/second.
    Affine {
        /// Fixed per-message cost (software stack traversal, packetisation).
        g0: Time,
        /// Sustained bandwidth in bytes per second.
        bandwidth: f64,
    },
    /// Piecewise-linear interpolation over strictly size-increasing samples.
    /// Sizes below the first sample reuse the first gap; sizes above the last
    /// sample are extrapolated with the slope of the final segment.
    Table {
        /// Measured samples, strictly increasing in message size.
        samples: Vec<GapSample>,
    },
    /// A constant gap independent of the message size. This is how the paper's
    /// Monte-Carlo simulation treats `g`: a single value drawn from Table 2 for
    /// the fixed 1 MB payload.
    Constant {
        /// The constant gap.
        gap: Time,
    },
}

impl GapFunction {
    /// Builds an affine gap function from a fixed cost and a bandwidth in bytes/s.
    pub fn affine(g0: Time, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        GapFunction::Affine { g0, bandwidth }
    }

    /// Builds a constant gap function.
    pub fn constant(gap: Time) -> Self {
        GapFunction::Constant { gap }
    }

    /// Builds a table-based gap function, validating the sample list.
    pub fn from_samples(samples: Vec<GapSample>) -> Result<Self, PLogPError> {
        if samples.is_empty() {
            return Err(PLogPError::EmptyGapTable);
        }
        for (i, window) in samples.windows(2).enumerate() {
            if window[1].size <= window[0].size {
                return Err(PLogPError::UnsortedGapTable { index: i + 1 });
            }
        }
        if let Some(neg) = samples.iter().find(|s| s.gap < Time::ZERO) {
            let _ = neg;
            return Err(PLogPError::NegativeTime { parameter: "gap" });
        }
        Ok(GapFunction::Table { samples })
    }

    /// Evaluates the gap for a message of size `m`.
    pub fn gap(&self, m: MessageSize) -> Time {
        match self {
            GapFunction::Affine { g0, bandwidth } => *g0 + Time::from_secs(m.as_f64() / bandwidth),
            GapFunction::Constant { gap } => *gap,
            GapFunction::Table { samples } => Self::interpolate(samples, m),
        }
    }

    fn interpolate(samples: &[GapSample], m: MessageSize) -> Time {
        debug_assert!(!samples.is_empty());
        let first = samples[0];
        let last = samples[samples.len() - 1];
        if m <= first.size {
            return first.gap;
        }
        if m >= last.size {
            if samples.len() == 1 {
                return last.gap;
            }
            // Extrapolate using the final segment's slope, clamped at zero.
            let prev = samples[samples.len() - 2];
            let slope = (last.gap - prev.gap).as_secs() / (last.size.as_f64() - prev.size.as_f64());
            let extra = (m.as_f64() - last.size.as_f64()) * slope;
            return (last.gap + Time::from_secs(extra)).clamp_non_negative();
        }
        // m lies strictly between two samples.
        let idx = samples.partition_point(|s| s.size < m);
        let hi = samples[idx];
        if hi.size == m {
            return hi.gap;
        }
        let lo = samples[idx - 1];
        let frac = (m.as_f64() - lo.size.as_f64()) / (hi.size.as_f64() - lo.size.as_f64());
        lo.gap + (hi.gap - lo.gap) * frac
    }

    /// The gap function with every per-message cost multiplied by `factor`
    /// (`factor > 1` = a slower link, `< 1` = a faster one): affine gaps scale
    /// `g0` and divide the bandwidth, tables scale every sample, constants
    /// scale the constant. `g(m)` of the result equals `factor · g(m)` of the
    /// original for every `m` — the "scaled link capacity" knob of the
    /// what-if perturbations.
    pub fn scaled(&self, factor: f64) -> GapFunction {
        assert!(
            factor.is_finite() && factor > 0.0,
            "gap scale factor must be positive and finite"
        );
        match self {
            GapFunction::Affine { g0, bandwidth } => GapFunction::Affine {
                g0: *g0 * factor,
                bandwidth: bandwidth / factor,
            },
            GapFunction::Constant { gap } => GapFunction::Constant { gap: *gap * factor },
            GapFunction::Table { samples } => GapFunction::Table {
                samples: samples
                    .iter()
                    .map(|s| GapSample {
                        size: s.size,
                        gap: s.gap * factor,
                    })
                    .collect(),
            },
        }
    }

    /// Absorbs this gap function into a content digest. The variant is tagged
    /// so an `Affine` and a `Constant` that happen to share parameter bits
    /// cannot collide, and table samples are length-prefixed.
    pub fn digest_into(&self, h: &mut ContentHasher) {
        match self {
            GapFunction::Affine { g0, bandwidth } => {
                h.write_u64(0).write_f64(g0.as_secs()).write_f64(*bandwidth);
            }
            GapFunction::Table { samples } => {
                h.write_u64(1).write_u64(samples.len() as u64);
                for s in samples {
                    h.write_u64(s.size.as_bytes()).write_f64(s.gap.as_secs());
                }
            }
            GapFunction::Constant { gap } => {
                h.write_u64(2).write_f64(gap.as_secs());
            }
        }
    }

    /// The effective bandwidth (bytes/second) implied by the gap at size `m`,
    /// i.e. `m / g(m)`. Returns `None` for the empty message or a zero gap.
    pub fn effective_bandwidth(&self, m: MessageSize) -> Option<f64> {
        let g = self.gap(m);
        if m == MessageSize::ZERO || g <= Time::ZERO {
            None
        } else {
            Some(m.as_f64() / g.as_secs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bytes: u64, gap_us: f64) -> GapSample {
        GapSample {
            size: MessageSize::from_bytes(bytes),
            gap: Time::from_micros(gap_us),
        }
    }

    #[test]
    fn affine_gap_grows_linearly_with_size() {
        let g = GapFunction::affine(Time::from_micros(50.0), 1e8); // 100 MB/s
        let small = g.gap(MessageSize::from_bytes(0));
        let large = g.gap(MessageSize::from_mib(1));
        assert_eq!(small, Time::from_micros(50.0));
        // 1 MiB at 100 MB/s is ~10.49 ms plus the 50 µs fixed cost.
        assert!((large.as_millis() - 10.5357).abs() < 0.01);
    }

    #[test]
    fn constant_gap_ignores_size() {
        let g = GapFunction::constant(Time::from_millis(250.0));
        assert_eq!(g.gap(MessageSize::ZERO), Time::from_millis(250.0));
        assert_eq!(g.gap(MessageSize::from_mib(4)), Time::from_millis(250.0));
    }

    #[test]
    fn table_rejects_bad_input() {
        assert_eq!(
            GapFunction::from_samples(vec![]),
            Err(PLogPError::EmptyGapTable)
        );
        let unsorted = vec![sample(1024, 10.0), sample(512, 5.0)];
        assert_eq!(
            GapFunction::from_samples(unsorted),
            Err(PLogPError::UnsortedGapTable { index: 1 })
        );
        let negative = vec![GapSample {
            size: MessageSize::from_bytes(64),
            gap: Time::from_micros(-1.0),
        }];
        assert_eq!(
            GapFunction::from_samples(negative),
            Err(PLogPError::NegativeTime { parameter: "gap" })
        );
    }

    #[test]
    fn table_interpolates_between_samples() {
        let g = GapFunction::from_samples(vec![
            sample(0, 10.0),
            sample(1000, 110.0),
            sample(3000, 210.0),
        ])
        .unwrap();
        // Exact sample points.
        assert_eq!(
            g.gap(MessageSize::from_bytes(1000)),
            Time::from_micros(110.0)
        );
        // Midpoint of the first segment.
        let mid = g.gap(MessageSize::from_bytes(500));
        assert!((mid.as_micros() - 60.0).abs() < 1e-9);
        // Midpoint of the second segment.
        let mid2 = g.gap(MessageSize::from_bytes(2000));
        assert!((mid2.as_micros() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn table_clamps_below_and_extrapolates_above() {
        let g = GapFunction::from_samples(vec![sample(100, 20.0), sample(200, 30.0)]).unwrap();
        assert_eq!(g.gap(MessageSize::from_bytes(10)), Time::from_micros(20.0));
        // Above the last point: slope is 0.1 µs/byte, so 300 B -> 40 µs.
        let above = g.gap(MessageSize::from_bytes(300));
        assert!((above.as_micros() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_table_is_constant() {
        let g = GapFunction::from_samples(vec![sample(1024, 55.0)]).unwrap();
        assert_eq!(g.gap(MessageSize::from_bytes(1)), Time::from_micros(55.0));
        assert_eq!(g.gap(MessageSize::from_mib(8)), Time::from_micros(55.0));
    }

    #[test]
    fn effective_bandwidth_is_size_over_gap() {
        let g = GapFunction::constant(Time::from_secs(1.0));
        let bw = g
            .effective_bandwidth(MessageSize::from_bytes(1_000_000))
            .unwrap();
        assert!((bw - 1_000_000.0).abs() < 1e-6);
        assert!(g.effective_bandwidth(MessageSize::ZERO).is_none());
    }
}
