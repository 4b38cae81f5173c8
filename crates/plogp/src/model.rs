//! The pLogP parameter set and point-to-point cost model.

use crate::{ContentHasher, GapFunction, MessageSize, PLogPError, Time};
use serde::{Deserialize, Serialize};

/// Full pLogP parameter set describing one directed link (or one homogeneous
/// cluster interconnect).
///
/// The broadcast-scheduling paper only needs `L` and `g(m)` — the makespan of a
/// wide-area transfer is modelled as `RT_i + g_{i,j}(m) + L_{i,j}` — but the send
/// and receive overheads are kept because the intra-cluster collective models
/// (binomial trees, pipelines) and the discrete-event simulator use them to decide
/// when a sender's CPU becomes free as opposed to when the wire becomes free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PLogP {
    /// End-to-end latency `L`.
    pub latency: Time,
    /// Gap function `g(m)`.
    pub gap: GapFunction,
    /// Send overhead `os(m)` as a fraction of the gap (pLogP measures it per
    /// message size; we model it as `os_fraction · g(m)` which matches the
    /// empirical observation that overheads scale with the per-message cost).
    pub os_fraction: f64,
    /// Receive overhead `or(m)` as a fraction of the gap.
    pub or_fraction: f64,
}

/// The cost decomposition of a single point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointToPoint {
    /// Time the sender is busy (cannot start another send): `g(m)`.
    pub sender_busy: Time,
    /// Time until the receiver holds the full message: `L + g(m)`.
    pub completion: Time,
    /// CPU time consumed at the sender: `os(m)`.
    pub send_overhead: Time,
    /// CPU time consumed at the receiver: `or(m)`.
    pub recv_overhead: Time,
}

impl PLogP {
    /// Creates a parameter set with an affine gap `g(m) = g0 + m/bandwidth` and
    /// default overhead fractions.
    pub fn affine(latency: Time, g0: Time, bandwidth: f64) -> Self {
        PLogP {
            latency,
            gap: GapFunction::affine(g0, bandwidth),
            os_fraction: DEFAULT_OS_FRACTION,
            or_fraction: DEFAULT_OR_FRACTION,
        }
    }

    /// Creates a parameter set with a constant (size-independent) gap, the form
    /// used by the paper's Monte-Carlo simulations where `L` and `g` are drawn
    /// directly from Table 2 for the fixed 1 MB payload.
    pub fn constant(latency: Time, gap: Time) -> Self {
        PLogP {
            latency,
            gap: GapFunction::constant(gap),
            os_fraction: DEFAULT_OS_FRACTION,
            or_fraction: DEFAULT_OR_FRACTION,
        }
    }

    /// Creates a parameter set from measured gap samples.
    pub fn from_samples(
        latency: Time,
        samples: Vec<crate::gap::GapSample>,
    ) -> Result<Self, PLogPError> {
        if latency < Time::ZERO {
            return Err(PLogPError::NegativeTime {
                parameter: "latency",
            });
        }
        Ok(PLogP {
            latency,
            gap: GapFunction::from_samples(samples)?,
            os_fraction: DEFAULT_OS_FRACTION,
            or_fraction: DEFAULT_OR_FRACTION,
        })
    }

    /// Overrides the overhead fractions (both must be within `[0, 1]`).
    pub fn with_overheads(mut self, os_fraction: f64, or_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&os_fraction),
            "os fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&or_fraction),
            "or fraction out of range"
        );
        self.os_fraction = os_fraction;
        self.or_fraction = or_fraction;
        self
    }

    /// The gap `g(m)` for a message of `m` bytes.
    #[inline]
    pub fn gap(&self, m: MessageSize) -> Time {
        self.gap.gap(m)
    }

    /// The latency `L`.
    #[inline]
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Send overhead `os(m)`.
    #[inline]
    pub fn send_overhead(&self, m: MessageSize) -> Time {
        self.gap(m) * self.os_fraction
    }

    /// Receive overhead `or(m)`.
    #[inline]
    pub fn recv_overhead(&self, m: MessageSize) -> Time {
        self.gap(m) * self.or_fraction
    }

    /// The completion time of a single message of size `m` over this link:
    /// `L + g(m)`, exactly the term used by every heuristic in the paper.
    #[inline]
    pub fn point_to_point(&self, m: MessageSize) -> Time {
        self.latency + self.gap(m)
    }

    /// Full cost decomposition for one message.
    pub fn decompose(&self, m: MessageSize) -> PointToPoint {
        let g = self.gap(m);
        PointToPoint {
            sender_busy: g,
            completion: self.latency + g,
            send_overhead: g * self.os_fraction,
            recv_overhead: g * self.or_fraction,
        }
    }

    /// Completion time of `k` back-to-back messages of size `m` from the same
    /// sender to (possibly) different receivers: the last message completes at
    /// `k·g(m) + L`. This is the flat-tree building block.
    pub fn sequential_sends(&self, m: MessageSize, k: u32) -> Time {
        if k == 0 {
            return Time::ZERO;
        }
        self.gap(m) * k + self.latency
    }

    /// Absorbs the full parameter set into a content digest: latency bits, the
    /// (variant-tagged) gap function, and both overhead fractions. Two links
    /// digest equal iff every parameter is bit-identical.
    pub fn digest_into(&self, h: &mut ContentHasher) {
        h.write_f64(self.latency.as_secs());
        self.gap.digest_into(h);
        h.write_f64(self.os_fraction).write_f64(self.or_fraction);
    }

    /// This link with its gap scaled by `factor` (latency and overhead
    /// fractions unchanged): `g(m)` becomes `factor · g(m)` for every `m`.
    /// This is the "degraded uplink" / "scaled link capacity" perturbation of
    /// the what-if simulations — capacity degradation shows up in the
    /// per-message cost, while propagation delay stays put.
    pub fn with_scaled_gap(&self, factor: f64) -> PLogP {
        PLogP {
            latency: self.latency,
            gap: self.gap.scaled(factor),
            os_fraction: self.os_fraction,
            or_fraction: self.or_fraction,
        }
    }
}

/// Default send-overhead fraction of the gap (empirically ~30 % for TCP stacks in
/// the pLogP measurement papers).
pub const DEFAULT_OS_FRACTION: f64 = 0.3;
/// Default receive-overhead fraction of the gap.
pub const DEFAULT_OR_FRACTION: f64 = 0.3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::GapSample;

    #[test]
    fn point_to_point_is_latency_plus_gap() {
        let p = PLogP::constant(Time::from_millis(10.0), Time::from_millis(300.0));
        assert_eq!(
            p.point_to_point(MessageSize::from_mib(1)),
            Time::from_millis(310.0)
        );
    }

    #[test]
    fn sequential_sends_accumulate_gap_only_once_latency() {
        let p = PLogP::constant(Time::from_millis(5.0), Time::from_millis(100.0));
        let m = MessageSize::from_mib(1);
        assert_eq!(p.sequential_sends(m, 0), Time::ZERO);
        let eps = Time::from_micros(0.001);
        assert!(p
            .sequential_sends(m, 1)
            .approx_eq(Time::from_millis(105.0), eps));
        assert!(p
            .sequential_sends(m, 4)
            .approx_eq(Time::from_millis(405.0), eps));
    }

    #[test]
    fn overhead_fractions_apply() {
        let p = PLogP::constant(Time::from_millis(1.0), Time::from_millis(100.0))
            .with_overheads(0.5, 0.25);
        let m = MessageSize::from_mib(1);
        assert_eq!(p.send_overhead(m), Time::from_millis(50.0));
        assert_eq!(p.recv_overhead(m), Time::from_millis(25.0));
        let d = p.decompose(m);
        assert_eq!(d.sender_busy, Time::from_millis(100.0));
        assert_eq!(d.completion, Time::from_millis(101.0));
        assert_eq!(d.send_overhead, Time::from_millis(50.0));
        assert_eq!(d.recv_overhead, Time::from_millis(25.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overhead_fraction_validation() {
        let _ = PLogP::constant(Time::ZERO, Time::ZERO).with_overheads(1.5, 0.0);
    }

    #[test]
    fn from_samples_validates_latency_and_table() {
        let err = PLogP::from_samples(Time::from_millis(-1.0), vec![]);
        assert_eq!(
            err,
            Err(PLogPError::NegativeTime {
                parameter: "latency"
            })
        );
        let ok = PLogP::from_samples(
            Time::from_millis(2.0),
            vec![
                GapSample {
                    size: MessageSize::from_kib(1),
                    gap: Time::from_micros(80.0),
                },
                GapSample {
                    size: MessageSize::from_mib(1),
                    gap: Time::from_millis(12.0),
                },
            ],
        )
        .unwrap();
        // 1 KiB uses the first sample, 1 MiB the second.
        assert_eq!(ok.gap(MessageSize::from_kib(1)), Time::from_micros(80.0));
        assert_eq!(ok.gap(MessageSize::from_mib(1)), Time::from_millis(12.0));
        assert!(ok.point_to_point(MessageSize::from_mib(1)) > Time::from_millis(12.0));
    }

    #[test]
    fn affine_model_matches_manual_computation() {
        // 100 MB/s link, 1 ms latency, 10 µs fixed gap.
        let p = PLogP::affine(Time::from_millis(1.0), Time::from_micros(10.0), 100e6);
        let m = MessageSize::from_bytes(1_000_000);
        let expected_gap_s = 10e-6 + 1_000_000.0 / 100e6;
        assert!((p.gap(m).as_secs() - expected_gap_s).abs() < 1e-12);
        assert!((p.point_to_point(m).as_secs() - (expected_gap_s + 1e-3)).abs() < 1e-12);
    }
}
