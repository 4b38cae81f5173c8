//! What-if perturbations and the replay delta they induce on a commit log.
//!
//! A [`Perturbation`] describes one way a scenario's world deviates from the
//! baseline grid: scaled link capacities, a degraded site uplink, a single
//! degraded link, a whole site's uplinks degraded together, a time-varying
//! capacity window, an alternate root, a cluster dropped from relay duty.
//! The enum used to live in the simulator crate; it moved here so that
//! [`crate::ScheduleEngine::reschedule_perturbed`] can reason about
//! perturbations directly — the simulator re-exports it unchanged.
//!
//! Two consumers read a perturbation:
//!
//! * the **cold path** ([`Perturbation::apply`], [`Perturbation::patch`])
//!   materialises the perturbed grid — either as a fresh `map_links` copy or
//!   as an in-place patch of a reusable scratch grid, both bit-identical;
//! * the **warm path** ([`ReplayDelta::from_perturbations`]) extracts the
//!   *shape* of the change — which sender rows of the cost matrices are
//!   dirty, and whether every change can only worsen (grow) or only improve
//!   (shrink) link costs — which is what the engine's commit-log replay needs
//!   to decide how far a baseline schedule survives verbatim.

use gridcast_plogp::Time;
use gridcast_topology::{ClusterId, Grid};

/// Gap scale applied by [`Perturbation::DropRelay`] to a cluster's outgoing
/// links: large enough that no heuristic ever relays through the cluster
/// (every direct alternative is cheaper by orders of magnitude), finite so
/// the engine's no-NaN and no-∞-arithmetic invariants hold throughout.
pub const DROP_RELAY_FACTOR: f64 = 1e6;

/// One way a scenario deviates from the baseline grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Multiply every inter-cluster link's gap by `factor` (`> 1` = a slower
    /// grid, `< 1` = a faster one). Latencies are unchanged.
    ScaleAllLinks {
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Multiply the **outgoing** links of one cluster by `factor` — a
    /// degraded site uplink (the cluster still receives at full rate).
    DegradeUplink {
        /// The cluster whose uplink degrades.
        cluster: ClusterId,
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Multiply the gap of one **directed** link by `factor` — the finest
    /// perturbation grain, and the one the warm-start speedup gate measures.
    DegradeLink {
        /// Sending side of the degraded link.
        from: ClusterId,
        /// Receiving side of the degraded link.
        to: ClusterId,
        /// Gap multiplier, positive and finite.
        factor: f64,
    },
    /// Correlated multi-link degradation: the uplinks of `span` consecutive
    /// clusters starting at `first` all scale by the same `factor` — the
    /// "every cluster of a site shares the degraded WAN egress" scenario.
    /// Grid generators lay clusters of a site out contiguously, so a site is
    /// a cluster range.
    DegradeSite {
        /// First cluster of the site.
        first: ClusterId,
        /// Number of consecutive clusters forming the site (≥ 1).
        span: usize,
        /// Gap multiplier applied to every uplink of the site, positive and
        /// finite.
        factor: f64,
    },
    /// Time-varying capacity: the gap of one directed link scales by
    /// `factor` for transmissions **starting** inside `[from_time, until)`.
    ///
    /// The static pLogP model the prediction leg prices is unchanged — the
    /// window exists only at execution time, where the simulator lowers it
    /// onto the fault injector's capacity windows. A warm replay therefore
    /// sees a clean delta and replays the baseline log verbatim.
    TimeVaryingCapacity {
        /// Sending side of the affected link.
        from: ClusterId,
        /// Receiving side of the affected link.
        to: ClusterId,
        /// Gap multiplier inside the window, positive and finite.
        factor: f64,
        /// Start of the window (inclusive).
        from_time: Time,
        /// End of the window (exclusive).
        until: Time,
    },
    /// Root the broadcast at a different cluster.
    AlternateRoot {
        /// The replacement root.
        root: ClusterId,
    },
    /// Remove a cluster from relay duty: its outgoing links become
    /// [`DROP_RELAY_FACTOR`] times slower, so no gap-aware schedule forwards
    /// through it while it remains reachable at full rate. (FEF scores edges
    /// by latency alone and stays blind to the penalty by design — its
    /// what-if report then carries the inflated makespan, which is exactly
    /// the comparison the sweep exists to surface.)
    DropRelay {
        /// The cluster excluded from relaying.
        cluster: ClusterId,
    },
}

/// Which directed links a perturbation's gap scaling touches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkSelector {
    /// Every inter-cluster link.
    All,
    /// The outgoing links of `span` consecutive clusters starting at `first`.
    Rows { first: ClusterId, span: usize },
    /// One directed link.
    One { from: ClusterId, to: ClusterId },
}

impl LinkSelector {
    #[inline]
    fn matches(&self, from: ClusterId, to: ClusterId) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Rows { first, span } => {
                from.index() >= first.index() && from.index() < first.index() + span
            }
            LinkSelector::One { from: f, to: t } => from == f && to == t,
        }
    }
}

impl Perturbation {
    /// The gap scaling this perturbation performs on the static link model,
    /// if any (`AlternateRoot` moves the root and `TimeVaryingCapacity` only
    /// exists at execution time — neither touches the model).
    fn gap_scaling(&self) -> Option<(LinkSelector, f64)> {
        match *self {
            Perturbation::ScaleAllLinks { factor } => Some((LinkSelector::All, factor)),
            Perturbation::DegradeUplink { cluster, factor } => Some((
                LinkSelector::Rows {
                    first: cluster,
                    span: 1,
                },
                factor,
            )),
            Perturbation::DegradeLink { from, to, factor } => {
                Some((LinkSelector::One { from, to }, factor))
            }
            Perturbation::DegradeSite {
                first,
                span,
                factor,
            } => Some((LinkSelector::Rows { first, span }, factor)),
            Perturbation::DropRelay { cluster } => Some((
                LinkSelector::Rows {
                    first: cluster,
                    span: 1,
                },
                DROP_RELAY_FACTOR,
            )),
            Perturbation::TimeVaryingCapacity { .. } | Perturbation::AlternateRoot { .. } => None,
        }
    }

    /// Applies the perturbation cold: updates `root` in place and returns a
    /// freshly built grid when any link changed (`None` when the static link
    /// model is untouched). The caller chains perturbations left to right.
    pub fn apply(&self, base: &Grid, root: &mut ClusterId) -> Option<Grid> {
        if let Perturbation::AlternateRoot { root: r } = *self {
            *root = r;
            return None;
        }
        let (selector, factor) = self.gap_scaling()?;
        Some(base.map_links(|from, to, link| {
            if selector.matches(from, to) {
                link.with_scaled_gap(factor)
            } else {
                link.clone()
            }
        }))
    }

    /// Applies the perturbation's gap scaling to `scratch` **in place**,
    /// recording every patched directed link in `touched` so the caller can
    /// later restore the scratch grid from its baseline.
    ///
    /// Scaling the current link value (rather than the baseline's) keeps a
    /// chain of patches bit-identical to the cold path's chain of
    /// `map_links` copies: both evaluate `((g · f₁) · f₂) …` in perturbation
    /// order. Root moves and capacity windows patch nothing.
    pub fn patch(&self, scratch: &mut Grid, touched: &mut Vec<(ClusterId, ClusterId)>) {
        let Some((selector, factor)) = self.gap_scaling() else {
            return;
        };
        let n = scratch.num_clusters();
        let mut patch_one = |grid: &mut Grid, from: ClusterId, to: ClusterId| {
            let scaled = grid.link(from, to).with_scaled_gap(factor);
            grid.set_link(from, to, scaled);
            touched.push((from, to));
        };
        match selector {
            LinkSelector::One { from, to } => patch_one(scratch, from, to),
            LinkSelector::Rows { first, span } => {
                for i in first.index()..(first.index() + span).min(n) {
                    for j in 0..n {
                        if i != j {
                            patch_one(scratch, ClusterId(i), ClusterId(j));
                        }
                    }
                }
            }
            LinkSelector::All => {
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            patch_one(scratch, ClusterId(i), ClusterId(j));
                        }
                    }
                }
            }
        }
    }

    /// Whether this perturbation moves the broadcast root.
    pub fn moves_root(&self) -> bool {
        matches!(self, Perturbation::AlternateRoot { .. })
    }
}

/// The monotonicity of a delta's link-cost changes, as seen through the
/// engine's candidate order.
///
/// The warm replay can keep trusting a baseline commit log past the point
/// where changed state enters the sender set only when every change pushes
/// candidate tuples in one known direction; `Worsening` (every scaled gap
/// grew or stayed) is the direction the minimise-objective policies exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDirection {
    /// No static link changed at all.
    Unchanged,
    /// Every changed gap grew (factor ≥ 1) — costs only get worse.
    Worsening,
    /// Every changed gap shrank (factor ≤ 1) — costs only get better.
    Improving,
    /// Changes in both directions.
    Mixed,
}

impl DeltaDirection {
    fn join(self, other: DeltaDirection) -> DeltaDirection {
        use DeltaDirection::*;
        match (self, other) {
            (Unchanged, d) | (d, Unchanged) => d,
            (a, b) if a == b => a,
            _ => Mixed,
        }
    }
}

/// The shape of a perturbation set, as the engine's commit-log replay needs
/// it: which sender **rows** of the evaluated cost matrices may differ from
/// the baseline problem, and in which [`DeltaDirection`] they moved.
///
/// Row granularity is deliberate: a sender row `s` covers both the edge
/// scores *from* `s` and the receiver bias of `s` (every built-in lookahead
/// reads only the receiver's own outgoing row), so one bitmap answers both
/// "is this commit's sender suspect?" and "is this receiver's bias suspect?".
/// A single degraded link marks its whole sender row — conservative, but a
/// recompute under suspicion is an exact check, so precision costs only a
/// few extra `O(n)` scans, never correctness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDelta {
    dirty: Vec<bool>,
    any_dirty: bool,
    direction: DeltaDirection,
}

impl ReplayDelta {
    /// Extracts the delta of a perturbation chain over an `n`-cluster grid.
    pub fn from_perturbations(n: usize, perturbations: &[Perturbation]) -> Self {
        let mut dirty = vec![false; n];
        let mut direction = DeltaDirection::Unchanged;
        for p in perturbations {
            let Some((selector, factor)) = p.gap_scaling() else {
                continue;
            };
            direction = direction.join(if factor >= 1.0 {
                DeltaDirection::Worsening
            } else {
                DeltaDirection::Improving
            });
            match selector {
                LinkSelector::All => dirty.iter_mut().for_each(|d| *d = true),
                LinkSelector::Rows { first, span } => {
                    let end = (first.index() + span).min(n);
                    if first.index() < end {
                        dirty[first.index()..end].fill(true);
                    }
                }
                LinkSelector::One { from, .. } => {
                    if from.index() < n {
                        dirty[from.index()] = true;
                    }
                }
            }
        }
        let any_dirty = dirty.iter().any(|&d| d);
        ReplayDelta {
            dirty,
            any_dirty,
            direction,
        }
    }

    /// A delta with no change at all (replays any compatible log verbatim).
    pub fn clean(n: usize) -> Self {
        ReplayDelta {
            dirty: vec![false; n],
            any_dirty: false,
            direction: DeltaDirection::Unchanged,
        }
    }

    /// Whether the sender row of `cluster` may differ from the baseline.
    #[inline]
    pub fn is_dirty(&self, cluster: usize) -> bool {
        self.dirty[cluster]
    }

    /// Whether any row is dirty.
    #[inline]
    pub fn any_dirty(&self) -> bool {
        self.any_dirty
    }

    /// The monotonicity of the change.
    #[inline]
    pub fn direction(&self) -> DeltaDirection {
        self.direction
    }

    /// Number of clusters the delta covers.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.dirty.len()
    }
}

/// Whether a perturbation chain is worth a warm start from the baseline's
/// commit logs instead of a cold run. Grid-wide scaling dirties every sender
/// row *and* patches `O(n²)` links (the bookkeeping costs more than the
/// replay saves), and an alternate root makes the baseline log incompatible
/// by construction — both take the cold path. The what-if runner and the
/// serving daemon share this rule.
pub fn warm_eligible(perturbations: &[Perturbation]) -> bool {
    perturbations.iter().all(|p| {
        !matches!(
            p,
            Perturbation::ScaleAllLinks { .. } | Perturbation::AlternateRoot { .. }
        )
    })
}

/// The winning slot of a candidate-makespan vector: smallest makespan, ties
/// to the earlier slot; `None` when there is no candidate. The what-if
/// runner and the serving daemon pick their heuristic with this rule.
pub fn best_slot(makespans: &[Time]) -> Option<usize> {
    makespans
        .iter()
        .enumerate()
        .min_by(|(i, a), (j, b)| a.cmp(b).then(i.cmp(j)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_marks_one_row_worsening() {
        let delta = ReplayDelta::from_perturbations(
            8,
            &[Perturbation::DegradeLink {
                from: ClusterId(3),
                to: ClusterId(5),
                factor: 4.0,
            }],
        );
        assert!(delta.any_dirty());
        assert_eq!(delta.direction(), DeltaDirection::Worsening);
        for i in 0..8 {
            assert_eq!(delta.is_dirty(i), i == 3);
        }
    }

    #[test]
    fn site_span_marks_the_range() {
        let delta = ReplayDelta::from_perturbations(
            6,
            &[Perturbation::DegradeSite {
                first: ClusterId(2),
                span: 3,
                factor: 2.5,
            }],
        );
        for i in 0..6 {
            assert_eq!(delta.is_dirty(i), (2..5).contains(&i));
        }
    }

    #[test]
    fn time_varying_and_root_moves_are_clean() {
        let delta = ReplayDelta::from_perturbations(
            4,
            &[
                Perturbation::TimeVaryingCapacity {
                    from: ClusterId(0),
                    to: ClusterId(1),
                    factor: 3.0,
                    from_time: Time::ZERO,
                    until: Time::from_millis(50.0),
                },
                Perturbation::AlternateRoot { root: ClusterId(2) },
            ],
        );
        assert!(!delta.any_dirty());
        assert_eq!(delta.direction(), DeltaDirection::Unchanged);
    }

    #[test]
    fn mixed_factors_join_to_mixed() {
        let delta = ReplayDelta::from_perturbations(
            4,
            &[
                Perturbation::DegradeUplink {
                    cluster: ClusterId(0),
                    factor: 2.0,
                },
                Perturbation::DegradeUplink {
                    cluster: ClusterId(1),
                    factor: 0.5,
                },
            ],
        );
        assert_eq!(delta.direction(), DeltaDirection::Mixed);
        assert!(delta.is_dirty(0) && delta.is_dirty(1));
    }

    #[test]
    fn drop_relay_is_worsening() {
        let delta = ReplayDelta::from_perturbations(
            3,
            &[Perturbation::DropRelay {
                cluster: ClusterId(1),
            }],
        );
        assert_eq!(delta.direction(), DeltaDirection::Worsening);
        assert!(delta.is_dirty(1) && !delta.is_dirty(0));
    }
}
