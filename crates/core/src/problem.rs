//! The broadcast problem instance handed to the scheduling heuristics.

use gridcast_collectives::intra_broadcast_time;
use gridcast_plogp::{ContentHasher, MessageSize, Time};
use gridcast_topology::{ClusterId, Grid, SquareMatrix};
use serde::{Deserialize, Serialize};

/// A fully evaluated broadcast problem instance.
///
/// The heuristics of the paper never look at raw pLogP models: they work with
/// the three quantities the formalism needs, already evaluated for the message
/// size at hand —
///
/// * `L_{i,j}`: inter-cluster latency,
/// * `g_{i,j}(m)`: inter-cluster gap for the message,
/// * `T_i(m)`: intra-cluster broadcast time of each cluster.
///
/// Pre-evaluating them keeps the heuristics allocation-free and makes the
/// Monte-Carlo simulations (10 000 schedules per configuration) cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BroadcastProblem {
    /// The cluster whose coordinator initially holds the message.
    pub root: ClusterId,
    /// The broadcast payload size.
    pub message: MessageSize,
    latency: SquareMatrix<Time>,
    gap: SquareMatrix<Time>,
    intra_time: Vec<Time>,
}

impl BroadcastProblem {
    /// Builds a problem instance from a [`Grid`], evaluating gaps and
    /// intra-cluster broadcast times for `message`.
    pub fn from_grid(grid: &Grid, root: ClusterId, message: MessageSize) -> Self {
        let n = grid.num_clusters();
        assert!(root.index() < n, "root cluster {root} outside the grid");
        let mut latency = SquareMatrix::filled(n, Time::ZERO);
        let mut gap = SquareMatrix::filled(n, Time::ZERO);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                latency[(i, j)] = grid.latency(ClusterId(i), ClusterId(j));
                gap[(i, j)] = grid.gap(ClusterId(i), ClusterId(j), message);
            }
        }
        let intra_time = grid
            .clusters()
            .iter()
            .map(|c| intra_broadcast_time(c, message))
            .collect();
        BroadcastProblem {
            root,
            message,
            latency,
            gap,
            intra_time,
        }
    }

    /// Builds a problem instance from raw matrices. `latency` and `gap` must be
    /// square matrices of the same dimension and `intra_time` must have one entry
    /// per cluster.
    pub fn from_parts(
        root: ClusterId,
        message: MessageSize,
        latency: SquareMatrix<Time>,
        gap: SquareMatrix<Time>,
        intra_time: Vec<Time>,
    ) -> Self {
        let n = latency.dim();
        assert_eq!(gap.dim(), n, "gap matrix dimension mismatch");
        assert_eq!(
            intra_time.len(),
            n,
            "intra-cluster time vector length mismatch"
        );
        assert!(root.index() < n, "root cluster {root} outside the problem");
        BroadcastProblem {
            root,
            message,
            latency,
            gap,
            intra_time,
        }
    }

    /// Re-evaluates one directed link entry from `grid` — the incremental
    /// counterpart of [`BroadcastProblem::from_grid`] for a scratch problem
    /// tracking a patched scratch grid. Evaluating the same pure expressions
    /// as `from_grid` keeps the patched problem bit-identical to a cold
    /// rebuild from the patched grid.
    pub fn repatch_link_from_grid(&mut self, grid: &Grid, from: ClusterId, to: ClusterId) {
        assert_ne!(from, to, "the diagonal carries no inter-cluster link");
        self.latency[(from.index(), to.index())] = grid.latency(from, to);
        self.gap[(from.index(), to.index())] = grid.gap(from, to, self.message);
    }

    /// Copies one directed link entry from `other` (typically the unperturbed
    /// baseline problem, to restore a scratch entry after a scenario).
    pub fn copy_link_from(&mut self, other: &BroadcastProblem, from: ClusterId, to: ClusterId) {
        assert_ne!(from, to, "the diagonal carries no inter-cluster link");
        let idx = (from.index(), to.index());
        self.latency[idx] = other.latency[idx];
        self.gap[idx] = other.gap[idx];
    }

    /// Number of clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.intra_time.len()
    }

    /// Inter-cluster latency `L_{from,to}`.
    #[inline]
    pub fn latency(&self, from: ClusterId, to: ClusterId) -> Time {
        self.latency[(from.index(), to.index())]
    }

    /// Inter-cluster gap `g_{from,to}(m)`.
    #[inline]
    pub fn gap(&self, from: ClusterId, to: ClusterId) -> Time {
        self.gap[(from.index(), to.index())]
    }

    /// The transfer cost `g_{from,to}(m) + L_{from,to}` used by every heuristic.
    #[inline]
    pub fn transfer(&self, from: ClusterId, to: ClusterId) -> Time {
        self.gap(from, to) + self.latency(from, to)
    }

    /// Intra-cluster broadcast time `T_i(m)`.
    #[inline]
    pub fn intra_time(&self, cluster: ClusterId) -> Time {
        self.intra_time[cluster.index()]
    }

    /// All cluster identifiers.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.num_clusters()).map(ClusterId)
    }

    /// A 64-bit content digest of the **full problem identity**: root, payload
    /// size, dimension, and the IEEE-754 bit pattern of every evaluated
    /// latency, gap and intra-cluster time.
    ///
    /// Two problems digest equal iff every parameter is bit-identical, so the
    /// digest distinguishes two grids that differ in a single link value as
    /// well as the same grid asked with a different root or payload. It is the
    /// schedule cache key of the serving layer — which, since 64 bits are an
    /// index and not a proof, pairs each digest hit with a full `==` check
    /// before reusing a cached schedule.
    ///
    /// The header fixes the dimension, so the stream length is fixed too,
    /// and the hasher's steps are bijections: changing any one entry always
    /// changes the digest.
    pub fn content_digest(&self) -> u64 {
        fn bits(times: &[Time]) -> impl Iterator<Item = u64> + '_ {
            times.iter().map(|t| t.as_secs().to_bits())
        }
        let mut h = ContentHasher::new();
        h.write_u64(self.root.index() as u64)
            .write_u64(self.message.as_bytes())
            .write_u64(self.num_clusters() as u64)
            .write_words(bits(self.latency.as_slice()))
            .write_words(bits(self.gap.as_slice()))
            .write_words(bits(&self.intra_time));
        h.finish()
    }

    /// A simple lower bound on the achievable makespan: every non-root cluster
    /// must receive the message over at least one inter-cluster transfer from
    /// somewhere and then run its own internal broadcast, and the root must run
    /// its internal broadcast too. Useful for sanity checks and tests; it is not
    /// tight.
    pub fn lower_bound(&self) -> Time {
        let mut bound = self.intra_time(self.root);
        for j in self.cluster_ids() {
            if j == self.root {
                continue;
            }
            let cheapest_in = self
                .cluster_ids()
                .filter(|&i| i != j)
                .map(|i| self.transfer(i, j))
                .min()
                .unwrap_or(Time::ZERO);
            bound = bound.max(cheapest_in + self.intra_time(j));
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_topology::{grid5000_table3, Cluster, Grid};

    fn tiny_problem() -> BroadcastProblem {
        // 3 clusters; transfer costs chosen by hand.
        let latency = SquareMatrix::from_rows(
            3,
            vec![
                Time::ZERO,
                Time::from_millis(1.0),
                Time::from_millis(2.0),
                Time::from_millis(1.0),
                Time::ZERO,
                Time::from_millis(3.0),
                Time::from_millis(2.0),
                Time::from_millis(3.0),
                Time::ZERO,
            ],
        );
        let gap = SquareMatrix::from_rows(
            3,
            vec![
                Time::ZERO,
                Time::from_millis(100.0),
                Time::from_millis(200.0),
                Time::from_millis(100.0),
                Time::ZERO,
                Time::from_millis(300.0),
                Time::from_millis(200.0),
                Time::from_millis(300.0),
                Time::ZERO,
            ],
        );
        let intra = vec![
            Time::from_millis(50.0),
            Time::from_millis(500.0),
            Time::from_millis(20.0),
        ];
        BroadcastProblem::from_parts(ClusterId(0), MessageSize::from_mib(1), latency, gap, intra)
    }

    #[test]
    fn accessors_return_the_configured_values() {
        let p = tiny_problem();
        assert_eq!(p.num_clusters(), 3);
        assert_eq!(
            p.latency(ClusterId(0), ClusterId(2)),
            Time::from_millis(2.0)
        );
        assert_eq!(p.gap(ClusterId(1), ClusterId(2)), Time::from_millis(300.0));
        assert_eq!(
            p.transfer(ClusterId(0), ClusterId(1)),
            Time::from_millis(101.0)
        );
        assert_eq!(p.intra_time(ClusterId(1)), Time::from_millis(500.0));
    }

    #[test]
    fn from_grid_uses_collective_predictions() {
        let grid = grid5000_table3();
        let p = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        assert_eq!(p.num_clusters(), 6);
        // Singleton IDPOT clusters broadcast instantly.
        assert_eq!(p.intra_time(ClusterId(3)), Time::ZERO);
        assert_eq!(p.intra_time(ClusterId(4)), Time::ZERO);
        // The 31-machine Orsay cluster needs real time.
        assert!(p.intra_time(ClusterId(0)) > Time::ZERO);
        // Latency matches Table 3.
        assert!((p.latency(ClusterId(0), ClusterId(5)).as_micros() - 5210.99).abs() < 1e-6);
    }

    #[test]
    fn lower_bound_reflects_cheapest_incoming_edge_plus_intra() {
        let p = tiny_problem();
        // Cluster 1: cheapest incoming transfer is 101 ms (from 0), plus 500 ms intra.
        // Cluster 2: cheapest incoming is 202 ms (from 0), plus 20 ms.
        // Root intra: 50 ms. Max = 601 ms.
        assert_eq!(p.lower_bound(), Time::from_millis(601.0));
    }

    #[test]
    fn content_digest_separates_problem_identities() {
        let grid = grid5000_table3();
        let base = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        // Deterministic across rebuilds.
        assert_eq!(
            base.content_digest(),
            BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1))
                .content_digest()
        );
        // Same grid, different root or payload: different identity.
        let other_root = BroadcastProblem::from_grid(&grid, ClusterId(2), MessageSize::from_mib(1));
        assert_ne!(base.content_digest(), other_root.content_digest());
        let other_size = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_kib(4));
        assert_ne!(base.content_digest(), other_size.content_digest());
        // One evaluated link nudged by one ULP: different identity.
        let mut nudged = base.clone();
        let idx = (0usize, 1usize);
        nudged.gap[idx] = Time::from_secs(nudged.gap[idx].as_secs() + f64::EPSILON);
        assert_ne!(base.content_digest(), nudged.content_digest());
    }

    #[test]
    fn every_one_ulp_entry_change_changes_the_digest() {
        use gridcast_topology::GridGenerator;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        use std::collections::HashSet;

        let grid = GridGenerator::table2().generate(30, &mut ChaCha8Rng::seed_from_u64(7));
        let base = BroadcastProblem::from_grid(&grid, ClusterId(3), MessageSize::from_mib(1));
        let n = base.num_clusters();
        // One ULP up; the zero diagonal becomes the smallest subnormal.
        let bump = |t: Time| Time::from_secs(f64::from_bits(t.as_secs().to_bits() + 1));
        let mut seen = HashSet::from([base.content_digest()]);
        let mut fresh = |p: &BroadcastProblem, what: String| {
            assert!(seen.insert(p.content_digest()), "{what} kept a seen digest");
        };
        for i in 0..n {
            for j in 0..n {
                let mut p = base.clone();
                p.latency[(i, j)] = bump(p.latency[(i, j)]);
                fresh(&p, format!("latency ({i}, {j})"));
                let mut p = base.clone();
                p.gap[(i, j)] = bump(p.gap[(i, j)]);
                fresh(&p, format!("gap ({i}, {j})"));
            }
            let mut p = base.clone();
            p.intra_time[i] = bump(p.intra_time[i]);
            fresh(&p, format!("intra time {i}"));
        }
        let mut p = base.clone();
        p.root = ClusterId(4);
        fresh(&p, "root".into());
        let mut p = base.clone();
        p.message = MessageSize::from_bytes(base.message.as_bytes() + 1);
        fresh(&p, "payload".into());
        let smaller = GridGenerator::table2().generate(29, &mut ChaCha8Rng::seed_from_u64(7));
        let p = BroadcastProblem::from_grid(&smaller, ClusterId(3), MessageSize::from_mib(1));
        fresh(&p, "dimension".into());
    }

    #[test]
    fn signed_zeros_digest_differently() {
        let zero = tiny_problem();
        let mut negative = zero.clone();
        negative.latency[(0, 0)] = Time::from_secs(-0.0);
        // Numerically equal, but bit identity is the cache's contract.
        assert_eq!(negative.latency[(0, 0)].as_secs(), 0.0);
        assert_ne!(zero.content_digest(), negative.content_digest());
    }

    #[test]
    #[should_panic(expected = "outside the problem")]
    fn invalid_root_is_rejected() {
        let p = tiny_problem();
        let _ = BroadcastProblem::from_parts(
            ClusterId(7),
            p.message,
            SquareMatrix::filled(3, Time::ZERO),
            SquareMatrix::filled(3, Time::ZERO),
            vec![Time::ZERO; 3],
        );
    }

    #[test]
    fn single_cluster_problem_has_intra_only_lower_bound() {
        let grid = Grid::builder()
            .cluster(Cluster::with_fixed_time(
                ClusterId(0),
                "only",
                8,
                Time::from_millis(40.0),
            ))
            .build()
            .unwrap();
        let p = BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1));
        assert_eq!(p.num_clusters(), 1);
        assert_eq!(p.lower_bound(), Time::from_millis(40.0));
    }
}
