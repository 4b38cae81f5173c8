//! The [`Grid`]: a set of clusters plus inter-cluster link parameters.

use crate::{Cluster, ClusterId, IntraClusterParams, Node, NodeId, SquareMatrix};
use gridcast_plogp::{ContentHasher, MessageSize, PLogP, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while constructing a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// The grid needs at least one cluster.
    NoClusters,
    /// An inter-cluster link references a cluster outside the grid.
    UnknownCluster {
        /// The offending identifier.
        cluster: ClusterId,
    },
    /// A link between two distinct clusters was never configured.
    MissingLink {
        /// Source cluster.
        from: ClusterId,
        /// Destination cluster.
        to: ClusterId,
    },
    /// A cluster was declared with zero machines.
    EmptyCluster {
        /// The offending identifier.
        cluster: ClusterId,
    },
    /// A structural invariant every constructor guarantees was violated — only
    /// reachable through deserialized grids, whose fields are decoded
    /// independently (see [`Grid::check_consistency`]).
    Inconsistent {
        /// The violated invariant, human-readable.
        detail: &'static str,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::NoClusters => write!(f, "a grid needs at least one cluster"),
            GridError::UnknownCluster { cluster } => {
                write!(f, "link references unknown cluster {cluster}")
            }
            GridError::MissingLink { from, to } => {
                write!(f, "no link parameters configured between {from} and {to}")
            }
            GridError::EmptyCluster { cluster } => {
                write!(f, "cluster {cluster} has no machines")
            }
            GridError::Inconsistent { detail } => {
                write!(f, "inconsistent grid: {detail}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A computational grid: clusters plus a full matrix of inter-cluster pLogP
/// parameters.
///
/// Inter-cluster parameters are stored directed (`from → to`); symmetric grids
/// simply store the same parameters in both directions (the builder's
/// [`GridBuilder::link_symmetric`] does this for you). The diagonal is unused by
/// the scheduling heuristics but is kept populated with the cluster's own
/// intra-cluster parameters when available so that traces can report it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    clusters: Vec<Cluster>,
    inter: SquareMatrix<PLogP>,
}

impl Grid {
    /// Starts building a grid.
    pub fn builder() -> GridBuilder {
        GridBuilder::default()
    }

    /// Number of clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total number of machines across all clusters.
    pub fn num_nodes(&self) -> u32 {
        self.clusters.iter().map(|c| c.size).sum()
    }

    /// The clusters, indexed by [`ClusterId`].
    #[inline]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// A single cluster.
    #[inline]
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// The pLogP parameters of the directed link `from → to`.
    #[inline]
    pub fn link(&self, from: ClusterId, to: ClusterId) -> &PLogP {
        &self.inter[(from.index(), to.index())]
    }

    /// Inter-cluster latency `L_{from,to}`.
    #[inline]
    pub fn latency(&self, from: ClusterId, to: ClusterId) -> Time {
        self.link(from, to).latency()
    }

    /// Inter-cluster gap `g_{from,to}(m)`.
    #[inline]
    pub fn gap(&self, from: ClusterId, to: ClusterId, m: MessageSize) -> Time {
        self.link(from, to).gap(m)
    }

    /// The point-to-point cost `L_{from,to} + g_{from,to}(m)` used by every
    /// heuristic of the paper.
    #[inline]
    pub fn transfer_time(&self, from: ClusterId, to: ClusterId, m: MessageSize) -> Time {
        self.link(from, to).point_to_point(m)
    }

    /// Enumerates all machines of the grid, cluster by cluster, assigning dense
    /// [`NodeId`]s. The first node of each cluster (local rank 0) is the cluster
    /// coordinator that participates in inter-cluster communication.
    pub fn enumerate_nodes(&self) -> Vec<Node> {
        let mut nodes = Vec::with_capacity(self.num_nodes() as usize);
        let mut next = 0u32;
        for cluster in &self.clusters {
            for local_rank in 0..cluster.size {
                nodes.push(Node {
                    id: NodeId(next),
                    name: format!("{}-{}", cluster.name, local_rank),
                    cluster: cluster.id,
                    local_rank,
                });
                next += 1;
            }
        }
        nodes
    }

    /// The node id of the coordinator of `cluster` under [`Grid::enumerate_nodes`]
    /// numbering.
    pub fn coordinator(&self, cluster: ClusterId) -> NodeId {
        let before: u32 = self.clusters[..cluster.index()]
            .iter()
            .map(|c| c.size)
            .sum();
        NodeId(before)
    }

    /// All cluster identifiers.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.clusters.len()).map(ClusterId)
    }

    /// The grid with every directed inter-cluster link reversed: the link
    /// `i → j` of the transposed grid carries the parameters of `j → i` here.
    /// Clusters (sizes, intra models) are unchanged, and the diagonal is
    /// untouched.
    ///
    /// This is the substrate of the **time-reversed duals**: a gather towards
    /// `root` on this grid prices its edges exactly like a scatter from `root`
    /// on the transposed grid (a block travelling `c → root` pays the
    /// `c → root` link, which is the transposed grid's `root → c` entry), so
    /// the scatter machinery runs unchanged on the transposed instance and the
    /// resulting schedule is reversed. On symmetric grids `transposed()`
    /// equals `self`.
    pub fn transposed(&self) -> Grid {
        let n = self.num_clusters();
        let mut inter = self.inter.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                let a = self.inter[(i, j)].clone();
                let b = self.inter[(j, i)].clone();
                inter[(i, j)] = b;
                inter[(j, i)] = a;
            }
        }
        Grid {
            clusters: self.clusters.clone(),
            inter,
        }
    }

    /// The grid with every directed **inter-cluster** link replaced by
    /// `f(from, to, link)`. Clusters (sizes, intra models) and the diagonal
    /// are unchanged.
    ///
    /// This is the substrate of the what-if perturbations: scaled link
    /// capacities, a degraded site uplink, a cluster removed from relay duty
    /// — each is a pure function of the original link matrix, evaluated
    /// against a shared read-only grid without mutating it.
    pub fn map_links(&self, mut f: impl FnMut(ClusterId, ClusterId, &PLogP) -> PLogP) -> Grid {
        let n = self.num_clusters();
        let mut inter = self.inter.clone();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    inter[(i, j)] = f(ClusterId(i), ClusterId(j), &self.inter[(i, j)]);
                }
            }
        }
        Grid {
            clusters: self.clusters.clone(),
            inter,
        }
    }

    /// A 64-bit content digest of the grid's **full parameter set**: cluster
    /// count, every cluster's name/size/intra model, and every directed link's
    /// pLogP parameters, hashed by IEEE-754 bit pattern.
    ///
    /// Two grids digest equal iff their parameters are bit-identical — the
    /// same shape with one link changed by one ULP digests differently.
    /// Being a 64-bit hash it is an index, not a proof: a cache keyed on it
    /// must pair each lookup with a full equality check. (The schedule cache
    /// keys on the evaluated problem instead, through
    /// `BroadcastProblem::content_digest` in `gridcast-core`.)
    pub fn content_digest(&self) -> u64 {
        let mut h = ContentHasher::new();
        let n = self.clusters.len();
        h.write_u64(n as u64);
        for c in &self.clusters {
            h.write_str(&c.name).write_u64(u64::from(c.size));
            match &c.intra {
                IntraClusterParams::Fixed { broadcast_time } => {
                    h.write_u64(0).write_f64(broadcast_time.as_secs());
                }
                IntraClusterParams::Modelled { plogp } => {
                    h.write_u64(1);
                    plogp.digest_into(&mut h);
                }
            }
        }
        // The whole matrix, diagonal included (it mirrors the intra model).
        for i in 0..n {
            for j in 0..n {
                self.inter[(i, j)].digest_into(&mut h);
            }
        }
        h.finish()
    }

    /// Replaces one directed inter-cluster link in place.
    ///
    /// This is the incremental counterpart of [`Grid::map_links`]: a warm
    /// what-if scratch grid patches the handful of links a perturbation
    /// touches (and later restores them from the baseline) instead of
    /// rebuilding the whole `n²` matrix per scenario. Self-links cannot be
    /// replaced — the diagonal carries no inter-cluster model.
    pub fn set_link(&mut self, from: ClusterId, to: ClusterId, link: PLogP) {
        assert_ne!(from, to, "the diagonal carries no inter-cluster link");
        self.inter[(from.index(), to.index())] = link;
    }

    /// Validates the structural invariants every constructor guarantees but a
    /// `Deserialize`d grid may silently violate, because derived
    /// deserialization decodes fields independently: the link matrix must
    /// actually hold `n × n` entries for its claimed dimension, that dimension
    /// must match the cluster count, cluster ids must be the dense `0..n`
    /// sequence, and the usual build-time checks (at least one cluster, no
    /// empty cluster) must hold. Accepting a grid from the wire without this
    /// check turns a malformed document into an out-of-bounds panic deep in
    /// the scheduler.
    pub fn check_consistency(&self) -> Result<(), GridError> {
        if self.clusters.is_empty() {
            return Err(GridError::NoClusters);
        }
        if !self.inter.is_consistent() {
            return Err(GridError::Inconsistent {
                detail: "link matrix storage does not hold n × n entries for its claimed dimension",
            });
        }
        if self.inter.dim() != self.clusters.len() {
            return Err(GridError::Inconsistent {
                detail: "link matrix dimension does not match the cluster count",
            });
        }
        if self
            .clusters
            .iter()
            .enumerate()
            .any(|(i, c)| c.id.index() != i)
        {
            return Err(GridError::Inconsistent {
                detail: "cluster ids are not the dense 0..n sequence",
            });
        }
        if let Some(empty) = self.clusters.iter().find(|c| c.size == 0) {
            return Err(GridError::EmptyCluster { cluster: empty.id });
        }
        Ok(())
    }
}

/// Builder for [`Grid`].
#[derive(Debug, Default)]
pub struct GridBuilder {
    clusters: Vec<Cluster>,
    links: Vec<(ClusterId, ClusterId, PLogP)>,
}

impl GridBuilder {
    /// Adds a cluster. Cluster identifiers must be dense and added in order; the
    /// builder assigns the next index and overrides `cluster.id` accordingly.
    pub fn cluster(mut self, mut cluster: Cluster) -> Self {
        cluster.id = ClusterId(self.clusters.len());
        self.clusters.push(cluster);
        self
    }

    /// Configures the directed link `from → to`.
    pub fn link_directed(mut self, from: ClusterId, to: ClusterId, plogp: PLogP) -> Self {
        self.links.push((from, to, plogp));
        self
    }

    /// Configures both directions of the link between `a` and `b` with the same
    /// parameters.
    pub fn link_symmetric(mut self, a: ClusterId, b: ClusterId, plogp: PLogP) -> Self {
        self.links.push((a, b, plogp.clone()));
        self.links.push((b, a, plogp));
        self
    }

    /// Validates and builds the grid.
    pub fn build(self) -> Result<Grid, GridError> {
        if self.clusters.is_empty() {
            return Err(GridError::NoClusters);
        }
        if let Some(empty) = self.clusters.iter().find(|c| c.size == 0) {
            return Err(GridError::EmptyCluster { cluster: empty.id });
        }
        let n = self.clusters.len();
        // Initialise every entry with a self-link placeholder (zero-cost), then
        // overwrite with the configured links and check completeness.
        let placeholder = PLogP::constant(Time::ZERO, Time::ZERO);
        let mut inter = SquareMatrix::filled(n, placeholder);
        let mut configured = SquareMatrix::filled(n, false);
        for (from, to, plogp) in self.links {
            if from.index() >= n {
                return Err(GridError::UnknownCluster { cluster: from });
            }
            if to.index() >= n {
                return Err(GridError::UnknownCluster { cluster: to });
            }
            inter[(from.index(), to.index())] = plogp;
            configured[(from.index(), to.index())] = true;
        }
        for i in 0..n {
            for j in 0..n {
                if i != j && !configured[(i, j)] {
                    return Err(GridError::MissingLink {
                        from: ClusterId(i),
                        to: ClusterId(j),
                    });
                }
            }
        }
        // Populate the diagonal with the clusters' own intra parameters when
        // modelled, so that `link(i, i)` is meaningful for traces.
        for (i, cluster) in self.clusters.iter().enumerate() {
            if let Some(plogp) = cluster.intra.plogp() {
                inter[(i, i)] = plogp.clone();
            }
        }
        Ok(Grid {
            clusters: self.clusters,
            inter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::Time;

    fn toy_grid(n: usize) -> Grid {
        let mut builder = Grid::builder();
        for i in 0..n {
            builder = builder.cluster(Cluster::with_fixed_time(
                ClusterId(i),
                format!("c{i}"),
                4,
                Time::from_millis(100.0),
            ));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let plogp = PLogP::constant(
                    Time::from_millis(1.0 + i as f64 + j as f64),
                    Time::from_millis(200.0),
                );
                builder = builder.link_symmetric(ClusterId(i), ClusterId(j), plogp);
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn builder_produces_complete_grid() {
        let grid = toy_grid(4);
        assert_eq!(grid.num_clusters(), 4);
        assert_eq!(grid.num_nodes(), 16);
        assert_eq!(
            grid.latency(ClusterId(0), ClusterId(3)),
            Time::from_millis(4.0)
        );
        assert_eq!(
            grid.latency(ClusterId(3), ClusterId(0)),
            Time::from_millis(4.0)
        );
        let m = MessageSize::from_mib(1);
        assert_eq!(
            grid.transfer_time(ClusterId(1), ClusterId(2), m),
            Time::from_millis(204.0)
        );
    }

    #[test]
    fn missing_link_is_rejected() {
        let result = Grid::builder()
            .cluster(Cluster::with_fixed_time(
                ClusterId(0),
                "a",
                2,
                Time::from_millis(10.0),
            ))
            .cluster(Cluster::with_fixed_time(
                ClusterId(1),
                "b",
                2,
                Time::from_millis(10.0),
            ))
            .build();
        assert_eq!(
            result,
            Err(GridError::MissingLink {
                from: ClusterId(0),
                to: ClusterId(1)
            })
        );
    }

    #[test]
    fn empty_and_unknown_clusters_are_rejected() {
        assert_eq!(Grid::builder().build(), Err(GridError::NoClusters));

        let empty = Grid::builder()
            .cluster(Cluster::with_fixed_time(
                ClusterId(0),
                "a",
                0,
                Time::from_millis(10.0),
            ))
            .build();
        assert_eq!(
            empty,
            Err(GridError::EmptyCluster {
                cluster: ClusterId(0)
            })
        );

        let unknown = Grid::builder()
            .cluster(Cluster::with_fixed_time(
                ClusterId(0),
                "a",
                1,
                Time::from_millis(10.0),
            ))
            .link_directed(
                ClusterId(0),
                ClusterId(5),
                PLogP::constant(Time::ZERO, Time::ZERO),
            )
            .build();
        assert_eq!(
            unknown,
            Err(GridError::UnknownCluster {
                cluster: ClusterId(5)
            })
        );
    }

    #[test]
    fn node_enumeration_and_coordinators() {
        let grid = toy_grid(3);
        let nodes = grid.enumerate_nodes();
        assert_eq!(nodes.len(), 12);
        assert_eq!(grid.coordinator(ClusterId(0)), NodeId(0));
        assert_eq!(grid.coordinator(ClusterId(1)), NodeId(4));
        assert_eq!(grid.coordinator(ClusterId(2)), NodeId(8));
        assert!(nodes[4].is_coordinator());
        assert_eq!(nodes[5].cluster, ClusterId(1));
        assert_eq!(nodes[5].local_rank, 1);
        // Names carry the cluster name for readable traces.
        assert_eq!(nodes[8].name, "c2-0");
    }

    #[test]
    fn cluster_ids_iterates_all() {
        let grid = toy_grid(5);
        let ids: Vec<_> = grid.cluster_ids().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], ClusterId(0));
        assert_eq!(ids[4], ClusterId(4));
    }

    #[test]
    fn transposed_swaps_directed_links_and_keeps_clusters() {
        let cheap = PLogP::constant(Time::from_millis(1.0), Time::from_millis(10.0));
        let expensive = PLogP::constant(Time::from_millis(2.0), Time::from_millis(500.0));
        let grid = Grid::builder()
            .cluster(Cluster::with_fixed_time(
                ClusterId(0),
                "a",
                3,
                Time::from_millis(5.0),
            ))
            .cluster(Cluster::with_fixed_time(
                ClusterId(1),
                "b",
                2,
                Time::from_millis(5.0),
            ))
            .link_directed(ClusterId(0), ClusterId(1), cheap)
            .link_directed(ClusterId(1), ClusterId(0), expensive)
            .build()
            .unwrap();
        let t = grid.transposed();
        let m = MessageSize::from_kib(1);
        assert_eq!(
            t.gap(ClusterId(0), ClusterId(1), m),
            grid.gap(ClusterId(1), ClusterId(0), m)
        );
        assert_eq!(
            t.latency(ClusterId(1), ClusterId(0)),
            grid.latency(ClusterId(0), ClusterId(1))
        );
        assert_eq!(t.clusters(), grid.clusters());
        // Involution: transposing twice restores the original.
        assert_eq!(t.transposed(), grid);
        // Symmetric grids are their own transpose.
        let sym = toy_grid(4);
        assert_eq!(sym.transposed(), sym);
    }

    #[test]
    fn check_consistency_accepts_round_trips_and_rejects_forged_documents() {
        use serde::{Deserialize as _, Serialize as _, Value};

        let grid = toy_grid(3);
        assert!(grid.check_consistency().is_ok());
        let back = Grid::from_value(&grid.to_value()).unwrap();
        assert!(back.check_consistency().is_ok());
        assert_eq!(back, grid);

        // Forge a document whose matrix claims a bigger dimension than its
        // storage: derived deserialization accepts it, the guard must not.
        let mut doc = grid.to_value();
        if let Value::Map(fields) = &mut doc {
            let inter = fields.iter_mut().find(|(k, _)| k == "inter").unwrap();
            if let Value::Map(m) = &mut inter.1 {
                for (k, v) in m.iter_mut() {
                    if k == "n" {
                        *v = Value::U64(64);
                    }
                }
            }
        }
        let forged = Grid::from_value(&doc).unwrap();
        assert!(matches!(
            forged.check_consistency(),
            Err(GridError::Inconsistent { .. })
        ));

        // Dimension/cluster-count mismatch is caught even with a self-
        // consistent matrix.
        let mut doc = grid.to_value();
        if let Value::Map(fields) = &mut doc {
            let clusters = fields.iter_mut().find(|(k, _)| k == "clusters").unwrap();
            if let Value::Seq(list) = &mut clusters.1 {
                list.pop();
            }
        }
        let truncated = Grid::from_value(&doc).unwrap();
        assert!(matches!(
            truncated.check_consistency(),
            Err(GridError::Inconsistent { .. })
        ));
    }

    #[test]
    fn content_digest_tracks_every_parameter() {
        let grid = toy_grid(4);
        // Deterministic: same construction, same digest.
        assert_eq!(grid.content_digest(), toy_grid(4).content_digest());
        // One directed link changed by a tiny amount flips the digest.
        let mut nudged = grid.clone();
        let link = nudged.link(ClusterId(1), ClusterId(2)).clone();
        let bumped = PLogP::constant(
            link.latency() + Time::from_micros(1.0),
            link.gap(MessageSize::from_mib(1)),
        );
        nudged.set_link(ClusterId(1), ClusterId(2), bumped);
        assert_ne!(grid.content_digest(), nudged.content_digest());
        // Cluster metadata (a renamed site) also flips it.
        let mut renamed = grid.clone();
        renamed.clusters[0].name = "other".to_string();
        assert_ne!(grid.content_digest(), renamed.content_digest());
        // Different shape, trivially different.
        assert_ne!(grid.content_digest(), toy_grid(5).content_digest());
    }

    #[test]
    fn serde_round_trip() {
        let grid = toy_grid(3);
        let json = serde_json::to_string(&grid).unwrap();
        let back: Grid = serde_json::from_str(&json).unwrap();
        assert_eq!(grid, back);
    }
}
