//! The serving loop: admission, cache classification, engine-pool dispatch.
//!
//! A batch of request lines moves through five stages, all deterministic in
//! request order:
//!
//! 1. **Admission + parse** — oversized lines and malformed JSON become error
//!    responses for their line; nothing on the wire panics the daemon.
//! 2. **Resolution** — the grid spec is resolved (named topologies and
//!    generated grids are memoised; inline grids are consistency-checked),
//!    perturbations are validated against the grid and applied, and the
//!    [`BroadcastProblem`] plus its content digest are built.
//! 3. **Classification** — each problem is looked up in the schedule cache:
//!    a *hit* serves the stored answer, a perturbed neighbour of a cached
//!    cold run becomes a *warm* job replaying its commit logs, everything
//!    else is a *cold* job.
//! 4. **Dispatch** — jobs are split into contiguous chunks, one per worker
//!    engine, and run on scoped threads. Results land in per-job slots, so
//!    the response stream is bit-identical for any worker count.
//! 5. **Merge + render** — job results are folded back into the cache in
//!    request order and every line gets exactly one response line.

use crate::cache::{CacheEntry, CacheOutcome, ScheduleCache, ScheduleRecord};
use crate::stats::ServerStats;
use crate::wire::{self, GridSpec, OkResponse, Request, RequestLine};
use gridcast_core::perturb::{best_slot, warm_eligible};
use gridcast_core::{
    BroadcastProblem, CommitLog, HeuristicKind, Perturbation, ReplayDelta, ScheduleEngine,
    ScheduleEvent,
};
use gridcast_plogp::Time;
use gridcast_simulator::{execute_plan_with_sink, NodeNetwork, NullSink, SendPlan};
use gridcast_topology::{grid5000_table3, ClusterId, Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker engines in the pool (≥ 1). Responses are bit-identical for any
    /// value; this only sets the dispatch parallelism.
    pub workers: usize,
    /// Schedule-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum accepted request-line length in bytes, counted before
    /// trimming and without the newline; longer lines are rejected with an
    /// error response, and the serving loop never buffers more than one
    /// byte past this limit of a line.
    pub max_line_bytes: usize,
    /// Maximum requests dispatched per batch.
    pub max_batch: usize,
    /// Maximum clusters a requested grid may have.
    pub max_clusters: usize,
    /// Maximum total machines a requested grid may have.
    pub max_nodes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 4096,
            max_line_bytes: 1 << 20,
            max_batch: 64,
            max_clusters: 512,
            max_nodes: 1 << 18,
        }
    }
}

/// Memoised grid resolution: named topologies and generated Table 2 grids
/// are built once and shared. Inline grids are not memoised — their identity
/// lives in the problem digest, and callers sending full documents per line
/// get no benefit from a second copy.
#[derive(Debug, Default)]
struct GridCache {
    map: HashMap<GridCacheKey, Arc<Grid>>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GridCacheKey {
    Named(String),
    Table2 {
        clusters: usize,
        seed: u64,
        cluster_size: u32,
    },
}

impl GridCache {
    fn resolve(&mut self, spec: &GridSpec, config: &ServerConfig) -> Result<Arc<Grid>, String> {
        let grid = match spec {
            GridSpec::Named(name) => {
                let key = GridCacheKey::Named(name.clone());
                if let Some(grid) = self.map.get(&key) {
                    return Ok(Arc::clone(grid));
                }
                if name != "grid5000_table3" {
                    return Err(format!(
                        "unknown topology `{name}` (the daemon knows \"grid5000_table3\")"
                    ));
                }
                let grid = Arc::new(grid5000_table3());
                self.map.insert(key, Arc::clone(&grid));
                grid
            }
            GridSpec::Table2 {
                clusters,
                seed,
                cluster_size,
            } => {
                if *clusters > config.max_clusters {
                    return Err(format!(
                        "grid of {clusters} clusters exceeds the admission limit of {}",
                        config.max_clusters
                    ));
                }
                let key = GridCacheKey::Table2 {
                    clusters: *clusters,
                    seed: *seed,
                    cluster_size: *cluster_size,
                };
                if let Some(grid) = self.map.get(&key) {
                    return Ok(Arc::clone(grid));
                }
                let grid = Arc::new(
                    GridGenerator::table2()
                        .cluster_size(*cluster_size)
                        .generate(*clusters, &mut ChaCha8Rng::seed_from_u64(*seed)),
                );
                self.map.insert(key, Arc::clone(&grid));
                grid
            }
            // Already consistency-checked at parse time.
            GridSpec::Inline(grid) => Arc::new(grid.as_ref().clone()),
        };
        admit_grid(&grid, config)?;
        Ok(grid)
    }
}

fn admit_grid(grid: &Grid, config: &ServerConfig) -> Result<(), String> {
    if grid.num_clusters() > config.max_clusters {
        return Err(format!(
            "grid of {} clusters exceeds the admission limit of {}",
            grid.num_clusters(),
            config.max_clusters
        ));
    }
    let nodes: u64 = grid.clusters().iter().map(|c| u64::from(c.size)).sum();
    if nodes > config.max_nodes {
        return Err(format!(
            "grid of {nodes} machines exceeds the admission limit of {}",
            config.max_nodes
        ));
    }
    Ok(())
}

/// Range-checks a request's cluster references against the resolved grid, so
/// an out-of-range root or perturbation target is an error response instead
/// of an assertion failure deep in the engine.
fn validate_against_grid(req: &Request, n: usize) -> Result<(), String> {
    let check = |what: &str, c: ClusterId| {
        if c.index() < n {
            Ok(())
        } else {
            Err(format!(
                "{what} {} out of range for a grid of {n} clusters",
                c.index()
            ))
        }
    };
    check("root", req.root)?;
    for p in &req.perturbations {
        match *p {
            Perturbation::ScaleAllLinks { .. } => {}
            Perturbation::DegradeUplink { cluster, .. } | Perturbation::DropRelay { cluster } => {
                check("perturbation cluster", cluster)?;
            }
            Perturbation::DegradeLink { from, to, .. } => {
                check("perturbation cluster", from)?;
                check("perturbation cluster", to)?;
            }
            Perturbation::DegradeSite { first, span, .. } => {
                check("perturbation cluster", first)?;
                if span > n {
                    return Err(format!(
                        "perturbation span {span} out of range for a grid of {n} clusters"
                    ));
                }
            }
            Perturbation::TimeVaryingCapacity { from, to, .. } => {
                check("perturbation cluster", from)?;
                check("perturbation cluster", to)?;
            }
            Perturbation::AlternateRoot { root } => check("alternate root", root)?,
        }
    }
    Ok(())
}

fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A winner pick cannot come up empty: the engine always evaluates all seven
/// heuristics.
const WINNER_EXISTS: &str = "the engine always evaluates all seven heuristics";

struct WarmStart {
    logs: Arc<Vec<CommitLog>>,
    delta: ReplayDelta,
}

struct Job {
    problem: BroadcastProblem,
    grid: Arc<Grid>,
    digest: u64,
    slot_pin: Option<usize>,
    warm: Option<WarmStart>,
    execute: bool,
}

struct JobOutput {
    makespans: Vec<Time>,
    logs: Option<Vec<CommitLog>>,
    slot: usize,
    events: Vec<ScheduleEvent>,
    simulated: Option<(Time, usize)>,
}

fn run_job(engine: &mut ScheduleEngine, job: &Job) -> JobOutput {
    let kinds = HeuristicKind::all();
    let (makespans, logs, slot, events) = match &job.warm {
        Some(warm) => {
            let mut makespans = Vec::new();
            engine.warm_makespans_into(&job.problem, &warm.logs, &warm.delta, &mut makespans);
            let slot = job
                .slot_pin
                .or_else(|| best_slot(&makespans))
                .expect(WINNER_EXISTS);
            engine.warm_run(&job.problem, &warm.logs[slot], &warm.delta);
            let events = engine.events().to_vec();
            (makespans, None, slot, events)
        }
        None => {
            let (makespans, logs) = engine.makespans_logged(&job.problem, &kinds);
            let slot = job
                .slot_pin
                .or_else(|| best_slot(&makespans))
                .expect(WINNER_EXISTS);
            let events = logs[slot].events();
            (makespans, Some(logs), slot, events)
        }
    };
    let simulated = job.execute.then(|| {
        let network = NodeNetwork::new(&job.grid);
        let plan = SendPlan::from_inter_cluster_events(&job.grid, job.problem.root, &events);
        let outcome = execute_plan_with_sink(
            &network,
            &plan,
            job.problem.message,
            Time::ZERO,
            &mut NullSink,
        );
        (outcome.completion, outcome.events_processed)
    });
    JobOutput {
        makespans,
        logs,
        slot,
        events,
        simulated,
    }
}

/// What a request line is waiting on after classification.
enum Pending {
    /// Response already rendered (errors, control acks, cache hits).
    Ready(String),
    /// Waiting on the job with this index; rendering needs the request's
    /// echo fields.
    Job {
        job: usize,
        id: Option<u64>,
        include_schedule: bool,
        outcome: CacheOutcome,
    },
    /// Render the stats snapshot at the end of the batch, so it reflects
    /// the batch's own work.
    Stats,
}

/// The scheduling daemon: engine pool + schedule cache + counters.
pub struct Server {
    config: ServerConfig,
    engines: Vec<ScheduleEngine>,
    cache: ScheduleCache,
    grids: GridCache,
    stats: ServerStats,
}

impl Server {
    /// A server with `config.workers` engines and an empty cache.
    pub fn new(config: ServerConfig) -> Self {
        let workers = config.workers.max(1);
        Server {
            engines: (0..workers).map(|_| ScheduleEngine::new()).collect(),
            cache: ScheduleCache::new(config.cache_capacity),
            grids: GridCache::default(),
            stats: ServerStats::default(),
            config,
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Handles one batch of request lines. Returns one response line per
    /// input line (same order, no trailing newlines) and whether a shutdown
    /// command was seen.
    pub fn handle_batch(&mut self, lines: &[String]) -> (Vec<String>, bool) {
        let started = Instant::now();
        let mut shutdown = false;
        let mut jobs: Vec<Job> = Vec::new();
        let mut pending: Vec<Pending> = Vec::with_capacity(lines.len());

        for line in lines {
            self.stats.requests += 1;
            let p = self.classify_line(line, &mut jobs, &mut shutdown);
            if !matches!(p, Pending::Job { .. }) {
                self.stats.latency.record(micros_since(started));
            }
            pending.push(p);
        }

        self.dispatch_and_merge(&jobs, &mut pending, started);

        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(lines.len());

        let responses = pending
            .into_iter()
            .map(|p| match p {
                Pending::Ready(line) => line,
                Pending::Stats => self.stats.render(),
                Pending::Job { .. } => {
                    unreachable!("every job was resolved by dispatch_and_merge")
                }
            })
            .collect();
        (responses, shutdown)
    }

    /// Stages 1–3 for one line: admission, parse, resolution, classification.
    fn classify_line(&mut self, line: &str, jobs: &mut Vec<Job>, shutdown: &mut bool) -> Pending {
        // The serving loop cuts a long line one byte past the limit, so the
        // length is checked before trimming and never reported: the reader
        // did not see the whole line.
        if line.len() > self.config.max_line_bytes {
            self.stats.errors += 1;
            return Pending::Ready(wire::render_error(
                None,
                &format!(
                    "request line exceeds the limit of {} bytes",
                    self.config.max_line_bytes
                ),
            ));
        }
        let line = line.trim();
        let req = match wire::parse_line(line) {
            Ok(RequestLine::Schedule(req)) => req,
            Ok(RequestLine::Stats) => return Pending::Stats,
            Ok(RequestLine::Shutdown) => {
                *shutdown = true;
                return Pending::Ready(r#"{"status":"ok","msg":"shutting down"}"#.to_string());
            }
            Err(msg) => {
                self.stats.errors += 1;
                return Pending::Ready(wire::render_error(None, &msg));
            }
        };

        match self.classify_request(&req, jobs) {
            Ok(p) => p,
            Err(msg) => {
                self.stats.errors += 1;
                Pending::Ready(wire::render_error(req.id, &msg))
            }
        }
    }

    fn classify_request(&mut self, req: &Request, jobs: &mut Vec<Job>) -> Result<Pending, String> {
        let base_grid = self.grids.resolve(&req.grid, &self.config)?;
        let n = base_grid.num_clusters();
        validate_against_grid(req, n)?;

        // Apply the perturbation chain (cold path): possibly a new grid,
        // possibly a moved root.
        let mut root = req.root;
        let mut grid = Arc::clone(&base_grid);
        for p in &req.perturbations {
            if let Some(changed) = p.apply(&grid, &mut root) {
                grid = Arc::new(changed);
            }
        }

        let problem = BroadcastProblem::from_grid(&grid, root, req.payload);
        let digest = problem.content_digest();
        let slot_pin = req
            .heuristic
            .map(|k| HeuristicKind::all().iter().position(|x| *x == k).unwrap());

        // A cached entry for the exact problem?
        if let Some(entry) = self.cache.get_mut(digest, &problem) {
            let slot = slot_pin
                .or_else(|| best_slot(&entry.makespans))
                .expect(WINNER_EXISTS);
            let complete = entry.records[slot]
                .as_ref()
                .is_some_and(|r| !req.execute || r.simulated.is_some());
            if complete {
                self.stats.cache_hits += 1;
                self.stats.ok += 1;
                let record = entry.records[slot].as_ref().unwrap();
                return Ok(Pending::Ready(wire::render_ok(&OkResponse {
                    id: req.id,
                    heuristic: HeuristicKind::all()[slot].name(),
                    predicted: entry.makespans[slot],
                    cache: CacheOutcome::Hit.label(),
                    schedule: req.include_schedule.then(|| record.events.clone()),
                    simulated: req.execute.then(|| record.simulated.unwrap()),
                })));
            }
            // The entry knows the makespans but not this slot's schedule
            // (or its simulation). Its own cold logs, replayed under a clean
            // delta, re-derive the schedule without a cold run.
            if let Some(logs) = entry.logs.clone() {
                self.stats.warm_starts += 1;
                jobs.push(Job {
                    problem,
                    grid,
                    digest,
                    slot_pin: Some(slot),
                    warm: Some(WarmStart {
                        logs,
                        delta: ReplayDelta::clean(n),
                    }),
                    execute: req.execute,
                });
                return Ok(Pending::Job {
                    job: jobs.len() - 1,
                    id: req.id,
                    include_schedule: req.include_schedule,
                    outcome: CacheOutcome::Warm,
                });
            }
        } else if !req.perturbations.is_empty() && warm_eligible(&req.perturbations) {
            // Not cached — but the *unperturbed* neighbour might be, with
            // commit logs to warm-start from. (Warm-eligible chains never
            // move the root, so the base problem shares `req.root`.)
            let base_problem = BroadcastProblem::from_grid(&base_grid, req.root, req.payload);
            let base_digest = base_problem.content_digest();
            let logs = self
                .cache
                .get_mut(base_digest, &base_problem)
                .and_then(|entry| entry.logs.clone());
            if let Some(logs) = logs {
                if logs.iter().all(|log| log.compatible_with(&problem)) {
                    self.stats.warm_starts += 1;
                    jobs.push(Job {
                        problem,
                        grid,
                        digest,
                        slot_pin,
                        warm: Some(WarmStart {
                            logs,
                            delta: ReplayDelta::from_perturbations(n, &req.perturbations),
                        }),
                        execute: req.execute,
                    });
                    return Ok(Pending::Job {
                        job: jobs.len() - 1,
                        id: req.id,
                        include_schedule: req.include_schedule,
                        outcome: CacheOutcome::Warm,
                    });
                }
            }
        }

        self.stats.cold_runs += 1;
        jobs.push(Job {
            problem,
            grid,
            digest,
            slot_pin,
            warm: None,
            execute: req.execute,
        });
        Ok(Pending::Job {
            job: jobs.len() - 1,
            id: req.id,
            include_schedule: req.include_schedule,
            outcome: CacheOutcome::Cold,
        })
    }

    /// Stages 4–5: run jobs on the engine pool, fold results into the cache
    /// and render the waiting responses, recording each one's latency since
    /// `started` as it is rendered.
    fn dispatch_and_merge(&mut self, jobs: &[Job], pending: &mut [Pending], started: Instant) {
        if jobs.is_empty() {
            return;
        }
        let workers = self.engines.len().min(jobs.len());
        let chunk = jobs.len().div_ceil(workers);
        let mut outputs: Vec<Option<JobOutput>> = jobs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for (engine, (job_chunk, out_chunk)) in self
                .engines
                .iter_mut()
                .zip(jobs.chunks(chunk).zip(outputs.chunks_mut(chunk)))
            {
                scope.spawn(move || {
                    for (job, out) in job_chunk.iter().zip(out_chunk.iter_mut()) {
                        *out = Some(run_job(engine, job));
                    }
                });
            }
        });

        // Merge into the cache in request order, then render.
        for (job, output) in jobs.iter().zip(&outputs) {
            let output = output.as_ref().expect("every job chunk was dispatched");
            let record = ScheduleRecord {
                events: output.events.clone(),
                simulated: output.simulated,
            };
            match self.cache.get_mut(job.digest, &job.problem) {
                Some(entry) => entry.records[output.slot] = Some(record),
                None => {
                    let logs = output.logs.clone().map(Arc::new);
                    let mut entry =
                        CacheEntry::new(job.problem.clone(), output.makespans.clone(), logs);
                    entry.records[output.slot] = Some(record);
                    self.cache.insert(job.digest, entry);
                }
            }
        }

        for p in pending.iter_mut() {
            if let Pending::Job {
                job,
                id,
                include_schedule,
                outcome,
            } = p
            {
                let output = outputs[*job].as_ref().expect("resolved above");
                self.stats.ok += 1;
                let line = wire::render_ok(&OkResponse {
                    id: *id,
                    heuristic: HeuristicKind::all()[output.slot].name(),
                    predicted: output.makespans[output.slot],
                    cache: outcome.label(),
                    schedule: include_schedule.then(|| output.events.clone()),
                    simulated: output.simulated,
                });
                *p = Pending::Ready(line);
                self.stats.latency.record(micros_since(started));
            }
        }
    }

    /// Serves line-delimited requests from `reader` until EOF or a shutdown
    /// command, writing one response line per request to `writer`. Either
    /// ends this stream only; the socket daemon calls it once per
    /// connection and keeps accepting.
    ///
    /// Requests are batched adaptively: the loop blocks for the first line,
    /// then drains whatever else has already arrived (up to
    /// [`ServerConfig::max_batch`]) so a burst is dispatched to the engine
    /// pool together while a lone request is answered immediately.
    pub fn serve<R, W>(&mut self, reader: R, mut writer: W) -> std::io::Result<()>
    where
        R: Read + Send + 'static,
        W: Write,
    {
        let (tx, rx) = mpsc::channel::<std::io::Result<String>>();
        // A line is buffered up to one byte past the limit and no further:
        // that prefix already fails the length check, so it is forwarded at
        // once and the rest of the line is discarded unread.
        let cap = self.config.max_line_bytes.saturating_add(1) as u64;
        // The reader thread is detached on purpose: a shutdown command must
        // stop the daemon even if the peer never closes its end, and a
        // blocked read cannot be interrupted portably. The thread exits on
        // EOF, on error, or on its next line once the receiver is gone.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(reader);
            loop {
                let mut buf = Vec::new();
                match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
                let cut = buf.len() as u64 == cap && buf.last() != Some(&b'\n');
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                }
                let line = if cut {
                    // The cut may split a character; lossy conversion never
                    // makes the prefix shorter.
                    Ok(String::from_utf8_lossy(&buf).into_owned())
                } else {
                    String::from_utf8(buf).map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "stream did not contain valid UTF-8",
                        )
                    })
                };
                let failed = line.is_err();
                if tx.send(line).is_err() || failed {
                    break;
                }
                if cut {
                    if let Err(e) = reader.skip_until(b'\n') {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });

        loop {
            let first = match rx.recv() {
                Ok(Ok(line)) => line,
                Ok(Err(e)) => return Err(e),
                Err(_) => return Ok(()), // EOF
            };
            let mut batch = vec![first];
            while batch.len() < self.config.max_batch {
                match rx.try_recv() {
                    Ok(Ok(line)) => batch.push(line),
                    Ok(Err(e)) => return Err(e),
                    Err(_) => break,
                }
            }
            batch.retain(|l| !l.trim().is_empty());
            let shutdown = if batch.is_empty() {
                false
            } else {
                let (responses, shutdown) = self.handle_batch(&batch);
                for response in responses {
                    writer.write_all(response.as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                shutdown
            };
            if shutdown {
                return Ok(());
            }
        }
    }
}
