//! The scenario sweep: topology × weak-adversary × protocol tradeoff
//! frontiers at big `m`.
//!
//! Every experiment in the registry probes a fixed small graph. The sweep
//! opens the workload axis instead: it takes a list of
//! [`TopologySpec`]s (generated graphs at `m` in the hundreds to ~2000), a
//! list of weak-adversary [`LossModel`]s, and a curve of Protocol S firing
//! ranges `t = 1/ε`, and estimates per cell how the topology's
//! diameter/expansion shifts §8's `L/U` tradeoff — the observed TA (liveness)
//! and PA (unsafety) rates as a function of `t`.
//!
//! # How a trial is classified
//!
//! One trial samples an [`EdgeRun`] through the weak adversary's edge-keyed
//! path, runs the sparse level frontier once for the modified-level extremes
//! `(min_i ML_i, max_i ML_i)`, and draws one `rfire` coin. By Lemma 6.4,
//! Protocol S's counts equal `ML`, so with `rfire = t · u` (input-based
//! validity, zero slack):
//!
//! * **TA** ⟺ `min ML ≥ rfire` — everyone fires;
//! * **NA** ⟺ `max ML < rfire` — nobody fires;
//! * **PA** otherwise.
//!
//! That rule is [`classify`]; `tests/sweep_execution_differential.rs` holds
//! it equal to Protocol S actually executed on sampled runs, trial by trial.
//!
//! The whole `t`-curve shares the single trial (common random numbers): the
//! frontier pass and the unit draw `u` are computed once, and each curve
//! point just compares against its own `t · u`. That makes cross-`t`
//! comparisons noise-free and the per-cell cost independent of curve length.
//!
//! # Determinism
//!
//! Cells are independent: cell `c` derives its RNG stream from
//! `mix64(seed, c)` and trial `k` within it from `mix64(cell_seed, k)`, so a
//! trial's draws depend on its identity alone, never on the worker that runs
//! it. [`run_sweep`] cuts every cell's trials into fixed-size chunks and
//! hands all `(cell, chunk)` items to one worker pool, so the worker count is
//! no longer capped by the cell count and no core idles while a slow cell
//! finishes. Each cell's set-up (graph statistics, adversary and frontier
//! prune plan) is built once, by the first worker to reach the cell, and
//! shared read-only; the plan is the same whichever worker built it. Chunk
//! tallies are integer sums (and min/max), so merging them in any order
//! gives the same cell: reports are byte-identical for a given
//! `(config, seed)` across thread counts (the `threads` knob is serialized
//! as 0, like `SimReport`). All tallies are integer [`BernoulliEstimate`]s;
//! the only floats in a report are echoed config parameters.

use crate::report::Table;
use ca_core::error::CaError;
use ca_core::graph::{GraphStats, TopologySpec};
use ca_core::level::{modified_level_extremes_into, FrontierPlan, LevelScratch};
use ca_core::outcome::Outcome;
use ca_core::run::EdgeRun;
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{mix64, resolve_workers, BernoulliEstimate};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Configuration of one scenario sweep: the cross product of topologies and
/// adversaries, the Protocol S firing-range curve, and the sampling budget.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepConfig {
    /// Topologies to sweep (each a seed-deterministic generator spec).
    pub topologies: Vec<TopologySpec>,
    /// Weak-adversary loss models to sweep.
    pub adversaries: Vec<LossModel>,
    /// Protocol S firing ranges `t = 1/ε` for the tradeoff curve.
    pub t_curve: Vec<u32>,
    /// Monte Carlo trials per cell.
    pub trials: u64,
    /// Root seed; cell `c` uses `mix64(seed, c)`.
    pub seed: u64,
    /// Horizon slack: each cell runs `N = diameter + horizon_slack` rounds,
    /// giving information `horizon_slack` spare rounds beyond one graph
    /// traversal.
    pub horizon_slack: u32,
    /// Worker threads (0 = `CA_THREADS` or all cores). Serialized as 0 so
    /// reports stay byte-identical across thread counts.
    pub threads: usize,
}

impl ScenarioSweepConfig {
    /// The default scenario set at process count `m`: a near-square grid
    /// (high diameter), a Watts–Strogatz small world and a Barabási–Albert
    /// scale-free graph (low diameter), each under iid 5% loss and a bursty
    /// Gilbert–Elliott channel with the same ~9% stationary loss character.
    pub fn default_at(m: usize, trials: u64, seed: u64) -> Self {
        ScenarioSweepConfig {
            topologies: vec![
                TopologySpec::near_square_grid(m),
                TopologySpec::SmallWorld {
                    m,
                    k: 6,
                    beta: 0.1,
                    seed: 1,
                },
                TopologySpec::ScaleFree {
                    m,
                    attach: 3,
                    seed: 1,
                },
            ],
            adversaries: vec![
                LossModel::Iid { p: 0.05 },
                LossModel::GilbertElliott {
                    loss_good: 0.01,
                    loss_bad: 0.5,
                    good_to_bad: 0.05,
                    bad_to_good: 0.25,
                },
            ],
            t_curve: vec![2, 4, 8, 16],
            trials,
            seed,
            horizon_slack: 4,
            threads: 0,
        }
    }

    fn validate(&self) -> Result<(), CaError> {
        if self.topologies.is_empty() {
            return Err(CaError::malformed("sweep needs at least one topology"));
        }
        if self.adversaries.is_empty() {
            return Err(CaError::malformed("sweep needs at least one adversary"));
        }
        if self.t_curve.is_empty() || self.t_curve.contains(&0) {
            return Err(CaError::malformed(
                "sweep needs a nonempty t-curve of positive firing ranges",
            ));
        }
        if self.trials == 0 {
            return Err(CaError::malformed("sweep needs at least one trial"));
        }
        // Checked here, so a bad model fails the sweep before any worker
        // starts.
        for model in &self.adversaries {
            model.check()?;
        }
        Ok(())
    }
}

/// One point of a cell's tradeoff curve: outcome tallies at firing range `t`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Protocol S firing range `t = 1/ε` (the paper's `L/U` axis up to `N`).
    pub t: u32,
    /// Total-attack (liveness) tally.
    pub ta: BernoulliEstimate,
    /// Partial-attack (unsafety) tally.
    pub pa: BernoulliEstimate,
    /// No-attack tally.
    pub na: BernoulliEstimate,
}

/// One topology × adversary cell of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// The topology spec (reproducible: `spec.build()` regenerates the graph).
    pub topology: TopologySpec,
    /// Short topology name for tables.
    pub topology_name: String,
    /// The adversary loss model.
    pub adversary: LossModel,
    /// Short adversary name for tables.
    pub adversary_name: String,
    /// Generated-graph statistics (the frontier's x-axis material).
    pub graph: GraphStats,
    /// The cell's horizon `N = diameter + horizon_slack`.
    pub horizon: u32,
    /// Trials run.
    pub trials: u64,
    /// Sum over trials of `min_i ML_i` (integer, for byte-stable means).
    pub ml_min_sum: u64,
    /// Sum over trials of `max_i ML_i`.
    pub ml_max_sum: u64,
    /// Smallest `min_i ML_i` observed.
    pub ml_floor: u32,
    /// Largest `max_i ML_i` observed.
    pub ml_ceiling: u32,
    /// The tradeoff curve, one point per configured `t`.
    pub points: Vec<FrontierPoint>,
}

impl ScenarioCell {
    /// Mean over trials of the run-wide modified level `min_i ML_i`.
    pub fn mean_ml_min(&self) -> f64 {
        self.ml_min_sum as f64 / self.trials as f64
    }

    /// Mean over trials of `max_i ML_i`.
    pub fn mean_ml_max(&self) -> f64 {
        self.ml_max_sum as f64 / self.trials as f64
    }
}

/// The byte-stable result of [`run_sweep`]. Contains no wall-clock fields;
/// the `ca sweep --compare` drift gate relies on exact equality.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepReport {
    /// Report schema version.
    pub schema: u32,
    /// The configuration that produced it (threads zeroed).
    pub config: ScenarioSweepConfig,
    /// One cell per topology × adversary pair, topology-major.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioSweepReport {
    /// Renders the per-cell frontier as a [`Table`] (one row per cell × t).
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec![
            "topology",
            "adversary",
            "diam",
            "deg",
            "N",
            "t",
            "TA",
            "PA",
            "NA",
        ]);
        for cell in &self.cells {
            for pt in &cell.points {
                table.push_row(vec![
                    cell.topology_name.clone(),
                    cell.adversary_name.clone(),
                    cell.graph.diameter.to_string(),
                    format!("{:.1}", cell.graph.degree_mean()),
                    cell.horizon.to_string(),
                    pt.t.to_string(),
                    format!("{:.3}", pt.ta.point()),
                    format!("{:.3}", pt.pa.point()),
                    format!("{:.3}", pt.na.point()),
                ]);
            }
        }
        table
    }
}

/// Trials per work item of the sweep pool. Small enough that the last items
/// of a sweep leave little idle time; large enough that an item's set-up
/// lookup and tally merge are noise next to its trials.
const CHUNK_TRIALS: u64 = 2;

/// A cell's read-only set-up, built by the first worker that needs it and
/// shared by every worker after.
struct CellSetup {
    stats: GraphStats,
    horizon: u32,
    weak: WeakAdversary,
    /// The frontier prune plan of the cell's edge support, built once in
    /// the building worker's scratch.
    plan: Option<Arc<FrontierPlan>>,
}

impl CellSetup {
    fn build(
        topology: &TopologySpec,
        adversary: &LossModel,
        horizon_slack: u32,
        scratch: &mut LevelScratch,
    ) -> Result<Self, CaError> {
        let graph = topology.build().map_err(CaError::from)?;
        let stats = GraphStats::of(&graph);
        let horizon = stats.diameter + horizon_slack;
        let weak = WeakAdversary::try_new(&graph, horizon, *adversary)?;
        let plan = scratch.plan_for(weak.template(), true);
        Ok(CellSetup {
            stats,
            horizon,
            weak,
            plan,
        })
    }
}

/// Protocol S's outcome on a run with modified-level extremes
/// `(ml_min, ml_max)` when the leader draws `rfire` (input-based validity,
/// zero slack): by Lemma 6.4 process `i` fires iff `ML_i ≥ rfire`, so TA iff
/// every count clears `rfire`, NA iff none does. Processes with `ML = 0`
/// never fire, and `rfire > 0` covers them.
pub fn classify(ml_min: u32, ml_max: u32, rfire: f64) -> Outcome {
    if f64::from(ml_min) >= rfire {
        Outcome::TotalAttack
    } else if f64::from(ml_max) < rfire {
        Outcome::NoAttack
    } else {
        Outcome::PartialAttack
    }
}

/// A cell's integer tallies over some of its trials. Merging adds them, so a
/// cell's total does not depend on which worker ran which chunk, or when.
struct Tally {
    ml_min_sum: u64,
    ml_max_sum: u64,
    ml_floor: u32,
    ml_ceiling: u32,
    points: Vec<FrontierPoint>,
}

impl Tally {
    fn new(t_curve: &[u32]) -> Self {
        Tally {
            ml_min_sum: 0,
            ml_max_sum: 0,
            ml_floor: u32::MAX,
            ml_ceiling: 0,
            points: t_curve
                .iter()
                .map(|&t| FrontierPoint {
                    t,
                    ta: BernoulliEstimate::default(),
                    pa: BernoulliEstimate::default(),
                    na: BernoulliEstimate::default(),
                })
                .collect(),
        }
    }

    /// Classifies one trial from its `ML` extremes and `rfire` unit draw.
    fn record(&mut self, ml_min: u32, ml_max: u32, u: f64) {
        self.ml_min_sum += u64::from(ml_min);
        self.ml_max_sum += u64::from(ml_max);
        self.ml_floor = self.ml_floor.min(ml_min);
        self.ml_ceiling = self.ml_ceiling.max(ml_max);
        for pt in self.points.iter_mut() {
            let outcome = classify(ml_min, ml_max, f64::from(pt.t) * u);
            pt.ta.record(outcome == Outcome::TotalAttack);
            pt.na.record(outcome == Outcome::NoAttack);
            pt.pa.record(outcome == Outcome::PartialAttack);
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.ml_min_sum += other.ml_min_sum;
        self.ml_max_sum += other.ml_max_sum;
        self.ml_floor = self.ml_floor.min(other.ml_floor);
        self.ml_ceiling = self.ml_ceiling.max(other.ml_ceiling);
        for (a, b) in self.points.iter_mut().zip(&other.points) {
            a.ta.merge(&b.ta);
            a.pa.merge(&b.pa);
            a.na.merge(&b.na);
        }
    }
}

/// Runs trials `trials` of one cell into `tally`, sampling into `er` (sized
/// for the cell) and running the frontier in `scratch`.
fn run_trials(
    setup: &CellSetup,
    cell_seed: u64,
    trials: Range<u64>,
    er: &mut EdgeRun,
    scratch: &mut LevelScratch,
    tally: &mut Tally,
) {
    for trial in trials {
        // One RNG stream per trial, like the Monte Carlo engine: trial
        // identity, not worker identity, determines the draws.
        let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
        // Draw order: slot coins in canonical link-major order, then one
        // rfire unit coin — shared by the whole t-curve (CRN).
        setup.weak.sample_edges_into(er, &mut rng);
        let (ml_min, ml_max) = modified_level_extremes_into(&*er, scratch);
        let u = (rng.next_u64() as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
        tally.record(ml_min, ml_max, u);
    }
}

/// Runs the scenario sweep, returning a byte-stable report.
///
/// Every cell's trials are cut into fixed-size chunks, and one worker pool
/// takes `(cell, chunk)` items chunk-major, so the first chunks of all cells
/// start together and no core idles while one slow cell finishes. The first worker to reach a cell builds its set-up (graph
/// statistics, adversary, prune plan) in its own scratch; the others share
/// it read-only. Each worker reuses one [`EdgeRun`] and one [`LevelScratch`].
///
/// # Errors
///
/// Returns an error if the config is degenerate (empty axes, zero trials or
/// firing ranges), a loss model is invalid ([`LossModel::check`]) or a
/// topology spec fails to build — the lowest-index failing cell's error, at
/// any thread count.
pub fn run_sweep(config: &ScenarioSweepConfig) -> Result<ScenarioSweepReport, CaError> {
    config.validate()?;
    let cells: Vec<(usize, usize)> = (0..config.topologies.len())
        .flat_map(|t| (0..config.adversaries.len()).map(move |a| (t, a)))
        .collect();
    let chunks = config.trials.div_ceil(CHUNK_TRIALS);
    let items = chunks.saturating_mul(cells.len() as u64);
    let workers = resolve_workers(config.threads).min(usize::try_from(items).unwrap_or(usize::MAX));
    let setups: Vec<OnceLock<Result<CellSetup, CaError>>> =
        cells.iter().map(|_| OnceLock::new()).collect();
    let tallies: Vec<Mutex<Tally>> = cells
        .iter()
        .map(|_| Mutex::new(Tally::new(&config.t_curve)))
        .collect();
    let next = AtomicU64::new(0);
    let work = || {
        let mut scratch = LevelScratch::new();
        let mut er: Option<EdgeRun> = None;
        let mut er_cell = usize::MAX;
        loop {
            let item = next.fetch_add(1, Ordering::Relaxed);
            if item >= items {
                break;
            }
            let cell = (item % cells.len() as u64) as usize;
            let chunk = item / cells.len() as u64;
            let (t, a) = cells[cell];
            let setup = setups[cell].get_or_init(|| {
                CellSetup::build(
                    &config.topologies[t],
                    &config.adversaries[a],
                    config.horizon_slack,
                    &mut scratch,
                )
            });
            // A failed set-up skips its cell's chunks; the lowest-index
            // error is picked after the pool.
            let Ok(setup) = setup else {
                continue;
            };
            let er = match &mut er {
                Some(er) if er_cell == cell => er,
                Some(er) => {
                    er.clone_from(setup.weak.template());
                    er
                }
                None => er.insert(setup.weak.edge_template()),
            };
            er_cell = cell;
            if let Some(plan) = &setup.plan {
                scratch.adopt_plan(Arc::clone(plan));
            }
            let first = chunk * CHUNK_TRIALS;
            let trials = first..(first + CHUNK_TRIALS).min(config.trials);
            let mut tally = Tally::new(&config.t_curve);
            run_trials(
                setup,
                mix64(config.seed, cell as u64),
                trials,
                er,
                &mut scratch,
                &mut tally,
            );
            tallies[cell]
                .lock()
                .expect("no worker panics while merging")
                .merge(&tally);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        // Join explicitly: the scope alone waits only for the closures, not
        // for the threads to exit, so the next sweep's workers could start
        // before this sweep's malloc arenas are free to reuse.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut out = Vec::with_capacity(cells.len());
    for ((setup, tally), &(t, a)) in setups.into_iter().zip(tallies).zip(&cells) {
        let setup = setup.into_inner().expect("every cell has a chunk")?;
        let tally = tally.into_inner().expect("no worker panics while merging");
        let (topology, adversary) = (&config.topologies[t], &config.adversaries[a]);
        out.push(ScenarioCell {
            topology: topology.clone(),
            topology_name: topology.name(),
            adversary: *adversary,
            adversary_name: adversary.name(),
            graph: setup.stats,
            horizon: setup.horizon,
            trials: config.trials,
            ml_min_sum: tally.ml_min_sum,
            ml_max_sum: tally.ml_max_sum,
            ml_floor: tally.ml_floor,
            ml_ceiling: tally.ml_ceiling,
            points: tally.points,
        });
    }
    let mut echoed = config.clone();
    echoed.threads = 0;
    Ok(ScenarioSweepReport {
        schema: 1,
        config: echoed,
        cells: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScenarioSweepConfig {
        ScenarioSweepConfig {
            topologies: vec![TopologySpec::Ring { m: 8 }, TopologySpec::Complete { m: 5 }],
            adversaries: vec![
                LossModel::Iid { p: 0.1 },
                LossModel::GilbertElliott {
                    loss_good: 0.02,
                    loss_bad: 0.6,
                    good_to_bad: 0.1,
                    bad_to_good: 0.3,
                },
            ],
            t_curve: vec![2, 4, 8],
            trials: 64,
            seed: 0xCA11,
            horizon_slack: 3,
            threads: 1,
        }
    }

    /// The serial per-cell loop `run_sweep` ran before trial chunking, kept
    /// as the oracle: one cell at a time, every trial in order, one scratch
    /// and one run per cell.
    fn oracle_cell(
        topology: &TopologySpec,
        adversary: &LossModel,
        config: &ScenarioSweepConfig,
        cell_seed: u64,
    ) -> Result<ScenarioCell, CaError> {
        let graph = topology.build().map_err(CaError::from)?;
        let stats = GraphStats::of(&graph);
        let horizon = stats.diameter + config.horizon_slack;
        let weak = WeakAdversary::new(&graph, horizon, *adversary);
        let mut er = weak.edge_template();
        let mut scratch = LevelScratch::new();
        let mut points: Vec<FrontierPoint> = config
            .t_curve
            .iter()
            .map(|&t| FrontierPoint {
                t,
                ta: BernoulliEstimate::default(),
                pa: BernoulliEstimate::default(),
                na: BernoulliEstimate::default(),
            })
            .collect();
        let (mut ml_min_sum, mut ml_max_sum) = (0u64, 0u64);
        let (mut ml_floor, mut ml_ceiling) = (u32::MAX, 0u32);
        for trial in 0..config.trials {
            let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
            weak.sample_edges_into(&mut er, &mut rng);
            let (ml_min, ml_max) = modified_level_extremes_into(&er, &mut scratch);
            let u = (rng.next_u64() as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
            ml_min_sum += u64::from(ml_min);
            ml_max_sum += u64::from(ml_max);
            ml_floor = ml_floor.min(ml_min);
            ml_ceiling = ml_ceiling.max(ml_max);
            for pt in points.iter_mut() {
                let rfire = f64::from(pt.t) * u;
                let ta = f64::from(ml_min) >= rfire;
                let na = f64::from(ml_max) < rfire;
                pt.ta.record(ta);
                pt.na.record(na);
                pt.pa.record(!ta && !na);
            }
        }
        Ok(ScenarioCell {
            topology: topology.clone(),
            topology_name: topology.name(),
            adversary: *adversary,
            adversary_name: adversary.name(),
            graph: stats,
            horizon,
            trials: config.trials,
            ml_min_sum,
            ml_max_sum,
            ml_floor,
            ml_ceiling,
            points,
        })
    }

    fn oracle_sweep(config: &ScenarioSweepConfig) -> Result<ScenarioSweepReport, CaError> {
        let mut cells = Vec::new();
        for topology in &config.topologies {
            for adversary in &config.adversaries {
                let seed = mix64(config.seed, cells.len() as u64);
                cells.push(oracle_cell(topology, adversary, config, seed)?);
            }
        }
        let mut echoed = config.clone();
        echoed.threads = 0;
        Ok(ScenarioSweepReport {
            schema: 1,
            config: echoed,
            cells,
        })
    }

    #[test]
    fn chunked_sweep_equals_the_serial_cell_loop_at_any_thread_count() {
        // Trial counts below, at and off multiples of the chunk size, and
        // more workers than cells (and than work items).
        for trials in [1, 7, 13, 64] {
            let mut config = tiny_config();
            config.trials = trials;
            let want = serde::json::to_string(&oracle_sweep(&config).unwrap()).unwrap();
            for threads in [1, 2, 3, 8] {
                config.threads = threads;
                let got = serde::json::to_string(&run_sweep(&config).unwrap()).unwrap();
                assert_eq!(got, want, "trials {trials}, threads {threads}");
            }
        }
    }

    #[test]
    fn the_pool_returns_the_lowest_index_cell_error() {
        // Two topologies that fail to build, after one that builds: the
        // report is the first failing cell's error at any worker count, and
        // no worker waits on a set-up that failed.
        let small_world = |k| TopologySpec::SmallWorld {
            m: 40,
            k,
            beta: 0.1,
            seed: 1,
        };
        let mut config = tiny_config();
        config.topologies = vec![TopologySpec::Ring { m: 8 }, small_world(3), small_world(40)];
        let want = CaError::from(small_world(3).build().expect_err("odd k"));
        assert_ne!(
            want.to_string(),
            CaError::from(small_world(40).build().expect_err("k >= m")).to_string()
        );
        for threads in [1, 8] {
            config.threads = threads;
            let err = run_sweep(&config).expect_err("invalid topologies");
            assert_eq!(err.to_string(), want.to_string(), "threads {threads}");
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut one = tiny_config();
        one.threads = 1;
        let mut four = tiny_config();
        four.threads = 4;
        let a = run_sweep(&one).unwrap();
        let b = run_sweep(&four).unwrap();
        assert_eq!(a, b, "reports must not depend on worker count");
        assert_eq!(
            serde::json::to_string(&a).unwrap(),
            serde::json::to_string(&b).unwrap()
        );
        assert_eq!(a.config.threads, 0, "threads echoed as 0");
    }

    #[test]
    fn outcome_tallies_partition_trials() {
        let report = run_sweep(&tiny_config()).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.trials, 64);
            assert!(cell.ml_floor <= cell.ml_ceiling);
            for pt in &cell.points {
                let total = pt.ta.point() * 64.0 + pt.pa.point() * 64.0 + pt.na.point() * 64.0;
                assert!(
                    (total - 64.0).abs() < 1e-9,
                    "TA/PA/NA must partition the trials"
                );
            }
        }
    }

    #[test]
    fn liveness_decreases_with_t_on_each_cell() {
        // rfire = t·u grows with t under shared u, so TA (min ML ≥ rfire) is
        // monotone nonincreasing along the curve — exactly the §8 tradeoff
        // shape, and a direct consequence of CRN sharing.
        let report = run_sweep(&tiny_config()).unwrap();
        for cell in &report.cells {
            for w in cell.points.windows(2) {
                assert!(
                    w[0].ta.point() >= w[1].ta.point(),
                    "TA must fall as t grows: {cell:?}"
                );
            }
        }
    }

    #[test]
    fn complete_graph_outlevels_ring_under_same_loss() {
        // Same loss model, same trial budget: the dense graph reaches higher
        // run-wide ML than the ring (more disjoint paths, smaller diameter).
        let report = run_sweep(&tiny_config()).unwrap();
        let ring_iid = &report.cells[0];
        let k5_iid = &report.cells[2];
        assert_eq!(ring_iid.topology_name, "ring8");
        assert_eq!(k5_iid.topology_name, "k5");
        assert!(
            k5_iid.mean_ml_min() > ring_iid.mean_ml_min(),
            "K5 {} vs ring {}",
            k5_iid.mean_ml_min(),
            ring_iid.mean_ml_min()
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut c = tiny_config();
        c.topologies.clear();
        assert!(run_sweep(&c).is_err());
        let mut c = tiny_config();
        c.trials = 0;
        assert!(run_sweep(&c).is_err());
        let mut c = tiny_config();
        c.t_curve = vec![0];
        assert!(run_sweep(&c).is_err());
    }

    #[test]
    fn rejects_invalid_loss_models_with_an_error() {
        let ge = |good_to_bad, bad_to_good| LossModel::GilbertElliott {
            loss_good: 0.02,
            loss_bad: 0.6,
            good_to_bad,
            bad_to_good,
        };
        for (model, reason) in [
            (
                LossModel::Iid { p: f64::NAN },
                "p must be in [0,1], got NaN",
            ),
            (LossModel::Iid { p: 1.5 }, "p must be in [0,1], got 1.5"),
            (ge(-0.1, 0.3), "good_to_bad must be in [0,1], got -0.1"),
            (ge(0.0, 0.0), "at least one nonzero transition rate"),
        ] {
            let mut c = tiny_config();
            c.adversaries.push(model);
            let err = run_sweep(&c).expect_err("invalid loss model");
            assert!(
                matches!(err, CaError::MalformedConfig { .. }) && err.to_string().contains(reason),
                "{model:?}: {err}"
            );
        }
    }

    #[test]
    fn report_serde_round_trips_and_tables() {
        let report = run_sweep(&tiny_config()).unwrap();
        let json = serde::json::to_string_pretty(&report).unwrap();
        let back: ScenarioSweepReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let rendered = report.table().to_string();
        assert!(rendered.contains("ring8"));
        assert!(rendered.contains("ge0.02-0.6"));
    }
}
