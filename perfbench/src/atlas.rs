//! `atlas-grid` and `atlas-lowdiam`: the default `ca sweep --m 1000` atlas,
//! split by topology so each workload's job time is set by one frontier
//! regime.
//!
//! The untraced job is one [`run_sweep`] call. The traced job replays the
//! same cells through the same public calls and seed streams — per cell
//! `mix64(seed, cell)`, per trial `mix64(cell_seed, trial)`, then
//! `sample_edges_into`, `modified_level_extremes_into` and the `rfire` unit
//! draw — with a span around each call, and must rebuild the untraced report
//! byte for byte.

use crate::report::{fnv1a, metric, timed, Checks, Metric, Verdict};
use crate::stats::{quantile, tail_quantile, Sample};
use crate::trace::{ratio, NameStats, Trace};
use crate::Workload;
use ca_analysis::sweep::{FrontierPoint, ScenarioCell};
use ca_analysis::{run_sweep, ScenarioSweepConfig, ScenarioSweepReport};
use ca_core::error::CaError;
use ca_core::graph::{GraphStats, TopologySpec};
use ca_core::level::{modified_level_extremes_into, LevelScratch};
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{mix64, parallel_map, BernoulliEstimate};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Process count of every atlas topology.
pub const M: usize = 1000;

/// Which half of the default atlas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Atlas {
    /// The 25×40 grid (diameter 63): long horizons, frontier-bound.
    Grid,
    /// The Watts–Strogatz and Barabási–Albert graphs (diameters 11 and 6):
    /// short horizons, where set-up and per-call costs weigh more.
    LowDiam,
}

impl Atlas {
    /// Monte Carlo trials per cell, sized so a job takes about half a
    /// second on two cores (many short jobs give a steadier median).
    pub fn trials(self) -> u64 {
        match self {
            Atlas::Grid => 50,
            Atlas::LowDiam => 100,
        }
    }

    /// The `fnv1a` digest of the report at [`crate::DEFAULT_SEED`].
    fn golden_digest(self) -> u64 {
        match self {
            Atlas::Grid => 0xb316_c571_64ab_4e89,
            Atlas::LowDiam => 0xc321_cc85_b539_5040,
        }
    }
}

/// The workload's sweep config: the default atlas at `M`, restricted to
/// this half's topologies. Topology seeds stay the atlas's own, so the
/// graphs (and the work per trial) do not change with the benchmark seed;
/// the seed drives the adversary's coins and the `rfire` draws.
pub fn config(atlas: Atlas, seed: u64, threads: usize) -> ScenarioSweepConfig {
    let mut config = ScenarioSweepConfig::default_at(M, atlas.trials(), seed);
    match atlas {
        Atlas::Grid => config.topologies.truncate(1),
        Atlas::LowDiam => {
            config.topologies.remove(0);
        }
    }
    config.threads = threads;
    config
}

/// Deterministic work counts of one cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Trials classified.
    pub trials: u64,
    /// Slots sampled: directed edges × horizon per trial.
    pub slots: u64,
    /// Slots the adversary destroyed (`sample_edges_into`'s return).
    pub dropped: u64,
}

impl CellCounts {
    fn add(&mut self, o: CellCounts) {
        self.trials += o.trials;
        self.slots += o.slots;
        self.dropped += o.dropped;
    }
}

/// Runs one cell like `run_sweep` does, with a span around each call.
fn traced_cell(
    topology: &TopologySpec,
    adversary: &LossModel,
    config: &ScenarioSweepConfig,
    cell: u32,
    tr: &mut Trace,
) -> Result<(ScenarioCell, CellCounts), CaError> {
    let cell_seed = mix64(config.seed, u64::from(cell));
    let graph = tr
        .time("graph.build", cell, || topology.build())
        .map_err(CaError::from)?;
    let stats = tr.time("graph.stats", cell, || GraphStats::of(&graph));
    let horizon = stats.diameter + config.horizon_slack;
    let (weak, mut er) = tr.time("weak.new", cell, || {
        let weak = WeakAdversary::new(&graph, horizon, *adversary);
        let er = weak.edge_template();
        (weak, er)
    });
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
    let slots_per_trial = er.directed_edge_count() as u64 * u64::from(horizon);
    let mut counts = CellCounts::default();
    for trial in 0..config.trials {
        let mut rng = StdRng::seed_from_u64(mix64(cell_seed, trial));
        let t0 = tr.now();
        let dropped = weak.sample_edges_into(&mut er, &mut rng);
        let t1 = tr.now();
        let (ml_min, ml_max) = modified_level_extremes_into(&er, &mut scratch);
        let t2 = tr.now();
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
        let t3 = tr.now();
        tr.leaf("weak.sample", cell, t0, t1);
        tr.leaf("level.frontier", cell, t1, t2);
        tr.leaf("sweep.classify", cell, t2, t3);
        counts.add(CellCounts {
            trials: 1,
            slots: slots_per_trial,
            dropped,
        });
    }
    let cell = ScenarioCell {
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
    };
    Ok((cell, counts))
}

/// The traced replay of [`run_sweep`]: the same cells on the same number of
/// workers, each cell inside a `sweep.cell` span. Returns the rebuilt
/// report (`schema` taken from the caller), the merged trace, the summed
/// counts and the wall time of each cell.
pub fn traced_sweep(
    config: &ScenarioSweepConfig,
    schema: u32,
    epoch: Instant,
) -> Result<(ScenarioSweepReport, Trace, CellCounts, Vec<u64>), CaError> {
    let cells: Vec<(usize, usize)> = (0..config.topologies.len())
        .flat_map(|t| (0..config.adversaries.len()).map(move |a| (t, a)))
        .collect();
    let results = parallel_map(cells.len(), config.threads, |idx| {
        let (t, a) = cells[idx];
        let mut tr = Trace::new(epoch);
        let span = tr.open("sweep.cell", idx as u32);
        let out = traced_cell(
            &config.topologies[t],
            &config.adversaries[a],
            config,
            idx as u32,
            &mut tr,
        );
        tr.close(span);
        (out, tr)
    });
    let mut trace = Trace::new(epoch);
    let mut counts = CellCounts::default();
    let mut walls = Vec::new();
    let mut out = Vec::with_capacity(results.len());
    for (cell, tr) in results {
        walls.push(tr.spans()[0].ns());
        trace.absorb(tr);
        let (cell, c) = cell?;
        counts.add(c);
        out.push(cell);
    }
    let mut echoed = config.clone();
    echoed.threads = 0;
    let report = ScenarioSweepReport {
        schema,
        config: echoed,
        cells: out,
    };
    Ok((report, trace, counts, walls))
}

/// The output checks of one cell: TA, PA and NA partition the trials at
/// every `t`, TA does not rise along the `t`-curve, and Lemma 6.2 holds in
/// aggregate (`max ML − min ML ≤ 1` per trial, so the sums differ by at
/// most the trial count).
pub fn check_cell(cell: &ScenarioCell, trials: u64) -> Vec<String> {
    let mut v = Verdict::default();
    v.check(cell.trials == trials, || {
        format!("{} trials, expected {trials}", cell.trials)
    });
    for pt in &cell.points {
        let parts = [pt.ta, pt.pa, pt.na];
        v.check(
            parts.iter().all(|e| e.trials == cell.trials)
                && parts.iter().map(|e| e.successes).sum::<u64>() == cell.trials,
            || format!("TA/PA/NA do not partition the trials at t = {}", pt.t),
        );
    }
    for w in cell.points.windows(2) {
        v.check(w[0].ta.successes >= w[1].ta.successes, || {
            format!("TA rises from t = {} to t = {}", w[0].t, w[1].t)
        });
    }
    v.check(
        cell.ml_min_sum <= cell.ml_max_sum && cell.ml_max_sum - cell.ml_min_sum <= cell.trials,
        || {
            format!(
                "Lemma 6.2 fails in aggregate: ml sums {}..{} over {} trials",
                cell.ml_min_sum, cell.ml_max_sum, cell.trials
            )
        },
    );
    v.0
}

/// The atlas workloads.
#[derive(Debug)]
pub struct AtlasWorkload {
    atlas: Atlas,
    seed: u64,
    config: ScenarioSweepConfig,
    /// The first untraced report, serialized: every later job, traced or
    /// not, must reproduce it byte for byte.
    reference: Option<(u32, String)>,
    counts: Vec<CellCounts>,
    walls: Vec<Vec<u64>>,
}

impl AtlasWorkload {
    /// The workload at `seed` on `threads` workers.
    pub fn new(atlas: Atlas, seed: u64, threads: usize) -> Self {
        AtlasWorkload {
            atlas,
            seed,
            config: config(atlas, seed, threads),
            reference: None,
            counts: Vec::new(),
            walls: Vec::new(),
        }
    }

    fn trials(&self) -> u64 {
        (self.config.topologies.len() * self.config.adversaries.len()) as u64 * self.config.trials
    }

    /// Checks one report's cells and, after the first, its equality with
    /// the reference.
    fn check(&mut self, report: &ScenarioSweepReport, checks: &mut Checks, traced: bool) {
        let json = serde::json::to_string(report).expect("sweep reports serialize");
        let mut whole = Verdict::default();
        match &self.reference {
            None => {
                let digest = fnv1a(json.as_bytes());
                if self.seed == crate::DEFAULT_SEED {
                    let golden = self.atlas.golden_digest();
                    whole.check(digest == golden, || {
                        format!("report digest {digest:#018x}, golden {golden:#018x}")
                    });
                }
                eprintln!("report digest {digest:#018x}");
                self.reference = Some((report.schema, json));
            }
            Some((_, reference)) => {
                whole.check(&json == reference, || {
                    let kind = if traced { "traced" } else { "repeated" };
                    format!("{kind} report differs from the first report")
                });
            }
        }
        for (i, cell) in report.cells.iter().enumerate() {
            let mut errors = check_cell(cell, self.config.trials);
            errors.extend(whole.0.iter().cloned());
            checks.operation(&format!("cell {i} ({})", cell.topology_name), errors);
        }
    }
}

impl Workload for AtlasWorkload {
    fn work_unit(&self) -> &'static str {
        "classified trials"
    }

    fn setup(&mut self) {
        for topology in &self.config.topologies {
            let graph = topology.build().expect("atlas topologies build");
            let stats = GraphStats::of(&graph);
            for adversary in &self.config.adversaries {
                let weak = WeakAdversary::new(
                    &graph,
                    stats.diameter + self.config.horizon_slack,
                    *adversary,
                );
                std::hint::black_box(weak.edge_template());
            }
        }
    }

    fn job(&mut self, checks: &mut Checks) -> Vec<Sample> {
        let (secs, result) = timed(|| run_sweep(std::hint::black_box(&self.config)));
        let work = match result {
            Ok(report) => {
                self.check(&report, checks, false);
                self.trials() as f64
            }
            Err(e) => {
                checks.error("run_sweep", e);
                0.0
            }
        };
        vec![Sample {
            kind: "run_sweep",
            work,
            secs,
        }]
    }

    fn traced_job(&mut self, checks: &mut Checks, epoch: Instant) -> (Vec<Sample>, Trace) {
        let schema = self.reference.as_ref().map_or(1, |r| r.0);
        let (secs, result) = timed(|| traced_sweep(&self.config, schema, epoch));
        let (work, trace) = match result {
            Ok((report, trace, counts, walls)) => {
                self.check(&report, checks, true);
                self.counts.push(counts);
                self.walls.push(walls);
                (self.trials() as f64, trace)
            }
            Err(e) => {
                checks.error("traced sweep", e);
                (0.0, Trace::new(epoch))
            }
        };
        let sample = Sample {
            kind: "run_sweep",
            work,
            secs,
        };
        (vec![sample], trace)
    }

    fn min_traced_jobs(&self) -> usize {
        // Enough frontier and sampler calls for their p99.
        crate::MIN_JOBS.max(1000usize.div_ceil(self.trials() as usize))
    }

    fn root_span(&self) -> &'static str {
        "sweep.cell"
    }

    fn layers(&self, names: &BTreeMap<&'static str, NameStats>, jobs: usize) -> Vec<Metric> {
        let empty = NameStats::default();
        let get = |n: &str| names.get(n).unwrap_or(&empty);
        let (sample, frontier, classify) = (
            get("weak.sample"),
            get("level.frontier"),
            get("sweep.classify"),
        );
        let cell_ns = get("sweep.cell").total_ns as f64;
        let mut total = CellCounts::default();
        for c in &self.counts {
            total.add(*c);
        }
        let trials = total.trials as f64;
        let delivered = (total.slots - total.dropped) as f64;
        let per_job_ms = |s: &NameStats| s.total_ns as f64 / jobs as f64 / 1e6;
        let skews: Vec<f64> = self
            .walls
            .iter()
            .map(|w| {
                let max = *w.iter().max().unwrap_or(&0) as f64;
                let mean = w.iter().sum::<u64>() as f64 / w.len().max(1) as f64;
                ratio(max, mean)
            })
            .collect();
        let us = |v: Option<f64>| v.map_or(0.0, |ns| ns / 1e3);
        vec![
            metric("graph.build_ms", per_job_ms(get("graph.build")), "ms"),
            metric("graph.stats_ms", per_job_ms(get("graph.stats")), "ms"),
            metric(
                "weak.sample_us_p50",
                us(quantile(&sample.durations, 0.5)),
                "us",
            ),
            metric(
                "weak.sample_us_p99",
                us(tail_quantile(&sample.durations, 0.99)),
                "us",
            ),
            metric(
                "weak.ns_per_slot",
                ratio(sample.total_ns as f64, total.slots as f64),
                "ns",
            ),
            metric(
                "weak.slots_per_trial",
                ratio(total.slots as f64, trials),
                "count",
            ),
            metric(
                "weak.share",
                ratio(sample.total_ns as f64, cell_ns),
                "ratio",
            ),
            metric(
                "level.frontier_us_p50",
                us(quantile(&frontier.durations, 0.5)),
                "us",
            ),
            metric(
                "level.frontier_us_p99",
                us(tail_quantile(&frontier.durations, 0.99)),
                "us",
            ),
            metric(
                "level.ns_per_delivered",
                ratio(frontier.total_ns as f64, delivered),
                "ns",
            ),
            metric(
                "level.delivered_per_trial",
                ratio(delivered, trials),
                "count",
            ),
            metric(
                "level.share",
                ratio(frontier.total_ns as f64, cell_ns),
                "ratio",
            ),
            metric(
                "sweep.classify_ns",
                ratio(classify.total_ns as f64, trials),
                "ns",
            ),
            metric(
                "sweep.cell_skew",
                crate::stats::median(&skews).unwrap_or(0.0),
                "ratio",
            ),
        ]
    }

    fn counts(&self) -> Vec<String> {
        let trials = self.trials();
        match &self.reference {
            Some((_, json)) => vec![format!(
                "{} cells x {} trials = {trials} trials per job; report digest {:#018x}",
                self.config.topologies.len() * self.config.adversaries.len(),
                self.config.trials,
                fnv1a(json.as_bytes())
            )],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScenarioSweepConfig {
        ScenarioSweepConfig {
            topologies: vec![
                TopologySpec::Grid { rows: 4, cols: 6 },
                TopologySpec::SmallWorld {
                    m: 40,
                    k: 4,
                    beta: 0.1,
                    seed: 3,
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
            trials: 48,
            seed: 0xBE7C,
            horizon_slack: 4,
            threads: 2,
        }
    }

    #[test]
    fn traced_loop_equals_run_sweep() {
        let config = small_config();
        let untraced = run_sweep(&config).unwrap();
        let (traced, trace, counts, walls) =
            traced_sweep(&config, untraced.schema, Instant::now()).unwrap();
        assert_eq!(
            serde::json::to_string(&traced).unwrap(),
            serde::json::to_string(&untraced).unwrap()
        );
        assert_eq!(counts.trials, 4 * 48);
        assert_eq!(walls.len(), 4);
        // Three leaves per trial plus the cell span and its three set-up
        // leaves.
        assert_eq!(trace.spans().len(), 4 * (3 * 48 + 4));
        for cell in &untraced.cells {
            assert!(check_cell(cell, 48).is_empty(), "{cell:?}");
        }
    }

    #[test]
    fn cell_checks_catch_broken_tallies() {
        let report = run_sweep(&small_config()).unwrap();
        let mut cell = report.cells[0].clone();
        cell.points[1].ta.successes = cell.points[0].ta.successes + 1;
        assert!(!check_cell(&cell, 48).is_empty());
        let mut cell = report.cells[0].clone();
        cell.ml_max_sum = cell.ml_min_sum + 49;
        assert!(!check_cell(&cell, 48).is_empty());
        assert!(!check_cell(&report.cells[0], 47).is_empty());
    }

    #[test]
    fn workloads_split_the_default_atlas() {
        let grid = config(Atlas::Grid, 5, 1);
        let low = config(Atlas::LowDiam, 5, 1);
        let full = ScenarioSweepConfig::default_at(M, 1, 5);
        assert_eq!(grid.topologies, full.topologies[..1].to_vec());
        assert_eq!(low.topologies, full.topologies[1..].to_vec());
        assert_eq!(grid.adversaries, full.adversaries);
        assert_eq!(grid.seed, 5);
    }
}
