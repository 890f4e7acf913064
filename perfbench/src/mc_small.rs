//! `mc-small`: `simulate` on paper-size complete graphs, one arm per
//! Monte Carlo path.
//!
//! The sliced arm runs Protocol S (`ε = 1/8`) on K3 with `N = 8` under
//! `RandomDrop` p = 0.1, which `simulate` sends to the 64-lane
//! `SlicedEngine`. The scalar arm runs Protocol A on K2 with `N = 8` under
//! the same drop rate (E1's shape), which has no sliced form: every trial
//! samples a dense `Run`, refills the tapes, executes the automaton and
//! computes `min_modified_level_into`. No big graph is involved.
//!
//! The traced job replays both loops with the seed streams `simulate` uses
//! (`mix64(seed, trial)` per trial, the same static partition of trials or
//! 64-lane groups over workers) and must rebuild both reports exactly.

use crate::report::{metric, timed, Checks, Metric, Verdict};
use crate::stats::Sample;
use crate::trace::{ratio, NameStats, Trace};
use crate::Workload;
use ca_core::exec::{execute_outputs_into, ExecScratch};
use ca_core::exec_sliced::{SlicedEngine, SlicedSpec, LANES};
use ca_core::graph::Graph;
use ca_core::level::{min_modified_level_into, LevelScratch};
use ca_core::outcome::{Outcome, OutcomeCounts};
use ca_core::protocol::Protocol;
use ca_core::run::Run;
use ca_core::tape::TapeSet;
use ca_protocols::{ProtocolA, ProtocolS};
use ca_sim::{
    mix64, simulate, simulate_scalar, RandomDrop, RunSampler, RunningStats, SimConfig, SimReport,
    SlicedSampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Horizon of both arms.
pub const N: u32 = 8;
/// Per-message drop probability of both arms.
pub const DROP: f64 = 0.1;
/// Protocol S's `ε` in the sliced arm.
pub const EPS_S: f64 = 1.0 / 8.0;
/// Trials of the sliced arm per job.
pub const SLICED_TRIALS: u64 = 1_750_000;
/// Trials of the scalar arm per job.
pub const SCALAR_TRIALS: u64 = 200_000;
/// Names of the two arms, as samples and operations are labelled.
const ARMS: [&str; 2] = ["sliced arm", "scalar arm"];
/// Trials of the once-per-run differential between the sliced arm and
/// `simulate_scalar`.
pub const DIFFERENTIAL_TRIALS: u64 = 4096;

/// The two arms' inputs.
#[derive(Debug)]
pub struct Arms {
    k3: Graph,
    k2: Graph,
    proto_s: ProtocolS,
    proto_a: ProtocolA,
    drop_k3: RandomDrop,
    drop_k2: RandomDrop,
}

impl Arms {
    /// Builds every input of both arms.
    pub fn build() -> Arms {
        let k3 = Graph::complete(3).expect("K3");
        let k2 = Graph::complete(2).expect("K2");
        let drop_k3 = RandomDrop::new(&k3, N, DROP);
        let drop_k2 = RandomDrop::new(&k2, N, DROP);
        Arms {
            k3,
            k2,
            proto_s: ProtocolS::new(EPS_S),
            proto_a: ProtocolA::new(N),
            drop_k3,
            drop_k2,
        }
    }
}

/// Protocol A's unsafety bound `1/(N − 1)`.
fn eps_a() -> f64 {
    1.0 / f64::from(N - 1)
}

/// The per-arm checks: the report covers the configured trials, its
/// outcome tallies partition them, and the PA estimate is at most `eps`
/// within z = 4 (the lower end of its Wilson interval does not exceed it).
pub fn check_arm(report: &SimReport, trials: u64, eps: f64) -> Vec<String> {
    let mut v = Verdict::default();
    let c = &report.counts;
    v.check(report.trials == trials, || {
        format!("{} trials, expected {trials}", report.trials)
    });
    v.check(
        c.total_attack + c.partial_attack + c.no_attack == report.trials,
        || "TA/PA/NA do not partition the trials".into(),
    );
    let (lo, _) = report.disagreement().wilson_interval(4.0);
    v.check(lo <= eps, || {
        format!("PA {} exceeds ε = {eps} at z = 4", report.disagreement())
    });
    v.0
}

/// The traced replay of `simulate_sliced`: per worker, the 64-lane groups
/// `w, w + W, …`, each drawn lane by lane from its trial's RNG and run
/// through one [`SlicedEngine`] pass. Returns the report and one trace per
/// worker.
pub fn traced_sliced<P: Protocol + Sync, S: RunSampler>(
    protocol: &P,
    graph: &Graph,
    sampler: &S,
    config: SimConfig,
    epoch: Instant,
) -> Result<(SimReport, Vec<Trace>), String> {
    let spec = protocol
        .sliced_spec()
        .ok_or("protocol has no sliced form")?;
    let Some(SlicedSampler::IidDrop { base, p }) = sampler.sliced() else {
        return Err("sampler is not an iid drop".into());
    };
    let m = graph.len();
    let workers = config.threads.max(1);
    let groups = config.trials.div_ceil(LANES as u64);
    let parts: Vec<Result<(SimReport, Trace), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut tr = Trace::new(epoch);
                    let arm = tr.open("mc.arm", 0);
                    let mut engine = tr
                        .time("sliced.new", 0, || SlicedEngine::new(base, spec))
                        .ok_or("instance does not fit the sliced engine")?;
                    let slot_count = engine.slot_count();
                    let mut local = empty_report(m);
                    for g in (w as u64..groups).step_by(workers) {
                        let first = g * LANES as u64;
                        let active = (config.trials - first).min(LANES as u64) as usize;
                        let t0 = tr.now();
                        engine.begin_group();
                        for lane in 0..active {
                            let mut rng =
                                StdRng::seed_from_u64(mix64(config.seed, first + lane as u64));
                            for slot in 0..slot_count {
                                if rng.gen_bool(p) {
                                    engine.destroy_slot_lane(slot, lane);
                                }
                            }
                            if let SlicedSpec::RandomFire { offset, t, .. } = spec {
                                let word = rng.gen::<u64>();
                                let unit = (word as f64 + 1.0) / 18_446_744_073_709_551_616.0; // 2^64
                                engine.set_rfire(lane, offset + t * unit);
                            }
                        }
                        let t1 = tr.now();
                        let out = engine.run_group();
                        let t2 = tr.now();
                        let live: u64 = if active == LANES {
                            !0
                        } else {
                            (1u64 << active) - 1
                        };
                        let (mut ta, mut na) = (live, live);
                        for (i, &attack) in out.attack.iter().enumerate() {
                            ta &= attack;
                            na &= !attack;
                            local.attacks[i] += u64::from((attack & live).count_ones());
                        }
                        let (ta, na) = (u64::from(ta.count_ones()), u64::from(na.count_ones()));
                        local.counts.total_attack += ta;
                        local.counts.no_attack += na;
                        local.counts.partial_attack += active as u64 - ta - na;
                        for &ml in &out.min_count[..active] {
                            local.ml.record(f64::from(ml));
                        }
                        local.trials += active as u64;
                        let t3 = tr.now();
                        tr.leaf("sliced.lane_coins", 0, t0, t1);
                        tr.leaf("sliced.group", 0, t1, t2);
                        tr.leaf("mc.tally", 0, t2, t3);
                    }
                    tr.close(arm);
                    Ok((local, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sliced worker panicked"))
            .collect()
    });
    merge(m, parts)
}

/// The traced replay of `simulate_scalar` for a randomized sampler: per
/// worker, trials `w, w + W, …`, each sampled, executed and levelled with a
/// span around every call.
pub fn traced_scalar<P: Protocol + Sync, S: RunSampler>(
    protocol: &P,
    graph: &Graph,
    sampler: &S,
    config: SimConfig,
    epoch: Instant,
) -> Result<(SimReport, Vec<Trace>), String> {
    if sampler.fixed_run().is_some() {
        return Err("the scalar arm replays randomized samplers only".into());
    }
    let m = graph.len();
    let workers = config.threads.max(1);
    let parts: Vec<Result<(SimReport, Trace), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut tr = Trace::new(epoch);
                    let arm = tr.open("mc.arm", 1);
                    let mut local = empty_report(m);
                    let j_bits = protocol.tape_bits().max(1);
                    let mut tapes = TapeSet::empty(m);
                    let mut scratch = ExecScratch::new();
                    let mut sampled = Run::empty(0, 0);
                    let mut level_scratch = LevelScratch::new();
                    for t in (w as u64..config.trials).step_by(workers) {
                        let mut rng = StdRng::seed_from_u64(mix64(config.seed, t));
                        let t0 = tr.now();
                        sampler.sample_into(&mut sampled, &mut rng);
                        let t1 = tr.now();
                        tapes.fill_random(&mut rng, j_bits);
                        let t2 = tr.now();
                        let outputs =
                            execute_outputs_into(protocol, graph, &sampled, &tapes, &mut scratch);
                        let t3 = tr.now();
                        local.counts.record(Outcome::classify(outputs));
                        for (i, &o) in outputs.iter().enumerate() {
                            if o {
                                local.attacks[i] += 1;
                            }
                        }
                        let t4 = tr.now();
                        let ml = min_modified_level_into(&sampled, &mut level_scratch);
                        let t5 = tr.now();
                        local.ml.record(f64::from(ml));
                        local.trials += 1;
                        tr.leaf("strategy.sample", 1, t0, t1);
                        tr.leaf("tape.fill", 1, t1, t2);
                        tr.leaf("exec.execute", 1, t2, t3);
                        tr.leaf("mc.tally", 1, t3, t4);
                        tr.leaf("level.dense_ml", 1, t4, t5);
                    }
                    tr.close(arm);
                    Ok((local, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced scalar worker panicked"))
            .collect()
    });
    merge(m, parts)
}

fn empty_report(m: usize) -> SimReport {
    SimReport {
        counts: OutcomeCounts::new(),
        attacks: vec![0; m],
        trials: 0,
        ml: RunningStats::new(),
    }
}

fn merge(
    m: usize,
    parts: Vec<Result<(SimReport, Trace), String>>,
) -> Result<(SimReport, Vec<Trace>), String> {
    let mut report = empty_report(m);
    let mut traces = Vec::new();
    for part in parts {
        let (local, tr) = part?;
        report.try_merge(&local).map_err(|e| e.to_string())?;
        traces.push(tr);
    }
    Ok((report, traces))
}

/// The `mc-small` workload.
#[derive(Debug)]
pub struct McSmallWorkload {
    arms: Arms,
    sliced: SimConfig,
    scalar: SimConfig,
    /// Serialized first report of each arm.
    reference: [Option<String>; 2],
    /// Sliced-arm trials (active lanes) over the traced jobs.
    traced_sliced_trials: u64,
}

impl McSmallWorkload {
    /// The workload at `seed` on `threads` workers.
    pub fn new(seed: u64, threads: usize) -> Self {
        McSmallWorkload {
            arms: Arms::build(),
            sliced: SimConfig {
                trials: SLICED_TRIALS,
                seed: mix64(seed, 0),
                threads,
            },
            scalar: SimConfig {
                trials: SCALAR_TRIALS,
                seed: mix64(seed, 1),
                threads,
            },
            reference: [None, None],
            traced_sliced_trials: 0,
        }
    }

    fn record(&mut self, arm: usize, report: &SimReport, traced: bool, checks: &mut Checks) {
        let (trials, eps) = match arm {
            0 => (SLICED_TRIALS, EPS_S),
            _ => (SCALAR_TRIALS, eps_a()),
        };
        let mut errors = check_arm(report, trials, eps);
        let json = serde::json::to_string(report).expect("reports serialize");
        match &self.reference[arm] {
            None => {
                if arm == 0 {
                    errors.extend(self.differential());
                }
                self.reference[arm] = Some(json);
            }
            Some(r) if *r != json => errors.push(format!(
                "{} report differs from the first report",
                if traced { "traced" } else { "repeated" }
            )),
            Some(_) => {}
        }
        checks.operation(ARMS[arm], errors);
    }

    /// The sliced arm's report equals `simulate_scalar`'s byte for byte on
    /// a fixed trial count.
    fn differential(&self) -> Vec<String> {
        let a = &self.arms;
        let config = SimConfig {
            trials: DIFFERENTIAL_TRIALS,
            ..self.sliced
        };
        let fast = simulate(&a.proto_s, &a.k3, &a.drop_k3, config);
        let oracle = simulate_scalar(&a.proto_s, &a.k3, &a.drop_k3, config);
        let same = serde::json::to_string(&fast).ok() == serde::json::to_string(&oracle).ok();
        if same {
            Vec::new()
        } else {
            vec![format!(
                "sliced report differs from simulate_scalar at {DIFFERENTIAL_TRIALS} trials"
            )]
        }
    }
}

impl Workload for McSmallWorkload {
    fn work_unit(&self) -> &'static str {
        "Monte Carlo trials"
    }

    fn setup(&mut self) {
        let arms = Arms::build();
        let spec = arms.proto_s.sliced_spec().expect("Protocol S slices");
        let base = arms.drop_k3.sliced().expect("iid drop slices").base_run();
        std::hint::black_box(SlicedEngine::new(base, spec).expect("K3 fits the engine"));
        std::hint::black_box(arms);
    }

    fn job(&mut self, checks: &mut Checks) -> Vec<Sample> {
        let a = &self.arms;
        let (sliced_secs, s) = timed(|| simulate(&a.proto_s, &a.k3, &a.drop_k3, self.sliced));
        let (scalar_secs, p) = timed(|| simulate(&a.proto_a, &a.k2, &a.drop_k2, self.scalar));
        self.record(0, &s, false, checks);
        self.record(1, &p, false, checks);
        vec![
            Sample {
                kind: ARMS[0],
                work: SLICED_TRIALS as f64,
                secs: sliced_secs,
            },
            Sample {
                kind: ARMS[1],
                work: SCALAR_TRIALS as f64,
                secs: scalar_secs,
            },
        ]
    }

    fn traced_job(&mut self, checks: &mut Checks, epoch: Instant) -> (Vec<Sample>, Trace) {
        let a = &self.arms;
        let (sliced_secs, s) =
            timed(|| traced_sliced(&a.proto_s, &a.k3, &a.drop_k3, self.sliced, epoch));
        let (scalar_secs, p) =
            timed(|| traced_scalar(&a.proto_a, &a.k2, &a.drop_k2, self.scalar, epoch));
        let mut trace = Trace::new(epoch);
        let mut samples = Vec::new();
        for (arm, (secs, result)) in [(sliced_secs, s), (scalar_secs, p)].into_iter().enumerate() {
            let trials = [SLICED_TRIALS, SCALAR_TRIALS][arm];
            let work = match result {
                Ok((report, traces)) => {
                    self.record(arm, &report, true, checks);
                    for tr in traces {
                        trace.absorb(tr);
                    }
                    trials as f64
                }
                Err(e) => {
                    checks.error(ARMS[arm], e);
                    0.0
                }
            };
            samples.push(Sample {
                kind: ARMS[arm],
                work,
                secs,
            });
        }
        self.traced_sliced_trials += SLICED_TRIALS;
        (samples, trace)
    }

    fn min_traced_jobs(&self) -> usize {
        // One traced job already records a million spans.
        1
    }

    fn root_span(&self) -> &'static str {
        "mc.arm"
    }

    fn layers(&self, names: &BTreeMap<&'static str, NameStats>, _jobs: usize) -> Vec<Metric> {
        let count = |name: &str| names.get(name).map_or(0.0, |s| s.count as f64);
        let mean = |name: &str| {
            names
                .get(name)
                .map_or(0.0, |s| ratio(s.total_ns as f64, s.count as f64))
        };
        vec![
            metric("level.dense_ml_ns", mean("level.dense_ml"), "ns"),
            metric("strategy.sample_ns", mean("strategy.sample"), "ns"),
            metric("exec.ns_per_trial", mean("exec.execute"), "ns"),
            metric("sliced.group_ns", mean("sliced.group"), "ns"),
            metric("sliced.lane_coins_ns", mean("sliced.lane_coins"), "ns"),
            metric(
                "sliced.lane_fill",
                ratio(
                    self.traced_sliced_trials as f64,
                    LANES as f64 * count("sliced.group"),
                ),
                "ratio",
            ),
        ]
    }

    fn counts(&self) -> Vec<String> {
        vec![format!(
            "sliced arm {SLICED_TRIALS} trials (Protocol S, K3, N = {N}); scalar arm \
             {SCALAR_TRIALS} trials (Protocol A, K2, N = {N}); drop p = {DROP}"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_arms_equal_simulate() {
        let arms = Arms::build();
        for threads in [1, 2] {
            // 1000 is not a multiple of 64: the last group is partial.
            let config = SimConfig {
                trials: 1000,
                seed: 11,
                threads,
            };
            let epoch = Instant::now();
            let (s, _) =
                traced_sliced(&arms.proto_s, &arms.k3, &arms.drop_k3, config, epoch).unwrap();
            assert_eq!(s, simulate(&arms.proto_s, &arms.k3, &arms.drop_k3, config));
            let (p, traces) =
                traced_scalar(&arms.proto_a, &arms.k2, &arms.drop_k2, config, epoch).unwrap();
            assert_eq!(p, simulate(&arms.proto_a, &arms.k2, &arms.drop_k2, config));
            assert_eq!(traces.len(), threads);
            assert!(check_arm(&s, 1000, EPS_S).is_empty());
            assert!(check_arm(&p, 1000, eps_a()).is_empty());
        }
    }
}
