//! `exact-dp`: the level-vector DP of `ca-analysis::level_dp`, the only
//! workload that runs it.
//!
//! Two instances: §8's curve on K3 at `N = t = 1000` (bound by frontier
//! expansion: base-set shifts over ~1000-bit sets) and ring4 at
//! `N = t = 200` (bound by kernel computation: 2^8 delivery patterns per
//! structural class). The DP is exact over every run, so it has no random
//! inputs: the seed does not change this workload. The DP is
//! single-threaded; each timed call runs one sweep on each of the
//! `--threads` workers at once, so both cores stay busy as in the other
//! workloads and a call's wall time covers them both.

use crate::report::{metric, timed, Checks, Metric, Verdict};
use crate::stats::{median, Sample};
use crate::trace::{ratio, NameStats, Trace};
use crate::Workload;
use ca_analysis::level_dp::{self, DpSpec, DpStats, SweepReport};
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::rational::Rational;
use ca_sim::parallel_map;
use std::collections::BTreeMap;
use std::time::Instant;

/// One DP instance of the job.
#[derive(Clone, Copy, Debug)]
pub struct Instance {
    /// Name used in samples and checks.
    pub name: &'static str,
    /// Name of the span around its sweeps.
    pub span: &'static str,
    /// Graph constructor.
    pub graph: fn() -> Graph,
    /// Horizon `N`, also the firing range `t`.
    pub n: u32,
    /// Calls per job, each running one sweep per worker at once, so each
    /// instance takes about half of the job.
    pub reps: u32,
    /// Committed work counters of one sweep.
    pub stats: DpStats,
}

/// The job's instances.
pub const INSTANCES: [Instance; 2] = [
    Instance {
        name: "k3_n1000",
        span: "dp.sweep.k3_n1000",
        graph: || Graph::complete(3).expect("K3"),
        n: 1000,
        reps: 6,
        stats: DpStats {
            structural_states: 139,
            states_visited: 138_737,
            kernel_hits: 138_598,
            kernel_misses: 139,
            collapses: 0,
        },
    },
    Instance {
        name: "ring4_n200",
        span: "dp.sweep.ring4_n200",
        graph: || Graph::ring(4).expect("ring4"),
        n: 200,
        reps: 1,
        stats: DpStats {
            structural_states: 2602,
            states_visited: 510_910,
            kernel_hits: 508_308,
            kernel_misses: 2602,
            collapses: 0,
        },
    },
];

/// The checkpoint horizons `ca exact --sweep` records for horizon `n`.
pub fn checkpoints(n: u32) -> Vec<u32> {
    let mut c = vec![1, n / 4, n / 2, 3 * n / 4, n];
    c.dedup();
    c
}

/// Runs one instance.
pub fn sweep(inst: &Instance, graph: &Graph) -> Result<SweepReport, CaError> {
    let n = inst.n;
    level_dp::sweep(graph, n, &DpSpec::protocol_s(u64::from(n)), &checkpoints(n))
}

/// The output checks of one instance: on K3, §8's exact values
/// (`U_s = 1/t`, liveness first certain at round `N`); on every instance
/// `U_s ≤ 1/t` and the committed work counters.
pub fn check(inst: &Instance, report: &SweepReport) -> Vec<String> {
    let mut v = Verdict::default();
    let eps = Rational::new(1, i128::from(inst.n));
    if inst.name == "k3_n1000" {
        v.check(report.u_s == eps, || {
            format!("U_s = {}, expected 1/1000", report.u_s)
        });
        v.check(report.first_certain_round == Some(inst.n), || {
            format!(
                "first certain round {:?}, expected Some({})",
                report.first_certain_round, inst.n
            )
        });
    }
    v.check(report.u_s <= eps, || {
        format!("U_s = {} exceeds 1/{}", report.u_s, inst.n)
    });
    v.check(report.stats == inst.stats, || {
        format!(
            "DP counters {:?} differ from the committed {:?}",
            report.stats, inst.stats
        )
    });
    v.0
}

/// The `exact-dp` workload.
#[derive(Debug, Default)]
pub struct ExactDpWorkload {
    threads: usize,
    /// Serialized first report per instance; later runs must match it.
    reference: Vec<Option<String>>,
    /// Work counters summed over the traced sweeps.
    traced: DpStats,
    /// Kernel delivery patterns (`misses × 2^E`) over the traced sweeps.
    traced_patterns: u64,
}

impl ExactDpWorkload {
    /// The workload (seed-independent) on `threads` workers.
    pub fn new(threads: usize) -> Self {
        ExactDpWorkload {
            threads,
            reference: vec![None; INSTANCES.len()],
            ..ExactDpWorkload::default()
        }
    }

    /// Checks one sweep's result and returns its work counters on success.
    fn record(
        &mut self,
        i: usize,
        result: Result<SweepReport, CaError>,
        checks: &mut Checks,
    ) -> Option<DpStats> {
        let inst = &INSTANCES[i];
        match result {
            Ok(report) => {
                let mut errors = check(inst, &report);
                let json = serde::json::to_string(&report).expect("DP reports serialize");
                match &self.reference[i] {
                    None => self.reference[i] = Some(json),
                    Some(r) if *r != json => {
                        errors.push("report differs from the first report".into())
                    }
                    Some(_) => {}
                }
                checks.operation(inst.name, errors);
                Some(report.stats)
            }
            Err(e) => {
                checks.error(inst.name, e);
                None
            }
        }
    }
}

impl Workload for ExactDpWorkload {
    fn work_unit(&self) -> &'static str {
        "DP frontier states"
    }

    fn setup(&mut self) {
        for inst in &INSTANCES {
            let graph = (inst.graph)();
            let spec = DpSpec::protocol_s(u64::from(inst.n));
            spec.validate_for_sweep(&graph)
                .expect("DP instances are eligible");
            std::hint::black_box(graph);
        }
    }

    fn warm_up(&mut self, _checks: &mut Checks) {
        // The DP keeps no state between sweeps; the first timed job records
        // the reference reports.
    }

    fn job(&mut self, checks: &mut Checks) -> Vec<Sample> {
        let mut samples = Vec::new();
        for (i, inst) in INSTANCES.iter().enumerate() {
            let graph = (inst.graph)();
            for _ in 0..inst.reps {
                let (secs, results) = timed(|| {
                    parallel_map(self.threads, self.threads, |_| {
                        sweep(inst, std::hint::black_box(&graph))
                    })
                });
                let mut work = 0.0;
                for result in results {
                    if let Some(stats) = self.record(i, result, checks) {
                        work += stats.states_visited as f64;
                    }
                }
                samples.push(Sample {
                    kind: inst.name,
                    work,
                    secs,
                });
            }
        }
        samples
    }

    fn traced_job(&mut self, checks: &mut Checks, epoch: Instant) -> (Vec<Sample>, Trace) {
        let mut trace = Trace::new(epoch);
        let mut samples = Vec::new();
        for (i, inst) in INSTANCES.iter().enumerate() {
            for _ in 0..inst.reps {
                let (secs, results) = timed(|| {
                    parallel_map(self.threads, self.threads, |_| {
                        let mut tr = Trace::new(epoch);
                        let task = tr.open("dp.task", i as u32);
                        let graph = tr.time("graph.build", i as u32, inst.graph);
                        let result = tr.time(inst.span, i as u32, || sweep(inst, &graph));
                        tr.close(task);
                        (result, graph.directed_edges().count(), tr)
                    })
                });
                let mut work = 0.0;
                for (result, edges, tr) in results {
                    trace.absorb(tr);
                    if let Some(s) = self.record(i, result, checks) {
                        work += s.states_visited as f64;
                        self.traced.states_visited += s.states_visited;
                        self.traced.kernel_hits += s.kernel_hits;
                        self.traced.kernel_misses += s.kernel_misses;
                        self.traced.collapses += s.collapses;
                        self.traced_patterns += s.kernel_misses << edges;
                    }
                }
                samples.push(Sample {
                    kind: inst.name,
                    work,
                    secs,
                });
            }
        }
        (samples, trace)
    }

    fn root_span(&self) -> &'static str {
        "dp.task"
    }

    fn layers(&self, names: &BTreeMap<&'static str, NameStats>, jobs: usize) -> Vec<Metric> {
        let empty = NameStats::default();
        let ms = |i: usize| {
            let s = names.get(INSTANCES[i].span).unwrap_or(&empty);
            median(&s.durations).map_or(0.0, |ns| ns / 1e6)
        };
        let dp_ns: u64 = INSTANCES
            .iter()
            .filter_map(|inst| names.get(inst.span))
            .map(|s| s.total_ns)
            .sum();
        let t = &self.traced;
        let per_job = |v: u64| ratio(v as f64, jobs as f64);
        vec![
            metric("dp.k3_n1000_ms", ms(0), "ms"),
            metric("dp.ring4_n200_ms", ms(1), "ms"),
            metric(
                "dp.ns_per_state",
                ratio(dp_ns as f64, t.states_visited as f64),
                "ns",
            ),
            metric("dp.states_visited", per_job(t.states_visited), "count"),
            metric("dp.kernel_misses", per_job(t.kernel_misses), "count"),
            metric("dp.kernel_patterns", per_job(self.traced_patterns), "count"),
            metric(
                "dp.kernel_hit_ratio",
                ratio(
                    t.kernel_hits as f64,
                    (t.kernel_hits + t.kernel_misses) as f64,
                ),
                "ratio",
            ),
            metric("dp.collapses", per_job(t.collapses), "count"),
        ]
    }

    fn counts(&self) -> Vec<String> {
        INSTANCES
            .iter()
            .map(|i| format!("{} x{} per job: {:?}", i.name, i.reps, i.stats))
            .collect()
    }
}
