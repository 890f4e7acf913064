//! Differential test: the sweep's analytic classifier against Protocol S
//! actually executed, on the same weak-adversary runs.
//!
//! `run_sweep` never runs Protocol S. It applies Lemma 6.4 (count = ML) and
//! classifies each trial from the sparse frontier's modified-level extremes
//! ([`classify`]). Here each sampled `EdgeRun` is also expanded to a dense
//! run and executed through the scalar executor, the leader's `rfire` is
//! read from its state, and the executed TA/PA/NA must equal the analytic
//! class for that `rfire`, trial by trial, at m in the low hundreds.

use ca_analysis::sweep::classify;
use ca_core::exec::execute;
use ca_core::graph::{generators, Graph, GraphStats};
use ca_core::ids::ProcessId;
use ca_core::level::{modified_level_extremes_into, LevelScratch};
use ca_core::outcome::Outcome;
use ca_core::tape::TapeSet;
use ca_protocols::ProtocolS;
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::{mix64, RunSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Firing ranges the trials cycle through: short ones make TA and NA
/// likely, longer ones put `rfire` between the extremes now and then.
const T_CURVE: [u32; 4] = [2, 3, 5, 8];

/// Samples `trials` runs of `model` on `graph` at horizon `diameter + 4`
/// (the sweep's default slack), executes Protocol S on each and checks the
/// outcome against [`classify`]. Returns how often each outcome occurred,
/// as `[TA, PA, NA]`.
fn executed_outcomes_match_the_classifier(
    graph: &Graph,
    model: LossModel,
    trials: u64,
) -> [u32; 3] {
    let horizon = GraphStats::of(graph).diameter + 4;
    let weak = WeakAdversary::new(graph, horizon, model);
    let mut er = weak.edge_template();
    let mut scratch = LevelScratch::new();
    let mut seen = [0; 3];
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(mix64(graph.len() as u64, trial));
        weak.sample_edges_into(&mut er, &mut rng);
        let (ml_min, ml_max) = modified_level_extremes_into(&er, &mut scratch);
        let t = T_CURVE[trial as usize % T_CURVE.len()];
        let protocol = ProtocolS::new(1.0 / f64::from(t));
        let tapes = TapeSet::random(&mut rng, graph.len(), 64);
        let execution = execute(&protocol, graph, &er.to_run(), &tapes);
        let rfire = execution.local(ProcessId::LEADER).states[0]
            .token
            .expect("the leader draws rfire at round 0");
        let ctx = format!(
            "{} m = {} trial {trial}: ML in [{ml_min}, {ml_max}], t = {t}, rfire = {rfire}",
            weak.describe(),
            graph.len()
        );
        let outcome = execution.outcome();
        assert_eq!(outcome, classify(ml_min, ml_max, rfire), "{ctx}");
        seen[match outcome {
            Outcome::TotalAttack => 0,
            Outcome::PartialAttack => 1,
            Outcome::NoAttack => 2,
        }] += 1;
    }
    seen
}

#[test]
fn executed_protocol_s_equals_the_sweep_classifier() {
    let graphs = [
        Graph::grid(12, 12).expect("12x12 grid"),
        generators::watts_strogatz(150, 6, 0.1, 5).expect("ws graph"),
    ];
    let models = [
        LossModel::Iid { p: 0.05 },
        LossModel::GilbertElliott {
            loss_good: 0.01,
            loss_bad: 0.5,
            good_to_bad: 0.05,
            bad_to_good: 0.25,
        },
    ];
    let mut seen = [0; 3];
    for graph in &graphs {
        for &model in &models {
            let counts = executed_outcomes_match_the_classifier(graph, model, 12);
            for (total, count) in seen.iter_mut().zip(counts) {
                *total += count;
            }
        }
    }
    // Each class must actually occur, or the comparison proves little.
    assert!(seen.iter().all(|&n| n > 0), "TA/PA/NA counts {seen:?}");
}
