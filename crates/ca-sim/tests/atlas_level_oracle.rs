//! The level frontier at atlas scale: on the default `ca sweep` atlas's own
//! graphs at m = 1000, under the atlas's iid and Gilbert–Elliott adversaries,
//! the masked, pruned frontier over a sampled `EdgeRun` must give the same
//! `L` and `ML` extremes as the unmasked, unpruned frontier over its dense
//! `to_run()` expansion.
//!
//! Bursty Gilbert–Elliott losses and the grid's long horizon push many
//! processes past their level deadlines, so the receiver-side need bump
//! (and the interest-mask bits it clears) is exercised here at the sizes
//! the sweep runs, on top of the debug build's per-round superset check.

use ca_core::graph::{GraphStats, TopologySpec};
use ca_core::level::{level_extremes_into, modified_level_extremes_into, LevelScratch};
use ca_sim::weak::{LossModel, WeakAdversary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trials per (graph, adversary): enough to vary the loss pattern, few
/// enough for the quick-test budget (each check expands an m² dense run).
const TRIALS: u64 = 2;

#[test]
fn masked_frontier_equals_the_dense_expansion_on_the_atlas() {
    let topologies = [
        TopologySpec::near_square_grid(1000),
        TopologySpec::SmallWorld {
            m: 1000,
            k: 6,
            beta: 0.1,
            seed: 1,
        },
        TopologySpec::ScaleFree {
            m: 1000,
            attach: 3,
            seed: 1,
        },
    ];
    let adversaries = [
        LossModel::Iid { p: 0.05 },
        LossModel::GilbertElliott {
            loss_good: 0.01,
            loss_bad: 0.5,
            good_to_bad: 0.05,
            bad_to_good: 0.25,
        },
    ];
    // One scratch for the masked runs, so plans are re-keyed between
    // supports, and one for the dense runs, which never carry a plan.
    let mut masked = LevelScratch::new();
    let mut dense = LevelScratch::new();
    for topology in &topologies {
        let graph = topology.build().expect("atlas topologies build");
        let horizon = GraphStats::of(&graph).diameter + 4;
        for adversary in &adversaries {
            let weak = WeakAdversary::new(&graph, horizon, *adversary);
            let mut er = weak.edge_template();
            for trial in 0..TRIALS {
                let mut rng = StdRng::seed_from_u64(0xA71A5 + trial);
                weak.sample_edges_into(&mut er, &mut rng);
                let run = er.to_run();
                let what = format!("{} / {} trial {trial}", topology.name(), adversary.name());
                assert_eq!(
                    modified_level_extremes_into(&er, &mut masked),
                    modified_level_extremes_into(&run, &mut dense),
                    "ML extremes on {what}"
                );
                assert_eq!(
                    level_extremes_into(&er, &mut masked),
                    level_extremes_into(&run, &mut dense),
                    "L extremes on {what}"
                );
            }
        }
    }
}
