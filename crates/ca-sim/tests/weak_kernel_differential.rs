//! Differential property test: the weak adversary's word-at-a-time sampling
//! kernel against the `gen_bool` slot loop it replaced, on big generated
//! graphs and on graphs with fewer 64-link columns than the kernel has lanes.
//!
//! The oracle below is that loop, kept verbatim in test code: one
//! `gen_bool` per coin in the link-major contract order (DESIGN.md §11),
//! each lost slot written through `EdgeRun::destroy`. Every kernel instance
//! must agree with it on every seed — the same `EdgeRun` word for word (tail
//! bits included), the same dropped count, the same dense `sample_into` run,
//! and the same RNG stream position afterwards, which the sweep's `rfire`
//! draw depends on. The instances are the one `sample_edges_into` dispatches
//! to on this host, and the 16-lane and one-lane jump-ahead instances built
//! for any CPU, so hosts without AVX-512 check the lane split too.

use ca_core::graph::{generators, Graph, TopologySpec};
use ca_core::ids::Round;
use ca_core::run::{EdgeRun, Run};
use ca_sim::weak::{LossModel, WeakAdversary};
use ca_sim::RunSampler;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The replaced sampler: draws the contract's coins one `gen_bool` at a
/// time and destroys each lost slot of `er` (reset to the good run first).
/// Returns the number of messages destroyed.
fn oracle_sample_edges_into(weak: &WeakAdversary, er: &mut EdgeRun, rng: &mut StdRng) -> u64 {
    er.reset_good();
    let n = er.horizon();
    let mut flipped = 0;
    for e in 0..er.directed_edge_count() {
        match *weak.model() {
            LossModel::Iid { p } => {
                for r in Round::protocol_rounds(n) {
                    if rng.gen_bool(p) {
                        er.destroy(e, r);
                        flipped += 1;
                    }
                }
            }
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => {
                let mut bad = rng.gen_bool(weak.model().stationary_bad());
                for r in Round::protocol_rounds(n) {
                    let loss = if bad { loss_bad } else { loss_good };
                    if rng.gen_bool(loss) {
                        er.destroy(e, r);
                        flipped += 1;
                    }
                    bad = if bad {
                        !rng.gen_bool(bad_to_good)
                    } else {
                        rng.gen_bool(good_to_bad)
                    };
                }
            }
        }
    }
    flipped
}

/// An edge-keyed sampling entry point.
type Sampler = fn(&WeakAdversary, &mut EdgeRun, &mut StdRng) -> u64;

/// Every kernel instance the oracle checks, by name.
const INSTANCES: [(&str, Sampler); 3] = [
    ("dispatched kernel", WeakAdversary::sample_edges_into),
    (
        "portable 16 lanes",
        WeakAdversary::sample_edges_portable::<16>,
    ),
    ("portable 1 lane", WeakAdversary::sample_edges_portable::<1>),
];

/// Asserts every kernel instance equals the oracle on `graph` at horizon `n` for each
/// seed, on both the edge-keyed and the dense path.
fn assert_kernel_matches_oracle(graph: &Graph, n: u32, model: LossModel, seeds: &[u64]) {
    let weak = WeakAdversary::new(graph, n, model);
    let mut kernel_er = weak.edge_template();
    let mut oracle_er = weak.edge_template();
    let mut dense = Run::empty(1, 0);
    let good = oracle_er.message_count() as u64;
    for &seed in seeds {
        let ctx = format!(
            "{} m = {} edges = {} N = {n} seed {seed}",
            weak.describe(),
            graph.len(),
            oracle_er.directed_edge_count()
        );
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let want = oracle_sample_edges_into(&weak, &mut oracle_er, &mut oracle_rng);
        let next = oracle_rng.next_u64();
        for (instance, sample) in INSTANCES {
            let mut kernel_rng = StdRng::seed_from_u64(seed);
            let dropped = sample(&weak, &mut kernel_er, &mut kernel_rng);
            // `EdgeRun` equality compares every word, so this pins the
            // masked tail bits of the last column too.
            assert_eq!(kernel_er, oracle_er, "edge run, {instance}, {ctx}");
            assert_eq!(dropped, want, "dropped count, {instance}, {ctx}");
            assert_eq!(kernel_er.message_count() as u64, good - dropped, "{ctx}");
            let position = kernel_rng.next_u64();
            assert_eq!(position, next, "stream position, {instance}, {ctx}");
        }

        let mut dense_rng = StdRng::seed_from_u64(seed);
        weak.sample_into(&mut dense, &mut dense_rng);
        assert_eq!(dense, oracle_er.to_run(), "dense run, {ctx}");
        assert_eq!(dense_rng.next_u64(), next, "dense stream position, {ctx}");
    }
}

/// A probability that is 0 or 1 about a quarter of the time each.
fn probability() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1.0).prop_map(|(kind, p)| match kind {
        0 => 0.0,
        1 => 1.0,
        _ => p,
    })
}

/// Either loss model, with every probability drawn by [`probability`].
fn loss_model() -> impl Strategy<Value = LossModel> {
    (
        any::<bool>(),
        probability(),
        probability(),
        probability(),
        probability(),
    )
        .prop_map(|(iid, a, b, c, d)| {
            if iid {
                LossModel::Iid { p: a }
            } else {
                LossModel::GilbertElliott {
                    loss_good: a,
                    loss_bad: b,
                    good_to_bad: c,
                    // Both rates 0 is an invalid chain.
                    bad_to_good: if c == 0.0 && d == 0.0 { 1.0 } else { d },
                }
            }
        })
}

/// A grid, Watts–Strogatz or Barabási–Albert graph on `m` vertices.
fn big_graph(kind: u8, m: usize, seed: u64) -> Graph {
    match kind {
        0 => TopologySpec::near_square_grid(m).build().expect("grid"),
        1 => generators::watts_strogatz(m, 6, 0.1, seed).expect("ws graph"),
        _ => generators::barabasi_albert(m, 3, seed).expect("ba graph"),
    }
}

proptest! {
    // Each case samples up to ~1.3M slots four times over in an unoptimized
    // test build (kernel, oracle, dense path, dense oracle), so the case
    // count stays small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The kernel and the `gen_bool` oracle agree per seed on big graphs,
    /// both loss models and random probabilities.
    #[test]
    fn kernel_equals_the_gen_bool_oracle_on_big_graphs(
        kind in 0u8..3,
        m in 500usize..=2048,
        n in 1u32..=80,
        model in loss_model(),
        seed in any::<u64>(),
    ) {
        let graph = big_graph(kind, m, seed);
        assert_kernel_matches_oracle(&graph, n, model, &[seed, seed ^ 0x9E37]);
    }
}

#[test]
fn kernel_equals_the_oracle_with_and_without_a_partial_last_column() {
    // Watts–Strogatz with k = 6 has 6m directed edges: a whole number of
    // 64-edge columns at m = 512, a partial last column at m = 500.
    for m in [500, 512] {
        let graph = big_graph(1, m, 3);
        let edges = graph.edge_count() * 2;
        assert_eq!(edges.is_multiple_of(64), m == 512, "{edges} edges");
        for model in [
            LossModel::Iid { p: 0.05 },
            LossModel::GilbertElliott {
                loss_good: 0.01,
                loss_bad: 0.5,
                good_to_bad: 0.05,
                bad_to_good: 0.25,
            },
        ] {
            assert_kernel_matches_oracle(&graph, 17, model, &[0, 1, 2]);
        }
    }
}

#[test]
fn kernel_equals_the_oracle_at_long_horizons() {
    // Horizons past 256 rounds: long lane columns, and many words per link
    // for the jump-ahead to skip.
    let graph = Graph::ring(70).expect("ring");
    for model in [
        LossModel::Iid { p: 0.3 },
        LossModel::GilbertElliott {
            loss_good: 0.1,
            loss_bad: 0.9,
            good_to_bad: 0.2,
            bad_to_good: 0.4,
        },
    ] {
        assert_kernel_matches_oracle(&graph, 300, model, &[5, 6]);
    }
}

#[test]
fn lanes_equal_the_oracle_with_fewer_columns_than_lanes() {
    // K2, ring5 and the 4x6 grid have one or two 64-link columns, so most
    // of the 16 lanes own none; ring32 has exactly one whole column.
    let graphs = [
        (Graph::complete(2).expect("k2"), 2),
        (Graph::ring(5).expect("ring5"), 10),
        (Graph::grid(4, 6).expect("grid"), 76),
        (Graph::ring(32).expect("ring32"), 64),
    ];
    for (graph, edges) in &graphs {
        assert_eq!(graph.edge_count() * 2, *edges);
        for n in [1, 2, 255, 256, 257] {
            for model in [
                LossModel::Iid { p: 0.3 },
                LossModel::GilbertElliott {
                    loss_good: 0.1,
                    loss_bad: 0.8,
                    good_to_bad: 0.2,
                    bad_to_good: 0.3,
                },
            ] {
                assert_kernel_matches_oracle(graph, n, model, &[u64::from(n), 7]);
            }
        }
    }
}
