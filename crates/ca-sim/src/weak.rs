//! The weak (probabilistic) adversary family for big-graph sweeps.
//!
//! §8's weak adversary destroys messages *randomly* instead of adversarially.
//! [`crate::strategy::RandomDrop`] is its simplest member (iid per-slot loss
//! over a dense [`Run`]); this module generalizes it into a [`WeakAdversary`]
//! driven by a serializable [`LossModel`] — per-link iid loss or a two-state
//! Gilbert–Elliott bursty channel (per Tamir et al.'s unreliable-communication
//! model, PAPERS.md) — and gives it a second, edge-keyed sampling path
//! ([`WeakAdversary::sample_edges_into`]) over [`EdgeRun`] for graphs where
//! the dense `m²`-bit representation is a waste.
//!
//! # Draw-order contract
//!
//! Both sampling paths draw **identical coins in the identical order**
//! (the wide kernel below computes them out of order, at the same stream
//! positions): link-major over the directed edges sorted by `(from, to)`,
//! rounds ascending within each link — which over a good base run is exactly the
//! canonical `(from, to, round)` slot order of [`Run::messages`]. For the
//! [`LossModel::Iid`] model this is one `gen_bool(p)` per slot, byte-for-byte
//! the [`crate::strategy::RandomDrop`] contract, so the bit-sliced engine's
//! scalar-oracle byte-identity carries over ([`RunSampler::sliced`] returns
//! `IidDrop`). Gilbert–Elliott draws, per link: one stationarity coin for the
//! initial channel state, then per round one loss coin and one transition
//! coin (a fixed number of draws regardless of outcomes); it has no lane-mask
//! form, so `sliced()` stays `None` and the engine takes the scalar path.
//! `tests` pin the dense and edge-keyed paths against each other per seed.
//!
//! # The sampling kernel
//!
//! Both paths run one kernel that keeps that contract exactly while doing
//! far less per coin than `gen_bool`:
//!
//! * **Threshold coins.** Every coin is a [`Coin`]: `(rng.next_u64() >> 11)
//!   < ⌈p · 2⁵³⌉`, with the thresholds computed once per adversary. This is
//!   `gen_bool(p)` bit for bit, because both `(u >> 11) · 2⁻⁵³` and
//!   `p · 2⁵³` are exact in `f64` (the argument is in [`crate::coin`]), and
//!   it draws the same single word.
//! * **Mask-form coins.** A flip is the sign of `(u >> 11) − threshold`,
//!   spread to a whole-word mask, and Gilbert–Elliott's channel state is such
//!   a mask too: each coin's threshold is blended from the good and bad
//!   state's by that mask, so no coin branches or indexes on an outcome.
//! * **Word-at-a-time writes.** Losses of each 64-edge column accumulate in
//!   one loss word per round, and the edge-keyed path writes each column's
//!   words whole ([`EdgeRun::set_column_losses`]); the dense path walks the
//!   set loss bits into [`Run::remove_message`]. The loss buffer holds `N`
//!   rows of one word per lane.
//! * **Lanes.** The kernel source is generic over a lane count `L`: lane `k`
//!   draws the 64-edge columns `⌊k·C/L⌋..⌊(k+1)·C/L⌋` of the `C` columns, all
//!   lanes in step, so each coin operation is one operation on an `[u64; L]`
//!   array. With one lane that is the whole stream drawn from the caller's
//!   generator, in order.
//!
//! # Why 16 lanes draw the same coins
//!
//! The lanes compute *the same words of the same stream*, only not in order:
//!
//! * **Linearity.** xoshiro256's state update uses only xor, shift and
//!   rotate, so it is linear over `GF(2)`. The state `d` steps ahead is
//!   `p_d(T)·s` for `p_d = xᵈ mod P`, where `P` is the generator's degree-256
//!   characteristic polynomial (jump-ahead, Haramoto et al., 2008; the
//!   `jump` module).
//! * **Fixed words per link.** The contract draws a fixed number of words
//!   per link whatever the outcomes: `N` for iid, `1 + 2N` for
//!   Gilbert–Elliott. So column `c` starts `64·c` links into the stream,
//!   at a position known before any coin is flipped, and lane `k` starts at
//!   its first column's position and draws exactly the words the one-lane
//!   loop would draw for those columns. A lane whose column is the partial
//!   last one (or which has no column left at a step) draws past it; those
//!   bits are masked off and never reach the run.
//! * **The end jump.** One more jump, to `E·dpl` words (`E` edges, `dpl`
//!   words per link), leaves the caller's [`StdRng`] exactly where the
//!   one-lane loop leaves it, so the sweep's `rfire` draw that follows is
//!   unchanged.
//!
//! Each adversary builds its 16 lane polynomials and the end polynomial on
//! its first wide sample (the dense path never needs them); per trial, one
//! 256-step walk of the trial's base state yields all 17 states.
//!
//! **Dispatch.** [`WeakAdversary::sample_edges_into`] runs the 16-lane
//! instance compiled for AVX-512 (`avx512f` and `avx512vl`, detected at run
//! time), where one instruction covers one state or coin word of 8 lanes.
//! Every other host, and the dense [`RunSampler`] path (which draws through
//! any [`Rng`]), runs the one-lane instance; narrower vector builds of the
//! lanes measured no faster than one lane. Nothing else chooses between
//! them, and both produce the same run and stream position.
//!
//! `tests/weak_kernel_differential.rs` checks every instance per seed
//! against a one-`gen_bool`-per-coin oracle — on graphs with m in
//! 500..=2048, and on graphs with fewer columns than lanes at horizons up
//! to 257: the same `EdgeRun` word for word, the same dropped count, the
//! same dense run and the same RNG stream position afterwards (the sweep's
//! `rfire` draw comes next). The 16-lane instance built for any CPU runs
//! there too, so hosts without AVX-512 check the lane split and the jumps.

use crate::coin::{below, Coin};
use crate::jump::{LanePlan, Lanes, LANES};
use crate::strategy::{RunSampler, SlicedSampler};
use ca_core::error::CaError;
use ca_core::graph::Graph;
use ca_core::ids::Round;
use ca_core::run::{EdgeRun, Run};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A per-link message-loss model: the serializable recipe for one weak
/// adversary (embedded in sweep configs and reports).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// Every message destroyed independently with probability `p`.
    Iid {
        /// Per-message destruction probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott channel per directed link: the link sits in
    /// a `Good` or `Bad` state, loses each round's message with the state's
    /// loss probability, then transitions. Chains start in their stationary
    /// distribution, so the long-run loss rate is
    /// [`LossModel::stationary_loss`] from round 1.
    GilbertElliott {
        /// Loss probability while the link is in the good state.
        loss_good: f64,
        /// Loss probability while the link is in the bad (burst) state.
        loss_bad: f64,
        /// Per-round transition probability good → bad.
        good_to_bad: f64,
        /// Per-round transition probability bad → good.
        bad_to_good: f64,
    },
}

impl LossModel {
    /// The stationary probability of the bad state (`0` for iid).
    pub fn stationary_bad(&self) -> f64 {
        match *self {
            LossModel::Iid { .. } => 0.0,
            LossModel::GilbertElliott {
                good_to_bad,
                bad_to_good,
                ..
            } => good_to_bad / (good_to_bad + bad_to_good),
        }
    }

    /// The long-run per-message loss rate.
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => {
                let pi_bad = self.stationary_bad();
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }

    /// A short stable name for tables and reports (e.g. `iid0.05`,
    /// `ge0.01-0.5`).
    pub fn name(&self) -> String {
        match *self {
            LossModel::Iid { p } => format!("iid{p}"),
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => format!("ge{loss_good}-{loss_bad}"),
        }
    }

    /// Checks that every probability is in `[0, 1]` (NaN is not) and that
    /// a Gilbert–Elliott chain can move at all — the typed form of the
    /// panic [`WeakAdversary::new`] documents.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] naming the offending parameter.
    pub fn check(&self) -> Result<(), CaError> {
        let check = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(CaError::malformed(format!(
                    "{name} must be in [0,1], got {v}"
                )))
            }
        };
        match *self {
            LossModel::Iid { p } => check("p", p),
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => {
                check("loss_good", loss_good)?;
                check("loss_bad", loss_bad)?;
                check("good_to_bad", good_to_bad)?;
                check("bad_to_good", bad_to_good)?;
                if good_to_bad + bad_to_good > 0.0 {
                    Ok(())
                } else {
                    Err(CaError::malformed(
                        "Gilbert-Elliott needs at least one nonzero transition rate",
                    ))
                }
            }
        }
    }
}

/// A loss model's coins, thresholds computed once (see [`Coin`]).
#[derive(Clone, Copy, Debug)]
enum SlotCoins {
    Iid(Coin),
    /// Two-entry tables indexed by the channel state (`0` good, `1` bad).
    GilbertElliott {
        /// The stationarity coin for the initial state: `true` = bad.
        start: Coin,
        /// Per-state loss coin.
        loss: [Coin; 2],
        /// Per-state "leave this state" coin: good → bad, bad → good.
        leave: [Coin; 2],
    },
}

impl SlotCoins {
    fn of(model: &LossModel) -> Self {
        match *model {
            LossModel::Iid { p } => SlotCoins::Iid(Coin::new(p)),
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            } => SlotCoins::GilbertElliott {
                start: Coin::new(model.stationary_bad()),
                loss: [Coin::new(loss_good), Coin::new(loss_bad)],
                leave: [Coin::new(good_to_bad), Coin::new(bad_to_good)],
            },
        }
    }
}

/// The weak adversary over the good run of a graph: every input arrives,
/// and each round's message on each directed link is destroyed according to
/// a [`LossModel`].
///
/// Implements [`RunSampler`] (dense path, used by `simulate` and the chaos
/// harness) and additionally offers [`WeakAdversary::sample_edges_into`]
/// (edge-keyed path, used by the `ca sweep` engine at big `m`).
#[derive(Clone, Debug)]
pub struct WeakAdversary {
    /// The dense good run (the `RunSampler` base), built from `template`
    /// on first use: the edge-keyed sweep path never reads it, and at
    /// m = 1000 it is megabytes where the template is kilobytes.
    base: OnceLock<Run>,
    /// Where the wide kernel's lanes start in a trial's stream, built on
    /// the first wide sample (the dense path never reads it).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    lanes: OnceLock<LanePlan<LANES>>,
    /// The edge-keyed good run (the template `edge_template` hands out).
    template: EdgeRun,
    model: LossModel,
    coins: SlotCoins,
}

impl WeakAdversary {
    /// A weak adversary with the given loss model over the good run of
    /// `graph` with horizon `n`.
    ///
    /// # Errors
    ///
    /// Returns [`CaError::MalformedConfig`] if [`LossModel::check`] rejects
    /// the model.
    pub fn try_new(graph: &Graph, n: u32, model: LossModel) -> Result<Self, CaError> {
        model.check()?;
        Ok(WeakAdversary {
            base: OnceLock::new(),
            lanes: OnceLock::new(),
            template: EdgeRun::good(graph, n),
            model,
            coins: SlotCoins::of(&model),
        })
    }

    /// A weak adversary with the given loss model over the good run of
    /// `graph` with horizon `n`.
    ///
    /// # Panics
    ///
    /// Panics if any model probability is outside `[0, 1]`, or if a
    /// Gilbert–Elliott model has both transition rates zero
    /// ([`WeakAdversary::try_new`] is the non-panicking form).
    pub fn new(graph: &Graph, n: u32, model: LossModel) -> Self {
        Self::try_new(graph, n, model).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Shorthand for [`LossModel::Iid`].
    pub fn iid(graph: &Graph, n: u32, p: f64) -> Self {
        Self::new(graph, n, LossModel::Iid { p })
    }

    /// Shorthand for [`LossModel::GilbertElliott`].
    pub fn gilbert_elliott(
        graph: &Graph,
        n: u32,
        loss_good: f64,
        loss_bad: f64,
        good_to_bad: f64,
        bad_to_good: f64,
    ) -> Self {
        Self::new(
            graph,
            n,
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                good_to_bad,
                bad_to_good,
            },
        )
    }

    /// The loss model.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// The dense good run, expanded from the edge-keyed template on first
    /// use.
    fn base(&self) -> &Run {
        self.base.get_or_init(|| self.template.to_run())
    }

    /// A fresh edge-keyed good run sized for this adversary — the scratch
    /// buffer callers thread through [`WeakAdversary::sample_edges_into`].
    pub fn edge_template(&self) -> EdgeRun {
        self.template.clone()
    }

    /// The edge-keyed good run itself, borrowed: a caller that already holds
    /// a run re-shapes it with `clone_from` instead of allocating a new one.
    pub fn template(&self) -> &EdgeRun {
        &self.template
    }

    /// Writes one trial into the edge-keyed `er`, resetting it to the good
    /// run first. Returns the number of messages destroyed.
    ///
    /// Draws exactly the coins of [`RunSampler::sample_into`] in the same
    /// order and leaves `rng` where that path leaves it (see the module
    /// docs), so per-seed the two paths produce the same run — `tests` pin
    /// `er.to_run() == run`.
    pub fn sample_edges_into(&self, er: &mut EdgeRun, rng: &mut StdRng) -> u64 {
        er.reset_good();
        let emit = |column: usize, losses: &[u64]| er.set_column_losses(column, losses);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: `sample_lanes_avx512` needs exactly the two CPU
            // features just detected on the running CPU.
            return unsafe { self.sample_lanes_avx512(rng, emit) };
        }
        self.kernel(&mut OneLane(rng), emit)
    }

    /// [`WeakAdversary::sample_edges_into`] through the `L`-lane kernel
    /// built for any CPU, whatever the host supports: lets tests pin lane
    /// counts against each other and the one-lane kernel on every machine.
    /// Builds its lane plan afresh on every call.
    #[doc(hidden)]
    pub fn sample_edges_portable<const L: usize>(&self, er: &mut EdgeRun, rng: &mut StdRng) -> u64 {
        er.reset_good();
        self.sample_lanes(&self.new_lane_plan::<L>(), rng, |column, losses| {
            er.set_column_losses(column, losses);
        })
    }

    /// The [`LANES`]-lane kernel compiled for AVX-512, where each state or
    /// coin operation covers 8 lanes in one instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl")]
    fn sample_lanes_avx512(&self, rng: &mut StdRng, emit: impl FnMut(usize, &[u64])) -> u64 {
        let plan = self.lanes.get_or_init(|| self.new_lane_plan());
        self.sample_lanes(plan, rng, emit)
    }

    /// Runs the `L`-lane kernel on the trial whose stream starts at `rng`:
    /// starts every lane at its columns' stream position, then moves `rng`
    /// to the end of the trial's coins.
    #[inline(always)]
    fn sample_lanes<const L: usize>(
        &self,
        plan: &LanePlan<L>,
        rng: &mut StdRng,
        emit: impl FnMut(usize, &[u64]),
    ) -> u64 {
        let (mut lanes, end) = plan.starts(rng.state());
        let dropped = self.kernel(&mut lanes, emit);
        *rng = StdRng::from_state(end);
        dropped
    }

    /// The lane plan: 64-link columns are the blocks, and the trial's coins
    /// end after the last link's words.
    fn new_lane_plan<const L: usize>(&self) -> LanePlan<L> {
        let edges = self.template.directed_edge_count();
        let link_words = match self.coins {
            SlotCoins::Iid(_) => u64::from(self.template.horizon()),
            SlotCoins::GilbertElliott { .. } => 1 + 2 * u64::from(self.template.horizon()),
        };
        LanePlan::new(
            edges.div_ceil(64),
            64 * link_words,
            edges as u64 * link_words,
        )
    }

    /// The sampling kernel, one source for every lane count. Lane `k` of
    /// `words` draws the coins of the 64-link columns
    /// `⌊k·C/L⌋..⌊(k+1)·C/L⌋` (of `C`) in contract order, and hands over
    /// each column's losses as one word per round: bit `b` of
    /// `losses[r - 1]` set means edge `64·column + b` loses its round-`r`
    /// message. Returns the number of messages destroyed.
    ///
    /// With one lane that is the whole stream, drawn link by link as the
    /// contract reads it. With more, `words` must start each lane at its
    /// first column's stream position, and lanes draw whole 64-link columns
    /// in step: bits past the last edge are masked off.
    #[inline(always)]
    fn kernel<const L: usize>(
        &self,
        words: &mut impl LaneWords<L>,
        mut emit: impl FnMut(usize, &[u64]),
    ) -> u64 {
        let n = self.template.horizon() as usize;
        let edges = self.template.directed_edge_count();
        let columns = edges.div_ceil(64);
        let lane_columns = |k: usize| {
            LanePlan::<L>::first_block(k, columns)..LanePlan::<L>::first_block(k + 1, columns)
        };
        // Lane `k`'s column at `step`, with its width, if it has one.
        let column_at = |k: usize, step: usize| {
            let column = lane_columns(k).start + step;
            (column < lane_columns(k).end).then(|| (column, (edges - 64 * column).min(64)))
        };
        let mut rows = vec![[0u64; L]; n];
        let mut losses = vec![0u64; n];
        let mut dropped = 0;
        for step in 0..columns.div_ceil(L) {
            let width = (0..L)
                .filter_map(|k| column_at(k, step))
                .map(|(_, width)| width)
                .max()
                .unwrap_or(0);
            rows.fill([0; L]);
            match self.coins {
                SlotCoins::Iid(coin) => {
                    let t = coin.threshold();
                    for bit in 0..width {
                        for row in rows.iter_mut() {
                            let u = words.next_words();
                            for (loss, u) in row.iter_mut().zip(u) {
                                *loss |= below(u, t) & 1 << bit;
                            }
                        }
                    }
                }
                SlotCoins::GilbertElliott { start, loss, leave } => {
                    let [lose_good, lose_bad] = loss.map(Coin::threshold);
                    let [leave_good, leave_bad] = leave.map(Coin::threshold);
                    for bit in 0..width {
                        // Per link: the stationarity coin (all ones = bad),
                        // then per round a loss coin and a transition coin,
                        // each threshold picked by the channel state's mask.
                        let mut bad = words.next_words().map(|u| below(u, start.threshold()));
                        for row in rows.iter_mut() {
                            let (u, v) = (words.next_words(), words.next_words());
                            for k in 0..L {
                                let lose = lose_good ^ (lose_good ^ lose_bad) & bad[k];
                                let leave = leave_good ^ (leave_good ^ leave_bad) & bad[k];
                                row[k] |= below(u[k], lose) & 1 << bit;
                                bad[k] ^= below(v[k], leave);
                            }
                        }
                    }
                }
            }
            for k in 0..L {
                let Some((column, width)) = column_at(k, step) else {
                    continue;
                };
                let mask = u64::MAX >> (64 - width);
                for (loss, row) in losses.iter_mut().zip(&rows) {
                    *loss = row[k] & mask;
                }
                dropped += losses
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>();
                emit(column, &losses);
            }
        }
        dropped
    }

    fn drop_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) -> u64 {
        let edges = self.template.directed_edges();
        self.kernel(&mut OneLane(rng), |column, losses| {
            for (r, &loss) in (1..).zip(losses) {
                let mut bits = loss;
                while bits != 0 {
                    let (from, to) = edges[64 * column + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    run.remove_message(from, to, Round::new(r));
                }
            }
        })
    }
}

/// A word source for the sampling kernel: each draw is the next word of
/// each of `L` streams.
trait LaneWords<const L: usize> {
    fn next_words(&mut self) -> [u64; L];
}

/// The one-lane source: the caller's generator itself.
struct OneLane<'a, R: ?Sized>(&'a mut R);

impl<R: RngCore + ?Sized> LaneWords<1> for OneLane<'_, R> {
    #[inline(always)]
    fn next_words(&mut self) -> [u64; 1] {
        [self.0.next_u64()]
    }
}

impl<const L: usize> LaneWords<L> for Lanes<L> {
    #[inline(always)]
    fn next_words(&mut self) -> [u64; L] {
        self.next()
    }
}

impl RunSampler for WeakAdversary {
    fn describe(&self) -> String {
        format!("weak({})", self.model.name())
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Run {
        let mut run = self.base().clone();
        self.drop_into(&mut run, rng);
        run
    }

    fn sample_into<R: Rng + ?Sized>(&self, run: &mut Run, rng: &mut R) {
        run.clone_from(self.base());
        self.drop_into(run, rng);
    }

    fn sample_into_observed<R: Rng + ?Sized>(
        &self,
        run: &mut Run,
        rng: &mut R,
        obs: &ca_obs::Metrics,
    ) {
        run.clone_from(self.base());
        let flipped = self.drop_into(run, rng);
        obs.inc(ca_obs::CounterId::RunSamples);
        obs.add(ca_obs::CounterId::RunSlotsFlipped, flipped);
        obs.add(
            ca_obs::CounterId::RunOverflowSlots,
            run.overflow_slot_count() as u64,
        );
    }

    fn sliced(&self) -> Option<SlicedSampler<'_>> {
        match self.model {
            // One gen_bool(p) per canonical slot of a good base — exactly the
            // IidDrop lane-mask contract.
            LossModel::Iid { p } => Some(SlicedSampler::IidDrop {
                base: self.base(),
                p,
            }),
            // The per-link Markov chain has no base-run-plus-lane-mask form;
            // force the scalar path.
            LossModel::GilbertElliott { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BernoulliEstimate;
    use crate::strategy::RandomDrop;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ge_model() -> LossModel {
        LossModel::GilbertElliott {
            loss_good: 0.01,
            loss_bad: 0.5,
            good_to_bad: 0.05,
            bad_to_good: 0.25,
        }
    }

    #[test]
    fn iid_matches_random_drop_coin_for_coin() {
        // WeakAdversary's iid model must be byte-compatible with the existing
        // RandomDrop sampler: same seed, same run.
        let g = Graph::grid(2, 3).unwrap();
        let weak = WeakAdversary::iid(&g, 4, 0.3);
        let old = RandomDrop::new(&g, 4, 0.3);
        for seed in 0..20 {
            let a = weak.sample(&mut StdRng::seed_from_u64(seed));
            let b = old.sample(&mut StdRng::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn dense_and_edge_paths_agree_per_seed() {
        let g = Graph::ring(5).unwrap();
        for model in [LossModel::Iid { p: 0.2 }, ge_model()] {
            let weak = WeakAdversary::new(&g, 6, model);
            let mut er = weak.edge_template();
            assert!(weak.base.get().is_none(), "the dense base is built lazily");
            assert_eq!(weak.base(), &Run::good(&g, 6));
            let mut run = Run::empty(1, 0);
            for seed in 0..20 {
                weak.sample_into(&mut run, &mut StdRng::seed_from_u64(seed));
                let dropped = weak.sample_edges_into(&mut er, &mut StdRng::seed_from_u64(seed));
                assert_eq!(er.to_run(), run, "{} seed {seed}", weak.describe());
                assert_eq!(
                    dropped as usize,
                    weak.base().message_count() - run.message_count(),
                    "flip count, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn gilbert_elliott_hits_stationary_loss_rate() {
        // Chains start in the stationary distribution, so the empirical loss
        // rate over many links and rounds must match the closed form at z=4.
        let g = Graph::complete(2).unwrap();
        let n = 500;
        let weak = WeakAdversary::new(&g, n, ge_model());
        let mut er = weak.edge_template();
        let total_slots = weak.template.message_count();
        let mut rng = StdRng::seed_from_u64(0xCE11);
        let mut est = BernoulliEstimate::default();
        for _ in 0..100 {
            let dropped = weak.sample_edges_into(&mut er, &mut rng);
            est.merge(&BernoulliEstimate::new(dropped, total_slots as u64));
        }
        let expected = weak.model().stationary_loss();
        assert!(
            est.consistent_with_z(expected, 4.0),
            "GE loss rate {} inconsistent with stationary {expected}",
            est.point()
        );
        // The closed form itself: pi_bad = 0.05/0.30, loss = (1-pi)*0.01 + pi*0.5.
        let pi = 0.05 / 0.30;
        assert!((expected - ((1.0 - pi) * 0.01 + pi * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With a sticky bad state, P(loss at r+1 | loss at r) must exceed the
        // marginal loss rate — that's the whole point of the model.
        let g = Graph::complete(2).unwrap();
        let n = 400;
        let weak = WeakAdversary::new(&g, n, ge_model());
        let mut er = weak.edge_template();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut pair_loss, mut pairs, mut losses, mut slots) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..50 {
            weak.sample_edges_into(&mut er, &mut rng);
            for e in 0..er.directed_edge_count() {
                for r in 1..n {
                    let a = !er.delivers_edge(e, Round::new(r));
                    let b = !er.delivers_edge(e, Round::new(r + 1));
                    losses += a as u64;
                    slots += 1;
                    if a {
                        pairs += 1;
                        pair_loss += b as u64;
                    }
                }
            }
        }
        let conditional = pair_loss as f64 / pairs as f64;
        let marginal = losses as f64 / slots as f64;
        assert!(
            conditional > 1.5 * marginal,
            "expected bursty losses: P(loss|loss)={conditional:.3} vs marginal={marginal:.3}"
        );
    }

    #[test]
    fn iid_sliced_ge_scalar() {
        let g = Graph::complete(3).unwrap();
        let iid = WeakAdversary::iid(&g, 3, 0.1);
        assert!(matches!(
            iid.sliced(),
            Some(SlicedSampler::IidDrop { p, .. }) if p == 0.1
        ));
        let ge = WeakAdversary::new(&g, 3, ge_model());
        assert!(ge.sliced().is_none());
        assert!(ge.describe().contains("ge0.01-0.5"));
    }

    #[test]
    fn loss_model_serde_round_trips() {
        let models = vec![LossModel::Iid { p: 0.05 }, ge_model()];
        let json = serde::json::to_string(&models).unwrap();
        let back: Vec<LossModel> = serde::json::from_str(&json).unwrap();
        assert_eq!(back, models);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_out_of_range_probability() {
        let g = Graph::complete(2).unwrap();
        let _ = WeakAdversary::iid(&g, 2, 1.5);
    }
}
