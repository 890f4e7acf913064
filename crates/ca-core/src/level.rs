//! Information levels: the knowledge measure behind both bounds.
//!
//! A process reaches **height** 1 when the input flows to it; it reaches
//! height `h > 1` when, for every other process `i`, it has heard (in the
//! flows-to sense) that `i` reached height `h - 1`. The **level**
//! `L_i^r(R)` is the maximum height `i` reaches by round `r`; `L_i(R)` is
//! `L_i^N(R)` and `L(R) = min_i L_i(R)`.
//!
//! The **modified level** `ML_i^r(R)` differs only at height 1: it requires
//! both the input *and* the leader's round-0 state `(1, 0)` to flow to the
//! process (because Protocol S needs every attacker to know `rfire`).
//!
//! Three implementations are provided:
//!
//! * [`min_level_into`] / [`min_modified_level_into`] — a sparse
//!   counting-automaton frontier, `O(|messages| · m/64)` per round, generic
//!   over any [`DeliverySource`] (dense [`Run`] or edge-keyed
//!   [`crate::run::EdgeRun`]), pruned on edge-keyed runs to the seen-sets
//!   that can still complete a level and to the edges whose messages can
//!   still move their receiver; this is the hot path every Monte Carlo
//!   trial rides. See DESIGN.md §11 for the frontier invariant.
//! * [`levels`] / [`modified_levels`] — an `O(m²·N)` "gossip" dynamic program
//!   that mirrors how the levels actually propagate, building the full
//!   per-round table; its run-wide minimum is the differential oracle
//!   behind [`dense_min_level`].
//! * [`level_by_definition`] / [`modified_level_by_definition`] — a direct
//!   memoized transcription of the recursive definition, used as a test
//!   oracle.
//!
//! # Why the sparse frontier is exact
//!
//! The gossip DP carries a full vector `heard[j][i]` per process. But those
//! vectors obey a spread invariant (the engine-level face of Lemma 6.2): once
//! `j` has heard that anyone reached height `v ≥ 2`, it must have heard —
//! transitively, through the same message — that *everyone* reached `v - 1`,
//! because the only source of "`i` is at `v`" is `i`'s own vector, which held
//! `≥ v - 1` for every process when `i` got there. So `max - min ≤ 1` within
//! each vector, and the whole vector compresses losslessly to a pair: the own
//! level `count_j = heard[j][j]` plus the set
//! `seen_j = {k : heard[j][k] = count_j}`. That pair is exactly the paper's
//! Figure-1 counting automaton (Lemma 6.4: `count_i^r = ML_i^r`), and the
//! frontier propagates it in `O(m/64)` per message instead of `O(m)` —
//! touching only processes that actually receive messages. The unmodified
//! level `L` is the same automaton with the leader-state requirement dropped
//! from the base case. `tests/sparse_level_differential.rs` pins the frontier
//! against the dense DP over sampled graphs and runs.
//!
//! The paper's Lemmas 6.1 and 6.2 (`L_i - 1 ≤ ML_i ≤ L_i`,
//! `|ML_i - ML_j| ≤ 1`) are asserted in this module's tests and again as
//! property tests; the frontier also `debug_assert!`s Lemma 6.2 on every
//! modified-level result.
//!
//! # Why pruning the frontier keeps it exact
//!
//! A seen-set only matters while it can still help some process *complete*
//! its level (bump `count` when `seen` fills up). Two facts bound when that
//! can happen, so the frontier drops every other seen-set:
//!
//! * **Monotonicity.** Deleting messages or inputs never raises any `L_i`
//!   or `ML_i`. An edge-keyed run is a subset of the good run on its edge
//!   support, so the good-run counts `g_j` bound its counts: only the
//!   processes in `C_{c+1} = {j : g_j ≥ c + 1}` can ever complete level
//!   `c`.
//! * **Information moves at most one hop per round.** Process `k`'s state at
//!   the end of round `r` reaches `j` no earlier than the end of round
//!   `r + dist(k, j)`. So `k`'s level-`c` seen-set can take part in a
//!   completion only while `r ≤ D_c(k) = N − dist(k, C_{c+1})`, the
//!   deadline cone.
//!
//! The deadline can only shrink along a message (`D_c(i) ≥ D_c(j) − 1` for
//! every edge `i → j`), so a receiver whose seen-set is live only ever
//! merges senders whose seen-sets are live and exact. A process past its
//! deadline never completes: completing would put it in `C_{c+1}`, whose
//! deadline is `N`. The frontier therefore keeps counts, flags and count
//! adoption exact and skips only the rest: senders below the receiver's
//! count, equal-count messages past the receiver's deadline, and count-0
//! messages that bring no new flag. `LevelScratch` caches the plan — `g_j`
//! from one unpruned pass over the good run, then one reverse-edge BFS per
//! level — keyed exactly on `(m, N, edge list, measure)` and built on the
//! first call for that support.
//!
//! A dense [`Run`] gets no plan: it fixes no edge support, so it has no
//! good run to bound it, and building the bound from its own messages would
//! cost a full unpruned pass on every call. It runs the same loop with every
//! deadline at infinity.
//!
//! A plan is immutable once built and sits behind an [`Arc`]: a worker
//! builds it in its own scratch ([`LevelScratch::plan_for`]) and others take
//! it ([`LevelScratch::adopt_plan`]) instead of rebuilding it.
//!
//! # Why skipping masked messages keeps it exact
//!
//! The filter above reads end-of-previous-round state. As a sender, process
//! `i` has a key `key[i]` set by its count and flags; as a receiver, `j` has
//! a need `need[j]` set by its count, flags and whether the round is past
//! its deadline. A message `i → j` passes only if `key[i] ≥ need[j]` and,
//! when `i` is at count 0, it brings `j` a new flag. On an edge-keyed run
//! most delivered messages fail it on arrival (88% on the m = 1000 grid),
//! yet each would still be read every round. So the frontier keeps an
//! interest mask `want`, one bit per directed edge, and walks only
//! `delivered & want` ([`DeliverySource::for_each_wanted_delivery`]).
//! `want` starts full; a message the filter rejects clears its edge's bit,
//! and a process whose count or flags move re-arms its whole out-edge range
//! (contiguous, because the support is sorted by `(from, to)`). The mask
//! stays a superset of the edges whose message could move their receiver,
//! because a rejection of `i → j` lasts until `i` moves:
//!
//! * **`need[j]` never falls.** Within a count it rises by one past the
//!   deadline and never comes back down; a count-0 process's need rises from
//!   0 to 1 when it gains only the input; a higher count needs a higher key.
//! * **`key[i]` and `i`'s flags change only when `i` moves**, and then its
//!   out-range is re-armed before the next round reads it.
//! * **`j`'s flags only rise**, so a count-0 sender that brought `j` no new
//!   flag never will, until the sender itself moves.
//!
//! Debug builds check the superset invariant every round: each delivered
//! edge whose bit is clear is rejected by the exact filter. The dense [`Run`]
//! and the plan's good-run pass take the same single loop; they visit every
//! message and ignore the answers.

use crate::error::CaError;
use crate::flow::FlowGraph;
use crate::ids::{ProcessId, Round};
use crate::run::{DeliverySource, Run};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-process, per-round level table for one run.
///
/// # Examples
///
/// ```
/// use ca_core::{graph::Graph, run::Run, level::levels, ids::ProcessId};
/// let g = Graph::complete(2)?;
/// let run = Run::good(&g, 4);
/// let table = levels(&run);
/// // With all messages delivered, levels climb one unit per round.
/// assert_eq!(table.level(ProcessId::new(0)), 5);
/// assert_eq!(table.min_level(), 5);
/// # Ok::<(), ca_core::error::ModelError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTable {
    /// `table[i][r]` = level of process `i` at end of round `r`.
    table: Vec<Vec<u32>>,
    n: u32,
}

impl LevelTable {
    /// The level of `i` at the end of round `r` (`L_i^r(R)` or `ML_i^r(R)`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `r` is out of range.
    pub fn level_at(&self, i: ProcessId, r: Round) -> u32 {
        self.table[i.index()][r.index()]
    }

    /// The final level of `i` (`L_i(R) = L_i^N(R)`).
    pub fn level(&self, i: ProcessId) -> u32 {
        self.table[i.index()][self.n as usize]
    }

    /// The run-wide level `L(R) = min_i L_i(R)`.
    pub fn min_level(&self) -> u32 {
        self.table
            .iter()
            .map(|row| row[self.n as usize])
            .min()
            .expect("at least one process")
    }

    /// The maximum final level across processes.
    pub fn max_level(&self) -> u32 {
        self.table
            .iter()
            .map(|row| row[self.n as usize])
            .max()
            .expect("at least one process")
    }

    /// All final levels, indexed by process.
    pub fn final_levels(&self) -> Vec<u32> {
        self.table.iter().map(|row| row[self.n as usize]).collect()
    }

    /// The horizon `N`.
    pub fn horizon(&self) -> u32 {
        self.n
    }
}

/// Computes the level table `L_i^r(R)` for all `i, r`.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes (the definition degenerates
/// for `m = 1`: the `h > 1` clause is vacuous and levels diverge).
pub fn levels(run: &Run) -> LevelTable {
    gossip_levels(run, false)
}

/// Computes the modified level table `ML_i^r(R)` for all `i, r`.
///
/// Identical to [`levels`] except that height 1 additionally requires the
/// leader's round-0 state `(1, 0)` (code: `(ProcessId::LEADER, 0)`) to flow
/// to the process.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn modified_levels(run: &Run) -> LevelTable {
    gossip_levels(run, true)
}

/// Fallible variant of [`levels`]: returns a typed error instead of
/// panicking when the run has fewer than 2 processes.
pub fn try_levels(run: &Run) -> Result<LevelTable, CaError> {
    ensure_two_processes(run)?;
    Ok(gossip_levels(run, false))
}

/// Fallible variant of [`modified_levels`].
pub fn try_modified_levels(run: &Run) -> Result<LevelTable, CaError> {
    ensure_two_processes(run)?;
    Ok(gossip_levels(run, true))
}

fn ensure_two_processes(run: &Run) -> Result<(), CaError> {
    if run.process_count() < 2 {
        return Err(CaError::malformed(format!(
            "levels are defined for m >= 2 (paper's model), got m = {}",
            run.process_count()
        )));
    }
    Ok(())
}

/// Reusable buffers for [`min_level_into`] / [`min_modified_level_into`].
///
/// The Monte Carlo engine asks for one number per trial — `min_i L_i(R)` —
/// millions of times; a scratch threaded through the loop keeps the gossip
/// working vectors alive across trials instead of reallocating them. For an
/// edge-keyed run it also caches the prune plan of the run's edge support
/// (see the module docs), built on the first call for that support or taken
/// from another scratch with [`LevelScratch::adopt_plan`].
#[derive(Debug, Default)]
pub struct LevelScratch {
    /// The sparse frontier's buffers (the counting-automaton hot path).
    frontier: Frontier,
    /// The prune plan of the last edge support the frontier ran on.
    plan: Option<Arc<FrontierPlan>>,
}

impl LevelScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The prune plan of `run`'s edge support for the `L` measure (the `ML`
    /// measure when `modified`), built in this scratch's buffers unless the
    /// cached plan already fits; `None` when `run` fixes no edge support.
    /// Hand it to other scratches with [`LevelScratch::adopt_plan`].
    pub fn plan_for<D: DeliverySource + ?Sized>(
        &mut self,
        run: &D,
        modified: bool,
    ) -> Option<Arc<FrontierPlan>> {
        ensure_plan(&mut self.plan, &mut self.frontier, run, modified)?;
        self.plan.clone()
    }

    /// Caches a plan built by another scratch: later calls on a run whose
    /// support and measure it fits prune by it without rebuilding it.
    pub fn adopt_plan(&mut self, plan: Arc<FrontierPlan>) {
        self.plan = Some(plan);
    }
}

/// The cached plan of `run`'s support, built into `frontier`'s buffers
/// first if the cache does not fit; `None` for a run with no edge support.
fn ensure_plan<'a, D: DeliverySource + ?Sized>(
    plan: &'a mut Option<Arc<FrontierPlan>>,
    frontier: &mut Frontier,
    run: &D,
    modified: bool,
) -> Option<&'a FrontierPlan> {
    let edges = run.edge_support()?;
    let (m, n) = (run.process_count(), run.horizon());
    if !plan.as_ref().is_some_and(|p| p.fits(m, n, edges, modified)) {
        *plan = Some(Arc::new(FrontierPlan::build(
            m, n, edges, modified, frontier,
        )));
    }
    plan.as_deref()
}

/// Buffers of the sparse counting-automaton frontier. Seen-sets are rows of
/// `words = ⌈m/64⌉` words in flat buffers: row `j` is
/// `seen[j * words..(j + 1) * words]`.
#[derive(Debug, Default)]
struct Frontier {
    /// `count[j]`: `j`'s current level (`heard[j][j]` in the dense view).
    count: Vec<u32>,
    /// Row `j`: processes `j` knows to be at `count[j]`. Only rows the
    /// plan keeps live are maintained; the rest hold stale bits no live
    /// row ever reads.
    seen: Vec<u64>,
    /// Has the input flowed to `j`?
    valid: Vec<bool>,
    /// Has the leader's round-0 state flowed to `j`? Set everywhere for the
    /// plain level, whose base case ignores it.
    token: Vec<bool>,
    /// Message filter over end-of-previous-round state (see
    /// [`filter_entry`]): a message `i → j` can move `j` only if
    /// `key[i] >= need[j]`, where `need[j]` is `need_live[j]`, plus one
    /// once the round passes `j`'s current-level deadline `dline[j]`.
    key: Vec<u32>,
    need: Vec<u32>,
    need_live: Vec<u32>,
    dline: Vec<u32>,
    /// Per-receiver round accumulators: highest sender count received …
    rx_high: Vec<u32>,
    /// … union of the seen-rows of senders at that highest count …
    rx_seen: Vec<u64>,
    /// … and the validity / leader-state bits that flowed in.
    rx_valid: Vec<bool>,
    rx_token: Vec<bool>,
    /// Round stamp per receiver: `stamp[j] == stamp_cur` means `j`'s
    /// accumulators are live this round (lazy reset, no per-round clear).
    stamp: Vec<u32>,
    stamp_cur: u32,
    /// Receivers touched this round, in first-message order.
    touch: Vec<u32>,
    /// Interest mask over the plan's edges, one bit per edge: a clear bit
    /// means the edge's message is filtered out until its sender moves (see
    /// the module docs). Unused on unplanned passes.
    want: Vec<u64>,
    /// `m` the buffers are currently sized for, and words per seen-row.
    m: usize,
    words: usize,
}

/// The prune plan of one edge support: per level `c`, the last round
/// `D_c(k)` at which process `k`'s level-`c` seen-set can still flow to a
/// process able to complete level `c` (see the module docs). Keyed on the
/// exact `(m, N, edges, modified)` it was built for; immutable once built,
/// so scratches share it through an [`Arc`].
#[derive(Debug)]
pub struct FrontierPlan {
    m: usize,
    n: u32,
    modified: bool,
    /// The edge support in compressed rows: `i`'s out-edges are the indices
    /// `out[i]..out[i + 1]` of the sorted edge list, with receivers
    /// `to[out[i]..out[i + 1]]`.
    out: Vec<u32>,
    to: Vec<u32>,
    /// `deadline[(c - 1) * m + k] = D_c(k)` for the levels `c` some process
    /// completes in the good run; past the table no process completes, so
    /// every deadline there is 0.
    deadline: Vec<u32>,
}

/// A borrowed view of the deadlines one frontier pass prunes by.
#[derive(Clone, Copy)]
struct Deadlines<'a> {
    /// `table[(c - 1) * m + k] = D_c(k)`, as in [`FrontierPlan`].
    table: &'a [u32],
    m: usize,
    /// The deadline of every level past the table (all levels when it is
    /// empty).
    beyond: u32,
}

impl Deadlines<'_> {
    /// No plan: every seen-set stays live (dense runs, and the good-run pass
    /// a plan is built from).
    const UNPRUNED: Deadlines<'static> = Deadlines {
        table: &[],
        m: 0,
        beyond: u32::MAX,
    };

    /// `D_c(k)`: the last round at whose end `k`'s level-`c` seen-set
    /// (`c ≥ 1`) is still needed.
    #[inline]
    fn deadline(self, c: u32, k: usize) -> u32 {
        let idx = (c as usize - 1) * self.m + k;
        self.table.get(idx).copied().unwrap_or(self.beyond)
    }

    /// Is `k`'s level-`c` seen-set still needed at the end of round `r`?
    #[inline]
    fn live(self, c: u32, k: usize, r: u32) -> bool {
        r <= self.deadline(c, k)
    }
}

/// The good run over a fixed edge support: every input arrives and every
/// edge delivers in every round — by monotonicity, an upper bound on the
/// levels of every run over that support.
struct GoodRun<'a> {
    m: usize,
    n: u32,
    edges: &'a [(ProcessId, ProcessId)],
}

impl DeliverySource for GoodRun<'_> {
    fn process_count(&self) -> usize {
        self.m
    }

    fn horizon(&self) -> u32 {
        self.n
    }

    fn has_input(&self, _: ProcessId) -> bool {
        true
    }

    fn for_each_delivery_in_round(&self, _: Round, mut f: impl FnMut(ProcessId, ProcessId)) {
        for &(from, to) in self.edges {
            f(from, to);
        }
    }
}

impl FrontierPlan {
    /// Is this the plan of exactly `(m, N, edges, modified)`? The support is
    /// sorted by `(from, to)` (the [`DeliverySource::edge_support`]
    /// contract), so equal receivers plus each sender's first and last
    /// out-edge pin every edge. Checked on every call, without branches per
    /// edge.
    fn fits(&self, m: usize, n: u32, edges: &[(ProcessId, ProcessId)], modified: bool) -> bool {
        self.m == m
            && self.n == n
            && self.modified == modified
            && self.to.len() == edges.len()
            && edges
                .iter()
                .zip(&self.to)
                .fold(true, |ok, (&(_, to), &t)| ok & (to.as_u32() == t))
            && self.out.windows(2).enumerate().fold(true, |ok, (i, w)| {
                let (a, b) = (w[0] as usize, w[1] as usize);
                ok & (a == b || (edges[a].0.index() == i && edges[b - 1].0.index() == i))
            })
    }

    /// The index of edge `i → j` in the sorted support.
    fn edge_index(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.out[i] as usize;
        let hi = self.out[i + 1] as usize;
        let k = self.to[lo..hi].binary_search(&(j as u32)).ok()?;
        Some(lo + k)
    }

    /// Runs the unpruned frontier over the good run for the counts `g_j`,
    /// then, per level `c`, a BFS over reversed edges from
    /// `C_{c+1} = {j : g_j ≥ c + 1}` gives `D_c(k) = N − dist(k, C_{c+1})`
    /// (0 when `C_{c+1}` is out of reach within `N` hops).
    fn build(
        m: usize,
        n: u32,
        edges: &[(ProcessId, ProcessId)],
        modified: bool,
        frontier: &mut Frontier,
    ) -> Self {
        frontier.pass(&GoodRun { m, n, edges }, modified, None);
        let good = &frontier.count[..m];
        // Out-edge offsets (the support is sorted by sender), and in-edges
        // as CSR, so the BFS can walk every edge backwards.
        let mut out = vec![0u32; m + 1];
        let mut start = vec![0usize; m + 1];
        for &(from, to) in edges {
            out[from.index() + 1] += 1;
            start[to.index() + 1] += 1;
        }
        for k in 0..m {
            out[k + 1] += out[k];
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut preds = vec![0u32; edges.len()];
        for &(from, to) in edges {
            preds[next[to.index()]] = from.as_u32();
            next[to.index()] += 1;
        }
        let rows = good.iter().max().map_or(0, |&top| top.saturating_sub(1));
        let mut deadline = vec![0u32; rows as usize * m];
        let mut dist = vec![u32::MAX; m];
        let mut queue = Vec::with_capacity(m);
        for (c, row) in (1..=rows).zip(deadline.chunks_exact_mut(m)) {
            dist.fill(u32::MAX);
            queue.clear();
            for (j, &g) in good.iter().enumerate() {
                if g > c {
                    dist[j] = 0;
                    queue.push(j);
                }
            }
            let mut head = 0;
            while head < queue.len() {
                let j = queue[head];
                head += 1;
                let d = dist[j] + 1;
                if d > n {
                    continue;
                }
                for &i in &preds[start[j]..start[j + 1]] {
                    if dist[i as usize] == u32::MAX {
                        dist[i as usize] = d;
                        queue.push(i as usize);
                    }
                }
            }
            for (dl, &d) in row.iter_mut().zip(&dist) {
                *dl = n.saturating_sub(d);
            }
        }
        FrontierPlan {
            m,
            n,
            modified,
            out,
            to: edges.iter().map(|&(_, to)| to.as_u32()).collect(),
            deadline,
        }
    }

    fn deadlines(&self) -> Deadlines<'_> {
        Deadlines {
            table: &self.deadline,
            m: self.m,
            beyond: 0,
        }
    }
}

/// `L(R) = min_i L_i(R)` without building the full [`LevelTable`] —
/// allocation-free once the scratch has warmed up, and identical to
/// `levels(run).min_level()`.
///
/// Generic over the delivery representation: dense [`Run`] or sparse
/// [`crate::run::EdgeRun`].
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn min_level_into<D: DeliverySource + ?Sized>(run: &D, scratch: &mut LevelScratch) -> u32 {
    frontier_extremes(run, false, scratch).0
}

/// `ML(R) = min_i ML_i(R)` without building the full [`LevelTable`] —
/// allocation-free once the scratch has warmed up, and identical to
/// `modified_levels(run).min_level()`.
///
/// Generic over the delivery representation: dense [`Run`] or sparse
/// [`crate::run::EdgeRun`].
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn min_modified_level_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> u32 {
    frontier_extremes(run, true, scratch).0
}

/// Final-level extremes `(min_i L_i(R), max_i L_i(R))` in one frontier pass.
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn level_extremes_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> (u32, u32) {
    frontier_extremes(run, false, scratch)
}

/// Final modified-level extremes `(min_i ML_i(R), max_i ML_i(R))` in one
/// frontier pass — what the `ca sweep` classifier consumes: with Protocol S's
/// firing threshold `rfire`, TA ⟺ `min ≥ rfire` and NA ⟺ `max < rfire`
/// (Lemma 6.4 equates `ML` with the attack counts).
///
/// # Panics
///
/// Panics if the run has fewer than 2 processes.
pub fn modified_level_extremes_into<D: DeliverySource + ?Sized>(
    run: &D,
    scratch: &mut LevelScratch,
) -> (u32, u32) {
    frontier_extremes(run, true, scratch)
}

/// The sparse counting-automaton frontier (see the module docs for why it is
/// exactly the gossip DP, and why the prune and the interest mask keep it
/// exact). An edge-keyed run is pruned by its support's plan, built into the
/// scratch on first use; a dense [`Run`] fixes no support and runs unpruned.
fn frontier_extremes<D: DeliverySource + ?Sized>(
    run: &D,
    modified: bool,
    s: &mut LevelScratch,
) -> (u32, u32) {
    assert!(
        run.process_count() >= 2,
        "levels are defined for m >= 2 (paper's model)"
    );
    let plan = ensure_plan(&mut s.plan, &mut s.frontier, run, modified);
    let (lo, hi) = s.frontier.pass(run, modified, plan);
    debug_assert!(
        !modified || hi <= lo + 1,
        "Lemma 6.2 violated: ML extremes ({lo}, {hi})"
    );
    (lo, hi)
}

/// A process's message-filter entries `(key, need while live, deadline)`
/// from its count and flags. The key ranks it as a sender: `c + 1` at
/// count `c ≥ 1`; at count 0, 1 if it holds only the token, else 0. The
/// need is the lowest sender key that can still move it: at count `c ≥ 1`,
/// `c + 1` (an equal count merges seen-sets) until the round passes the
/// deadline `D_c`, then `c + 2` (only a higher count moves it); at count 0,
/// 1 if it lacks only the token (a token-less count-0 sender adds nothing),
/// else 0 (the exact flag test decides).
#[inline]
fn filter_entry(c: u32, valid: bool, token: bool, dl: Deadlines<'_>, j: usize) -> (u32, u32, u32) {
    if c == 0 {
        (
            u32::from(token && !valid),
            u32::from(valid && !token),
            u32::MAX,
        )
    } else {
        (c + 1, c + 1, dl.deadline(c, j))
    }
}

/// Row `j` of a flat seen-set buffer with `w` words per row.
#[inline]
fn row(buf: &[u64], j: usize, w: usize) -> &[u64] {
    &buf[j * w..(j + 1) * w]
}

#[inline]
fn row_mut(buf: &mut [u64], j: usize, w: usize) -> &mut [u64] {
    &mut buf[j * w..(j + 1) * w]
}

/// Sets a row to the singleton `{j}`.
#[inline]
fn set_singleton(row: &mut [u64], j: usize) {
    row.fill(0);
    row[j / 64] |= 1 << (j % 64);
}

#[inline]
fn union_into(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a |= b;
    }
}

/// Sets bits `lo..hi` of a flat bitset.
#[inline]
fn set_bits(words: &mut [u64], lo: usize, hi: usize) {
    let mut e = lo;
    while e < hi {
        let b = e % 64;
        let n = (hi - e).min(64 - b);
        words[e / 64] |= (u64::MAX >> (64 - n)) << b;
        e += n;
    }
}

impl Frontier {
    fn resize(&mut self, m: usize) {
        let words = m.div_ceil(64);
        self.m = m;
        self.words = words;
        self.count = vec![0; m];
        self.seen = vec![0; m * words];
        self.rx_seen = vec![0; m * words];
        self.valid = vec![false; m];
        self.token = vec![false; m];
        self.key = vec![0; m];
        self.need = vec![0; m];
        self.need_live = vec![0; m];
        self.dline = vec![0; m];
        self.rx_high = vec![0; m];
        self.rx_valid = vec![false; m];
        self.rx_token = vec![false; m];
        self.stamp = vec![0; m];
        self.stamp_cur = 0;
        self.touch = Vec::with_capacity(m);
    }

    /// One frontier pass: each process carries `(count, seen)`; a round
    /// sweeps delivered messages into per-receiver accumulators reading only
    /// previous-round sender state, then finalizes the touched receivers —
    /// adopt a higher count outright, union seen-sets at an equal count, and
    /// bump `count` (at most once) when `seen` covers all `m` processes.
    /// With a plan, seen-sets past their deadline are neither merged nor
    /// tested, and the sweep skips the edges the interest mask has cleared;
    /// counts, flags and adoption stay exact. Returns the final count
    /// extremes.
    fn pass<D: DeliverySource + ?Sized>(
        &mut self,
        run: &D,
        modified: bool,
        plan: Option<&FrontierPlan>,
    ) -> (u32, u32) {
        let m = run.process_count();
        if self.m != m {
            self.resize(m);
        }
        let Frontier {
            count,
            seen,
            valid,
            token,
            key,
            need,
            need_live,
            dline,
            rx_high,
            rx_seen,
            rx_valid,
            rx_token,
            stamp,
            stamp_cur,
            touch,
            want,
            words: w,
            ..
        } = self;
        let w = *w;
        let dl = plan.map_or(Deadlines::UNPRUNED, FrontierPlan::deadlines);
        let out: &[u32] = plan.map_or(&[], |p| &p.out);
        want.clear();
        want.resize(plan.map_or(0, |p| p.to.len().div_ceil(64)), u64::MAX);
        let full_tail = match m % 64 {
            0 => u64::MAX,
            tail => u64::MAX >> (64 - tail),
        };

        // Round 0: inputs arrive; the leader holds its own round-0 state.
        for j in 0..m {
            valid[j] = run.has_input(ProcessId::new(j as u32));
            token[j] = !modified || j == ProcessId::LEADER.index();
            count[j] = 0;
            if valid[j] && token[j] {
                count[j] = 1;
                set_singleton(row_mut(seen, j, w), j);
            }
            (key[j], need_live[j], dline[j]) = filter_entry(count[j], valid[j], token[j], dl, j);
        }

        for r in Round::protocol_rounds(run.horizon()) {
            let rr = r.get();
            // Lazy accumulator reset: a fresh stamp invalidates every
            // receiver's accumulators at once. On wrap, hard-reset the stamps.
            *stamp_cur = stamp_cur.wrapping_add(1);
            if *stamp_cur == 0 {
                stamp.iter_mut().for_each(|t| *t = 0);
                *stamp_cur = 1;
            }
            let cur = *stamp_cur;
            touch.clear();
            for ((nd, &live), &d) in need.iter_mut().zip(&*need_live).zip(&*dline) {
                *nd = live + u32::from(rr > d);
            }
            // The exact message filter, over end-of-previous-round state.
            // Filtered out: a lower count (a receiver at count ≥ 1 already
            // holds both flags), an equal count past the receiver's
            // deadline, a token-less count-0 sender to a receiver missing
            // only the token, or a count-0 sender that brings no new flag.
            let rejects = |i: usize, j: usize| {
                key[i] < need[j]
                    || (count[i] == 0 && (valid[j] || !valid[i]) && (token[j] || !token[i]))
            };
            // Sweep: senders' states are still end-of-previous-round values
            // (writes happen only in the finalize pass), so no snapshot copies
            // are needed. A rejected message drops out of `want`.
            run.for_each_wanted_delivery(r, want, |from, to| {
                let (i, j) = (from.index(), to.index());
                if rejects(i, j) {
                    return false;
                }
                let ci = count[i];
                if stamp[j] != cur {
                    stamp[j] = cur;
                    touch.push(j as u32);
                    rx_valid[j] = false;
                    rx_token[j] = false;
                    rx_high[j] = 0;
                }
                rx_valid[j] |= valid[i];
                rx_token[j] |= token[i];
                if ci > rx_high[j] {
                    rx_high[j] = ci;
                    if dl.live(ci, j, rr) {
                        row_mut(rx_seen, j, w).copy_from_slice(row(seen, i, w));
                    }
                } else if ci == rx_high[j] && ci > 0 && dl.live(ci, j, rr) {
                    union_into(row_mut(rx_seen, j, w), row(seen, i, w));
                }
                true
            });
            if cfg!(debug_assertions) {
                if let Some(p) = plan {
                    // The mask is a superset of the edges that matter.
                    run.for_each_delivery_in_round(r, |from, to| {
                        let (i, j) = (from.index(), to.index());
                        let e = p.edge_index(i, j).expect("edge on the support");
                        assert!(
                            want[e / 64] >> (e % 64) & 1 == 1 || rejects(i, j),
                            "masked edge {from} -> {to} passes the filter in round {rr}"
                        );
                    });
                }
            }
            // Finalize the touched receivers (untouched state cannot change:
            // levels only move when a message arrives — Lemma 5.1).
            for &j in touch.iter() {
                let j = j as usize;
                let before = (count[j], valid[j], token[j]);
                valid[j] |= rx_valid[j];
                token[j] |= rx_token[j];
                let mut c = count[j];
                if c == 0 && valid[j] && token[j] {
                    c = 1;
                    set_singleton(row_mut(seen, j, w), j);
                }
                let high = rx_high[j];
                if c >= 1 && high >= c {
                    let live = dl.live(high, j, rr);
                    let own = row_mut(seen, j, w);
                    if high > c {
                        c = high;
                        if live {
                            own.copy_from_slice(row(rx_seen, j, w));
                            own[j / 64] |= 1 << (j % 64);
                        }
                    } else if live {
                        union_into(own, row(rx_seen, j, w));
                    }
                    let full = live && {
                        let (&last, body) = own.split_last().expect("m >= 2");
                        last == full_tail && body.iter().all(|&x| x == u64::MAX)
                    };
                    if full {
                        c += 1;
                        set_singleton(own, j);
                    }
                }
                count[j] = c;
                if !out.is_empty() && (c, valid[j], token[j]) != before {
                    set_bits(want, out[j] as usize, out[j + 1] as usize);
                }
                (key[j], need_live[j], dline[j]) = filter_entry(c, valid[j], token[j], dl, j);
            }
        }

        let mut lo = u32::MAX;
        let mut hi = 0;
        for &c in &count[..m] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        (lo, hi)
    }
}

/// `min_i L_i(R)` (or `min_i ML_i(R)` when `modified`) by the dense
/// `O(m²)` gossip DP, on buffers of its own: the differential oracle for the
/// sparse frontier (see `tests/sparse_level_differential.rs`). Not part of
/// the supported API.
#[doc(hidden)]
pub fn dense_min_level(run: &Run, modified: bool) -> u32 {
    gossip_levels(run, modified).min_level()
}

/// The gossip dynamic program shared by [`levels`] and [`modified_levels`].
///
/// Each process `j` carries a vector `heard[j][i]` = the highest level of `i`
/// whose attainment has flowed to `j` so far, along with its own current
/// level. A delivered message `(i, j, r)` merges `i`'s end-of-round-`(r-1)`
/// vector into `j`'s. After merging a round's messages, `j`'s level rises to
/// `1 + min_{i≠j} heard[j][i]` whenever that minimum is positive (the `h > 1`
/// clause), and to 1 when the base condition holds.
fn gossip_levels(run: &Run, modified: bool) -> LevelTable {
    let m = run.process_count();
    let n = run.horizon();
    assert!(m >= 2, "levels are defined for m >= 2 (paper's model)");

    // valid[j]: has the input flowed to j?  heard_leader[j]: has (leader, 0)
    // flowed to j? (Only used for the modified measure.)
    let mut valid: Vec<bool> = (0..m)
        .map(|j| run.has_input(ProcessId::new(j as u32)))
        .collect();
    let mut heard_leader: Vec<bool> = (0..m).map(|j| j == ProcessId::LEADER.index()).collect();

    // heard[j][i] = best level of i known (via flow) to j. heard[j][j] is j's own level.
    let mut heard: Vec<Vec<u32>> = vec![vec![0; m]; m];
    let mut table: Vec<Vec<u32>> = vec![vec![0; n as usize + 1]; m];

    let base_holds = |valid_j: bool, heard_leader_j: bool| -> bool {
        if modified {
            valid_j && heard_leader_j
        } else {
            valid_j
        }
    };

    // Round 0: inputs arrive; the leader's own round-0 state is at the leader.
    for j in 0..m {
        if base_holds(valid[j], heard_leader[j]) {
            heard[j][j] = 1;
        }
        table[j][0] = heard[j][j];
    }

    // Rounds 1..=N: deliver messages, merge vectors, raise levels.
    let mut snapshot = heard.clone();
    let mut valid_snap = valid.clone();
    let mut leader_snap = heard_leader.clone();
    for r in Round::protocol_rounds(n) {
        snapshot.clone_from(&heard);
        valid_snap.clone_from(&valid);
        leader_snap.clone_from(&heard_leader);
        for slot in run.messages_in_round(r) {
            let (i, j) = (slot.from.index(), slot.to.index());
            for k in 0..m {
                if snapshot[i][k] > heard[j][k] {
                    heard[j][k] = snapshot[i][k];
                }
            }
            valid[j] |= valid_snap[i];
            heard_leader[j] |= leader_snap[i];
        }
        for j in 0..m {
            // Base height 1.
            if base_holds(valid[j], heard_leader[j]) && heard[j][j] == 0 {
                heard[j][j] = 1;
            }
            // h > 1 clause: 1 + min over other processes of their known level.
            let min_other = (0..m)
                .filter(|&i| i != j)
                .map(|i| heard[j][i])
                .min()
                .expect("m >= 2");
            if min_other >= 1 && min_other + 1 > heard[j][j] {
                heard[j][j] = min_other + 1;
            }
            table[j][r.index()] = heard[j][j];
        }
    }

    LevelTable { table, n }
}

/// Computes `L_j^r(R)` straight from the recursive definition, memoized.
///
/// Exponentially slower than [`levels`] in the worst case but a faithful
/// transcription; used as an oracle in tests.
pub fn level_by_definition(run: &Run, j: ProcessId, r: Round) -> u32 {
    definition_level(run, j, r, false)
}

/// Computes `ML_j^r(R)` straight from the recursive definition, memoized.
pub fn modified_level_by_definition(run: &Run, j: ProcessId, r: Round) -> u32 {
    definition_level(run, j, r, true)
}

fn definition_level(run: &Run, j: ProcessId, r: Round, modified: bool) -> u32 {
    let m = run.process_count();
    let n = run.horizon();
    assert!(m >= 2, "levels are defined for m >= 2");
    let flow = FlowGraph::new(run);

    // Precompute forward cones from every (i, s) and from the environment.
    let env = flow.env_reach();
    let leader0 = flow.reach_from(ProcessId::LEADER, Round::INPUT);

    // can_reach[h][i][s] = can i reach height h by round s? Computed level by level.
    // Height 1:
    let reach1 = |i: ProcessId, s: Round| -> bool {
        let base = env.contains(i, s);
        if modified {
            base && leader0.contains(i, s)
        } else {
            base
        }
    };

    let max_h = (n + 2) as usize;
    // reach[h] for h >= 1; index 0 unused (height 0 always true).
    let mut reach: Vec<Vec<Vec<bool>>> = Vec::with_capacity(max_h + 1);
    reach.push(vec![vec![true; n as usize + 1]; m]); // height 0
    let mut h1 = vec![vec![false; n as usize + 1]; m];
    for (i, row) in h1.iter_mut().enumerate() {
        for s in 0..=n {
            row[s as usize] = reach1(ProcessId::new(i as u32), Round::new(s));
        }
    }
    reach.push(h1);

    for h in 2..=max_h {
        let prev = &reach[h - 1];
        let mut cur = vec![vec![false; n as usize + 1]; m];
        let mut any = false;
        #[allow(clippy::needless_range_loop)] // `jj` also parameterizes the flow query
        for jj in 0..m {
            // For each i ≠ jj, find whether some (i, r_i) flows to (jj, s) with
            // i reaching h-1 by r_i.
            for s in 0..=n {
                let ok = (0..m).filter(|&i| i != jj).all(|i| {
                    (0..=s).any(|ri| {
                        prev[i][ri as usize]
                            && flow.flows_to(
                                ProcessId::new(i as u32),
                                Round::new(ri),
                                ProcessId::new(jj as u32),
                                Round::new(s),
                            )
                    })
                });
                if ok {
                    cur[jj][s as usize] = true;
                    any = true;
                }
            }
        }
        reach.push(cur);
        if !any {
            break;
        }
    }

    let mut best = 0;
    for (h, table) in reach.iter().enumerate() {
        if table[j.index()][r.index()] {
            best = h as u32;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn r(i: u32) -> Round {
        Round::new(i)
    }

    /// A random run over the graph: each input/message kept with probability `keep`.
    fn random_run<R: Rng>(g: &Graph, n: u32, keep: f64, rng: &mut R) -> Run {
        let mut run = Run::good(g, n);
        for i in g.vertices() {
            if !rng.gen_bool(keep) {
                run.remove_input(i);
            }
        }
        let slots: Vec<_> = run.messages().collect();
        for s in slots {
            if !rng.gen_bool(keep) {
                run.remove_message(s.from, s.to, s.round);
            }
        }
        run
    }

    #[test]
    fn empty_run_has_level_zero() {
        let table = levels(&Run::empty(3, 4));
        assert_eq!(table.min_level(), 0);
        assert_eq!(table.max_level(), 0);
    }

    #[test]
    fn input_without_messages_gives_level_one() {
        let g = Graph::complete(2).unwrap();
        let mut run = Run::empty(2, 3);
        run.add_input(p(0));
        let _ = g;
        let table = levels(&run);
        assert_eq!(table.level(p(0)), 1);
        assert_eq!(table.level(p(1)), 0);
        assert_eq!(table.min_level(), 0);
    }

    #[test]
    fn good_run_levels_climb_one_per_round() {
        // Two processes, all messages delivered: at end of round r the level
        // is r+1 (hear input at round 0, then one exchange per round).
        let g = Graph::complete(2).unwrap();
        let run = Run::good(&g, 5);
        let table = levels(&run);
        for i in [p(0), p(1)] {
            for rr in 0..=5u32 {
                assert_eq!(table.level_at(i, r(rr)), rr + 1, "process {i} round {rr}");
            }
        }
    }

    #[test]
    fn level_monotone_in_round() {
        let g = Graph::ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let table = levels(&run);
            for i in g.vertices() {
                for rr in 1..=4u32 {
                    assert!(table.level_at(i, r(rr)) >= table.level_at(i, r(rr - 1)));
                }
            }
        }
    }

    #[test]
    fn gossip_matches_definition_small_random() {
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let run = random_run(&g, 3, 0.5, &mut rng);
            let fast = levels(&run);
            let fast_m = modified_levels(&run);
            for i in g.vertices() {
                for rr in 0..=3u32 {
                    assert_eq!(
                        fast.level_at(i, r(rr)),
                        level_by_definition(&run, i, r(rr)),
                        "L mismatch at {i}, {rr} in {run:?}"
                    );
                    assert_eq!(
                        fast_m.level_at(i, r(rr)),
                        modified_level_by_definition(&run, i, r(rr)),
                        "ML mismatch at {i}, {rr} in {run:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gossip_matches_definition_line_graph() {
        let g = Graph::line(3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let run = random_run(&g, 4, 0.7, &mut rng);
            let fast = levels(&run);
            for i in g.vertices() {
                assert_eq!(fast.level(i), level_by_definition(&run, i, r(4)));
            }
        }
    }

    #[test]
    fn lemma_6_1_ml_within_one_of_l() {
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let l = levels(&run);
            let ml = modified_levels(&run);
            for i in g.vertices() {
                assert!(ml.level(i) <= l.level(i), "ML ≤ L");
                assert!(l.level(i) <= ml.level(i) + 1, "L - 1 ≤ ML");
            }
        }
    }

    #[test]
    fn lemma_6_2_ml_spread_at_most_one() {
        let g = Graph::ring(4).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..50 {
            let run = random_run(&g, 5, 0.6, &mut rng);
            let ml = modified_levels(&run);
            // |ML_i - ML_j| ≤ 1 — but only when both are positive: processes
            // that never hear rfire stay at 0... The paper's Lemma 6.2 states
            // ML_j ≥ ML_i - 1 unconditionally; verify exactly that.
            let finals = ml.final_levels();
            let max = *finals.iter().max().unwrap();
            for &v in finals.iter() {
                assert!(
                    v + 1 >= max,
                    "Lemma 6.2 violated: finals={finals:?} in {run:?}"
                );
            }
        }
    }

    #[test]
    fn leader_cut_off_keeps_ml_low() {
        // If nobody hears from the leader's round-0 state, ML stays 0 for
        // everyone except possibly the leader itself.
        let g = Graph::complete(3).unwrap();
        let mut run = Run::good(&g, 3);
        // Destroy everything the leader ever sends.
        for rr in 1..=3u32 {
            for j in [p(1), p(2)] {
                run.remove_message(p(0), j, r(rr));
            }
        }
        let ml = modified_levels(&run);
        assert!(ml.level(p(0)) >= 1, "leader knows rfire and input");
        assert_eq!(ml.level(p(1)), 0);
        assert_eq!(ml.level(p(2)), 0);
        // Lemma 6.2 still holds: max - min <= 1 requires leader level <= 1.
        assert_eq!(ml.level(p(0)), 1);
    }

    #[test]
    fn star_graph_levels_slower() {
        // On a star, leaves only talk through the center: levels grow at
        // roughly half the complete-graph rate.
        let g = Graph::star(4).unwrap();
        let run = Run::good(&g, 6);
        let table = levels(&run);
        let complete = levels(&Run::good(&Graph::complete(4).unwrap(), 6));
        assert!(table.min_level() < complete.min_level());
        assert!(table.min_level() >= 1);
    }

    #[test]
    fn level_monotone_in_run_subset() {
        // Adding messages can only increase levels.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let small = random_run(&g, 3, 0.4, &mut rng);
            let mut big = small.clone();
            // Add a few random extra deliveries.
            for _ in 0..4 {
                let a = rng.gen_range(0..3u32);
                let b = (a + 1 + rng.gen_range(0..2u32)) % 3;
                let rr = rng.gen_range(1..=3u32);
                big.add_message(p(a), p(b), r(rr));
            }
            let ls = levels(&small);
            let lb = levels(&big);
            for i in g.vertices() {
                assert!(lb.level(i) >= ls.level(i));
            }
        }
    }

    #[test]
    fn lemma_5_1_level_changes_have_message_witnesses() {
        // If L_k(R) = l > 0, some delivered tuple (j, k, r) has L_k^r(R) = l:
        // levels only move when a message arrives.
        let g = Graph::complete(3).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut checked = 0;
        for _ in 0..40 {
            let run = random_run(&g, 4, 0.6, &mut rng);
            let table = levels(&run);
            for k in g.vertices() {
                let l = table.level(k);
                if l <= 1 {
                    // l = 1 can arise from the input (round 0), which is not
                    // a message tuple; the lemma's backward walk then ends at
                    // the input round. Only check l > 1 here.
                    continue;
                }
                checked += 1;
                let witness = run
                    .messages()
                    .filter(|s| s.to == k)
                    .any(|s| table.level_at(k, s.round) == l);
                assert!(witness, "no message witness for L_{k} = {l} in {run:?}");
            }
        }
        assert!(checked > 10, "exercised enough nontrivial cases");
    }

    #[test]
    #[should_panic(expected = "m >= 2")]
    fn single_process_panics() {
        // Construct a degenerate 1-process run directly.
        let run = Run::empty(1, 2);
        let _ = levels(&run);
    }

    #[test]
    fn scratch_min_level_matches_table_min_level() {
        // One scratch reused across runs of different graphs and horizons —
        // exactly the Monte Carlo engine's usage pattern.
        let mut scratch = LevelScratch::new();
        let mut rng = StdRng::seed_from_u64(404);
        for g in [
            Graph::complete(2).unwrap(),
            Graph::complete(3).unwrap(),
            Graph::ring(4).unwrap(),
        ] {
            for _ in 0..25 {
                let run = random_run(&g, 4, 0.55, &mut rng);
                assert_eq!(
                    min_level_into(&run, &mut scratch),
                    levels(&run).min_level(),
                    "L mismatch in {run:?}"
                );
                assert_eq!(
                    min_modified_level_into(&run, &mut scratch),
                    modified_levels(&run).min_level(),
                    "ML mismatch in {run:?}"
                );
            }
        }
    }

    #[test]
    fn frontier_matches_dense_oracle_and_extremes() {
        let mut scratch = LevelScratch::new();
        let mut rng = StdRng::seed_from_u64(909);
        for g in [
            Graph::complete(3).unwrap(),
            Graph::grid(2, 3).unwrap(),
            Graph::star(5).unwrap(),
        ] {
            for _ in 0..25 {
                let run = random_run(&g, 5, 0.5, &mut rng);
                for modified in [false, true] {
                    let table = if modified {
                        modified_levels(&run)
                    } else {
                        levels(&run)
                    };
                    let extremes = if modified {
                        modified_level_extremes_into(&run, &mut scratch)
                    } else {
                        level_extremes_into(&run, &mut scratch)
                    };
                    assert_eq!(
                        extremes,
                        (table.min_level(), table.max_level()),
                        "extremes mismatch (modified={modified}) in {run:?}"
                    );
                    assert_eq!(
                        extremes.0,
                        dense_min_level(&run, modified),
                        "dense oracle mismatch (modified={modified}) in {run:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_accepts_edge_runs() {
        // The same schedule through both delivery representations must give
        // identical levels — this is the contract that lets the sweep engine
        // run on EdgeRun while goldens stay pinned to Run.
        use crate::run::EdgeRun;
        let g = Graph::ring(6).unwrap();
        let mut er = EdgeRun::good(&g, 5);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut scratch = LevelScratch::new();
        for _ in 0..10 {
            er.reset_good();
            for e in 0..er.directed_edge_count() {
                for rr in 1..=5u32 {
                    if rng.gen_bool(0.4) {
                        er.destroy(e, r(rr));
                    }
                }
            }
            if rng.gen_bool(0.3) {
                er.remove_input(p(rng.gen_range(0..6u32)));
            }
            let dense = er.to_run();
            assert_eq!(
                modified_level_extremes_into(&er, &mut scratch),
                modified_level_extremes_into(&dense, &mut scratch),
                "EdgeRun vs Run ML mismatch in {dense:?}"
            );
            assert_eq!(
                level_extremes_into(&er, &mut scratch),
                level_extremes_into(&dense, &mut scratch),
                "EdgeRun vs Run L mismatch in {dense:?}"
            );
        }
    }

    #[test]
    fn prune_plan_is_keyed_on_the_exact_support() {
        // One scratch walks through supports that differ in one key at a
        // time — the edge set at equal (m, N), the horizon at equal edges,
        // the measure at an equal support — ordered so that a stale plan
        // would prune by too early deadlines. Every answer, and the dense
        // run's in between, must match the level tables.
        use crate::run::EdgeRun;
        let mut rng = StdRng::seed_from_u64(4321);
        let mut scratch = LevelScratch::new();
        let graphs = [Graph::line(7).unwrap(), Graph::ring(7).unwrap()];
        let mut check = |g: usize, n: u32, modified: bool| {
            for _ in 0..4 {
                let mut er = EdgeRun::good(&graphs[g], n);
                for e in 0..er.directed_edge_count() {
                    for rr in 1..=n {
                        if rng.gen_bool(0.1) {
                            er.destroy(e, r(rr));
                        }
                    }
                }
                let dense = er.to_run();
                let table = if modified {
                    modified_levels(&dense)
                } else {
                    levels(&dense)
                };
                let want = (table.min_level(), table.max_level());
                for got in [
                    frontier_extremes(&er, modified, &mut scratch),
                    frontier_extremes(&dense, modified, &mut scratch),
                ] {
                    assert_eq!(got, want, "modified={modified} in {dense:?}");
                }
            }
        };
        let by_horizon = (2..=9u32).flat_map(|n| [(0, n), (1, n)]);
        let by_graph = (0..2).flat_map(|g| (2..=9u32).map(move |n| (g, n)));
        let supports: Vec<_> = by_horizon.chain(by_graph).collect();
        for modified in [true, false] {
            for &(g, n) in &supports {
                check(g, n, modified);
            }
        }
        for &(g, n) in &supports {
            check(g, n, true);
            check(g, n, false);
        }
    }

    #[test]
    fn try_levels_returns_typed_error_for_single_process() {
        let run = Run::empty(1, 2);
        let err = try_levels(&run).unwrap_err();
        assert!(err.to_string().contains("m = 1"), "{err}");
        assert!(try_modified_levels(&run).is_err());

        let g = Graph::complete(2).unwrap();
        let good = Run::good(&g, 3);
        assert_eq!(
            try_levels(&good).unwrap().final_levels(),
            levels(&good).final_levels()
        );
    }
}
