//! Exhaustive parallel design-space exploration (DSE) over the paper's
//! 6,656-choice dataflow space (Section III-C).
//!
//! [`crate::mapper::rank`] orders an explicit candidate list; this module
//! answers the question the paper says mappers and DSE tools actually need
//! (Section I): **what is the true optimum of the full enumerated space for
//! this workload?** It does so with a plan-first, bound-ordered sweep
//! ([`explore`]):
//!
//! * **seed** — the Table V presets and their CA companions are evaluated
//!   first (their hand-tuned tile policies are not always reachable by the
//!   balanced concretisation, so seeding guarantees the reported optimum is
//!   never worse than any preset, and their scores give the first pruning
//!   threshold); the best of them is kept as [`ExploreOutcome::best_seed`],
//!   the preset baseline;
//! * **plan** — every pattern of [`PatternSpace`] is concretised with the
//!   balanced tile policy and planned once, in parallel, keeping only its
//!   admissible cycle lower bound and index; the list is sorted by bound;
//! * **waves** — the sorted list is walked in fixed-size waves: the phase
//!   simulations a wave needs that are not memoised yet are run exactly once
//!   across the workers (longest first), the wave's candidates are composed
//!   from them, and the results merge in index order into one top-K (or the
//!   Pareto frontier), which tightens the threshold for the next wave;
//! * **stop** — under runtime pruning the sweep ends at the first candidate
//!   whose bound exceeds the threshold: the list is sorted, so every later
//!   candidate is pruned too;
//! * an optional refinement stage hill-climbs tile sizes around each surviving
//!   winner ([`crate::mapper::refine_tiles`]);
//! * a workload-keyed [`DseCache`] lets repeated sweeps (e.g. the bench
//!   harness evaluating 12 knob points against the exhaustive optimum) skip
//!   re-searching the same workload.
//!
//! The sweep is a serial driver: each parallel step (the plan pass, a wave's
//! simulations, a wave's compositions) is one call to `par_map`, which
//! returns its results in index order, and the merges and the next wave's
//! set-up run on the driver between those calls. `par_map` is the crate's
//! only thread primitive; [`model::explore_model`] scores its joint space
//! through it too. Which candidates a wave holds and what it simulates depend
//! only on the sorted list and the merged results, never on which worker
//! finished first, so the ranked output *and* the work counters are
//! thread-count-invariant.
//! The sweep's oracle is [`crate::mapper::rank`] over [`sweep_candidates`]:
//! its first `top_k` entries are the ranked output, bit for bit.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use omega_accel::AccelConfig;
use omega_dataflow::enumerate::PatternSpace;
use omega_dataflow::tiles::{choose_tiling, Cap, PhasePolicy};
use omega_dataflow::{Dim, GnnDataflow, GnnDataflowPattern, IntraPattern, MappingSpec};

use crate::evaluate::{EvalPlan, PhaseKey, PhaseResult, MAX_CACHED_MARKS};
use crate::mapper::{refine_tiles, Objective};
use crate::{CostReport, GnnWorkload, PreparedEval};

pub mod model;

/// Tuning knobs of an exhaustive exploration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DseOptions {
    /// What to minimise.
    pub objective: Objective,
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// How many ranked winners to keep.
    pub top_k: usize,
    /// Hill-climbing steps per winner in the refinement stage (0 disables it).
    pub refine_steps: usize,
    /// Skip simulating candidates whose admissible cycle lower bound already
    /// exceeds the worst retained top-K score (active under the `Runtime`
    /// objective only; the ranked output is bit-identical either way —
    /// disable to simulate every valid candidate). The sweep visits
    /// candidates in ascending bound order, so it stops at the first one over
    /// the threshold and counts the rest as pruned; the threshold tightens
    /// once per wave, so what is pruned does not depend on `threads`.
    pub prune: bool,
    /// Maintain the full (runtime, energy, buffer-footprint) Pareto frontier
    /// in the same one-pass sweep instead of a single-objective top-K. The
    /// [`ExploreOutcome::frontier`] is filled (deterministically), pruning
    /// switches from the top-K runtime threshold to 3-axis bound-vector
    /// domination, and [`ExploreOutcome::ranked`] becomes the frontier in
    /// runtime order (its head is still the exact runtime optimum).
    pub pareto: bool,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            objective: Objective::Runtime,
            threads: 4,
            top_k: 10,
            refine_steps: 0,
            prune: true,
            pareto: false,
        }
    }
}

impl DseOptions {
    /// Default options for `objective`.
    pub fn new(objective: Objective) -> Self {
        DseOptions { objective, ..Default::default() }
    }
}

/// One ranked exploration winner.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct RankedDataflow {
    /// The concrete dataflow.
    pub dataflow: GnnDataflow,
    /// Its cost report.
    pub report: CostReport,
    /// Objective value (lower is better).
    pub score: f64,
    /// Index in the enumeration order, when the entry came from the pattern
    /// space (`None` for preset seeds and refined dataflows).
    pub pattern_index: Option<usize>,
}

/// One point of the (runtime, energy, buffer-footprint) Pareto frontier: no
/// other evaluated candidate is at least as good on every axis and strictly
/// better on one.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct ParetoPoint {
    /// The concrete dataflow.
    pub dataflow: GnnDataflow,
    /// Its cost report.
    pub report: CostReport,
    /// Runtime axis (cycles).
    pub runtime_cycles: u64,
    /// Energy axis (total pJ).
    pub energy_pj: f64,
    /// Buffer-footprint axis (peak on-chip working set, bytes).
    pub buffer_peak_bytes: u64,
    /// Index in the enumeration order (`None` for preset seeds).
    pub pattern_index: Option<usize>,
}

/// The result of one exhaustive exploration.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct ExploreOutcome {
    /// Winners, best first, deduplicated by concrete dataflow (≤ `top_k`).
    pub ranked: Vec<RankedDataflow>,
    /// The (runtime, energy, buffer-footprint) Pareto frontier in runtime
    /// order, when [`DseOptions::pareto`] is set (empty otherwise).
    /// Deterministic: the set of mutually non-dominated candidates is a
    /// property of the space, independent of threads and pruning.
    pub frontier: Vec<ParetoPoint>,
    /// The best preset seed under [`DseOptions::objective`] (ties to the
    /// earlier seed), `None` when no seed is valid: the preset baseline the
    /// optimum is measured against. It equals the head of
    /// [`crate::mapper::rank`] over [`crate::mapper::extended_candidates`],
    /// except that its report carries no chunk timelines. Recorded in Pareto
    /// mode too; never refined.
    pub best_seed: Option<RankedDataflow>,
    /// Size of the enumerated space (the paper's 6,656).
    pub space: usize,
    /// Successful cost-model evaluations (space + seeds + refinement probes).
    pub evaluated: usize,
    /// Candidates rejected by dataflow validation.
    pub skipped: usize,
    /// Candidates whose admissible bounds proved they cannot enter the ranked
    /// top-K (or the frontier), skipped without simulation
    /// ([`DseOptions::prune`]).
    pub pruned: usize,
    /// Phase simulations the sweep ran: each unique phase configuration once
    /// (an oversized-timeline one once per wave that needs it, since it is not
    /// memoised).
    pub phase_sims: usize,
    /// Phase results the candidates' compositions took from an earlier
    /// simulation instead of their own: lookups minus `phase_sims`.
    pub phase_cache_hits: usize,
    /// Preset seeds evaluated.
    pub seeded: usize,
    /// Evaluations spent by the refinement stage.
    pub refine_evals: usize,
    /// Wall-clock of the exploration in milliseconds.
    pub elapsed_ms: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Tile pass replays the summary-driven walk batched during this
    /// exploration (delta of the process-wide [`omega_accel::telemetry`]
    /// counter, summed over all worker threads) — each one is a whole
    /// row-block timeline the per-edge reference walk would have recomputed.
    /// A batch is a tile group (VFN/FVN: tiles of equal degree sum, max and
    /// rows), a tile class (VNF/NVF: tiles of equal degree multiset) or a
    /// degree class (single-row tiles), so the count moves with how tiles
    /// group, not only with the work searched.
    /// 0 when the answer came from the outcome cache or the reference walk ran.
    pub class_replays: u64,
}

impl ExploreOutcome {
    /// The optimum, if any candidate evaluated successfully.
    pub fn best(&self) -> Option<&RankedDataflow> {
        self.ranked.first()
    }
}

/// The balanced concretisation policy used throughout the explorers:
/// round-robin growth over the dims the pattern allows to be spatial, with the
/// neighbour tile capped at the mean degree.
pub(crate) fn balanced_policy(p: &IntraPattern) -> PhasePolicy {
    let dims: Vec<Dim> = p
        .order()
        .dims()
        .iter()
        .enumerate()
        .filter(|&(i, _)| p.maps()[i] != MappingSpec::Temporal)
        .map(|(_, &d)| d)
        .collect();
    PhasePolicy::round_robin(&dims).with_cap(Dim::N, Cap::MeanDegreePow2)
}

/// Concretises an enumerated pattern for `workload`: balanced round-robin
/// growth over the dims the pattern allows to be spatial, the neighbour tile
/// capped at the mean degree, and a 50-50 PE split for PP patterns.
pub fn concretize_pattern(
    pattern: &GnnDataflowPattern,
    workload: &GnnWorkload,
    cfg: &AccelConfig,
) -> GnnDataflow {
    let ctx = workload.tile_context(pattern.phase_order);
    let (agg_pes, cmb_pes) = pattern.inter.pe_budgets(cfg.num_pes);
    GnnDataflow {
        inter: pattern.inter,
        phase_order: pattern.phase_order,
        agg: choose_tiling(&pattern.agg, &ctx, agg_pes, &balanced_policy(&pattern.agg)),
        cmb: choose_tiling(&pattern.cmb, &ctx, cmb_pes, &balanced_policy(&pattern.cmb)),
    }
}

/// Every pattern of the space concretised ([`concretize_pattern`]) in
/// enumeration order, then the preset seeds
/// ([`crate::mapper::extended_candidates`]): the candidates [`explore`]
/// sweeps, each at its tie-break index (pattern `i` at `i`, seed `j` at
/// `space + j`). [`crate::mapper::rank`] over this list is the sweep's
/// oracle: its first `top_k` entries are [`explore`]'s ranked output, and an
/// entry at a position below the space size has that position as its
/// `pattern_index`.
pub fn sweep_candidates(workload: &GnnWorkload, cfg: &AccelConfig) -> Vec<GnnDataflow> {
    let space = PatternSpace::new();
    let mut out: Vec<GnnDataflow> =
        (0..space.len()).map(|i| concretize_pattern(&space.get(i), workload, cfg)).collect();
    out.extend(crate::mapper::extended_candidates(workload, cfg));
    out
}

/// Locks `m`, adopting the guard even when a previous holder panicked. Every
/// structure guarded this way (the [`DseCache`] state, the serving daemon's
/// queues) stays structurally valid across any panic point, so the poison
/// flag only records that *some* request died — and a long-running mapper
/// process must keep serving after one request panics, not wedge on
/// `PoisonError` forever.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Total order on a `(score, tie-break index)` search key: `f64::total_cmp` on
/// the score — so a NaN objective value can never panic the search mid-sweep
/// (NaN sorts after every finite score and +∞) — then the index.
pub(crate) fn key_cmp(a: (f64, usize), b: (f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A candidate with its evaluation, as tracked inside the search (tie-broken by
/// `index` so results are independent of thread interleaving).
#[derive(Debug, Clone)]
struct Entry<C, R> {
    score: f64,
    index: usize,
    candidate: C,
    report: R,
}

impl<C, R> Entry<C, R> {
    fn key(&self) -> (f64, usize) {
        (self.score, self.index)
    }
}

/// Bounded best-K accumulator, kept sorted ascending by `(score, index)` and
/// deduplicated by candidate: capacity counts *distinct* candidates, with only
/// the best-keyed entry kept per candidate.
///
/// Distinctness is what makes [`TopK::worst_at_capacity`] a sound pruning
/// threshold: once `k` distinct candidates are retained, any candidate that
/// cannot beat the worst of them can never appear in the final ranked list
/// (which also dedups by candidate).
#[derive(Debug)]
struct TopK<C, R> {
    k: usize,
    entries: Vec<Entry<C, R>>,
}

impl<C: PartialEq, R> TopK<C, R> {
    fn new(k: usize) -> Self {
        TopK { k: k.max(1), entries: Vec::with_capacity(k.max(1) + 1) }
    }

    fn offer(&mut self, e: Entry<C, R>) {
        use std::cmp::Ordering::{Greater, Less};
        let key = e.key();
        if let Some(pos) = self.entries.iter().position(|x| x.candidate == e.candidate) {
            // Same candidate seen before: keep whichever entry sorts first.
            if key_cmp(self.entries[pos].key(), key) != Greater {
                return;
            }
            self.entries.remove(pos);
        } else if self.entries.len() == self.k {
            let worst = self.entries.last().expect("non-empty at capacity");
            if key_cmp(key, worst.key()) != Less {
                return;
            }
        }
        let pos = self.entries.partition_point(|x| key_cmp(x.key(), key) == Less);
        self.entries.insert(pos, e);
        self.entries.truncate(self.k);
    }

    /// The worst retained score once `k` distinct candidates are held —
    /// monotonically non-increasing as offers arrive, hence a threshold that
    /// only ever tightens.
    fn worst_at_capacity(&self) -> Option<f64> {
        (self.entries.len() == self.k).then(|| self.entries.last().expect("at capacity").score)
    }
}

/// `true` when `a` Pareto-dominates `b` (no worse everywhere, strictly better
/// somewhere; lower is better on every axis). NaN compares as "not better", so
/// a NaN-scored candidate can never dominate — it just accumulates harmlessly.
fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The Pareto-frontier accumulator of a `--pareto` sweep: entries are
/// mutually non-dominated axis vectors
/// `[runtime cycles, energy pJ, buffer-peak bytes]` with their candidates.
///
/// Order-invariant by construction: an insert is rejected only when an
/// existing entry dominates it, and it evicts every entry it dominates —
/// since dominance is transitive, the surviving set is exactly the
/// non-dominated subset of everything ever offered, in any order. Equal
/// vectors are all kept (neither dominates); the finalisation dedups by
/// candidate. Generic over the candidate/report pair:
/// [`explore`] accumulates dataflows, [`model::explore_model`] whole-model
/// mappings.
pub(crate) struct ParetoFront<C, R> {
    entries: Vec<Entry<C, (R, [f64; 3])>>,
}

impl<C: PartialEq, R> ParetoFront<C, R> {
    pub(crate) fn new() -> Self {
        ParetoFront { entries: Vec::new() }
    }

    /// `true` when some frontier point is *strictly* better than `bounds` on
    /// every axis. Sound to prune on: the axes of `bounds` are admissible
    /// lower bounds, so the candidate's true vector — component-wise ≥ — is
    /// dominated by that same point and can never join the frontier.
    pub(crate) fn strictly_dominates(&self, bounds: &[f64; 3]) -> bool {
        self.entries.iter().any(|e| e.report.1.iter().zip(bounds).all(|(x, y)| x < y))
    }

    /// Offers `(candidate, report, axes)` with tie-break `index`.
    pub(crate) fn offer(&mut self, index: usize, candidate: C, report: R, axes: [f64; 3]) {
        if self.entries.iter().any(|q| dominates(&q.report.1, &axes)) {
            return;
        }
        self.entries.retain(|q| !dominates(&axes, &q.report.1));
        self.entries.push(Entry { score: axes[0], index, candidate, report: (report, axes) });
    }

    /// The frontier in deterministic order: sorted by the axis vector then the
    /// tie-break index, deduplicated by candidate (a preset seed and its
    /// enumerated twin share axes; the enumerated copy's smaller index wins,
    /// keeping the in-space index populated). Each element is
    /// `(index, candidate, report, axes)`.
    pub(crate) fn into_sorted(mut self) -> Vec<(usize, C, R, [f64; 3])> {
        self.entries.sort_by(|a, b| {
            let (va, vb) = (&a.report.1, &b.report.1);
            va[0].total_cmp(&vb[0])
                .then(va[1].total_cmp(&vb[1]))
                .then(va[2].total_cmp(&vb[2]))
                .then(a.index.cmp(&b.index))
        });
        let mut out: Vec<(usize, C, R, [f64; 3])> = Vec::with_capacity(self.entries.len());
        for e in self.entries {
            if out.iter().any(|(_, c, _, _)| *c == e.candidate) {
                continue;
            }
            let (report, axes) = e.report;
            out.push((e.index, e.candidate, report, axes));
        }
        out
    }
}

/// Cooperative cancellation for long-running searches: a cheap, cloneable
/// flag the [`explore_cancellable`] workers check before claiming each phase
/// simulation, composition, or pattern to plan. A serving process hands one to
/// each search it might abandon (deadline expiry, shutdown), so an abandoned
/// search stops burning workers once the simulations already running finish,
/// instead of running to completion.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asks every search holding a clone of this token to stop.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`Self::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Runs `f` on every index of `0..len` across `threads` scoped workers, the
/// caller being one of them, each claiming the next index from an atomic
/// cursor. Results come back in index order. Once `cancel` fires no index is
/// claimed any more, and the unclaimed ones come back `None`. A panic in `f`
/// resumes on the caller once every worker has stopped.
///
/// The crate's only thread primitive: every parallel step of [`explore`] and
/// [`model::explore_model`] is one call.
pub(crate) fn par_map<T: Send>(
    len: usize,
    threads: usize,
    cancel: &CancelToken,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let threads = threads.min(len);
    if threads <= 1 {
        return (0..len).map(|i| (!cancel.is_cancelled()).then(|| f(i))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while !cancel.is_cancelled() {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            done.push((i, f(i)));
        }
        done
    };
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut parts = vec![work()];
        // Join each worker here rather than at the end of the scope, so its
        // thread has exited (and released its allocator arena) on return.
        for worker in workers {
            parts.push(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        parts
    });
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, value) in parts.into_iter().flatten() {
        out[i] = Some(value);
    }
    out
}

/// Exhaustively searches the full 6,656-pattern space for `workload` on `cfg`.
///
/// Plan-first and bound-ordered (see the [module docs](self)): the preset
/// seeds are evaluated first, every pattern is planned once and sorted by its
/// admissible cycle lower bound, and the sorted list is walked in waves that
/// simulate each unique phase configuration once across the workers, compose
/// the wave's candidates from those results, and tighten the pruning
/// threshold between waves.
///
/// Deterministic: the ranked result — and every work counter (`evaluated`,
/// `pruned`, `skipped`, `phase_sims`, `phase_cache_hits`) — is independent of
/// `threads` (ties broken by enumeration index), because wave boundaries and
/// thresholds depend only on the sorted list. [`DseOptions::prune`] only
/// changes the work performed, never the ranked output.
///
/// ```
/// use omega_core::dse::{explore, DseOptions};
/// use omega_core::mapper::Objective;
/// use omega_core::{AccelConfig, GnnWorkload};
///
/// let dataset = omega_graph::DatasetSpec::mutag().generate(1);
/// let workload = GnnWorkload::gcn_layer(&dataset, 16);
/// let outcome = explore(
///     &workload,
///     &AccelConfig::paper_default(),
///     &DseOptions { threads: 2, top_k: 3, ..DseOptions::new(Objective::Runtime) },
/// );
/// assert_eq!(outcome.space, 6_656);
/// let best = outcome.best().expect("the enumerated space is never empty");
/// assert!(best.report.total_cycles > 0);
/// // The optimum is seeded with every Table V preset, so it never loses to one.
/// assert!(outcome.ranked.windows(2).all(|w| w[0].score <= w[1].score));
/// ```
pub fn explore(workload: &GnnWorkload, cfg: &AccelConfig, opts: &DseOptions) -> ExploreOutcome {
    explore_cancellable(workload, cfg, opts, &CancelToken::new())
        .expect("a never-cancelled exploration always completes")
}

/// [`explore`] with cooperative cancellation: returns `None` once `cancel`
/// fires — the workers stop at their next claim, so a cancelled sweep stops
/// burning threads as soon as the simulations already running finish.
/// Partial results are discarded (determinism only holds for completed
/// sweeps); a `None` therefore means "no answer", never "a worse answer".
pub fn explore_cancellable(
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    opts: &DseOptions,
    cancel: &CancelToken,
) -> Option<ExploreOutcome> {
    let t0 = Instant::now();
    if cancel.is_cancelled() {
        return None;
    }
    let replays0 = omega_accel::telemetry::class_replays();
    let space = PatternSpace::new();
    let total = space.len();
    let threads = opts.threads.max(1);
    let prep = PreparedEval::new(workload, cfg);
    let sweep = Sweep {
        prep: &prep,
        space: &space,
        workload,
        cfg,
        opts,
        cancel,
        pruning: opts.prune && opts.objective == Objective::Runtime && !opts.pareto,
    };
    let st = sweep.run(crate::mapper::extended_candidates(workload, cfg))?;
    let mut evaluated = st.evaluated;

    let pareto = opts.pareto;
    let frontier: Vec<ParetoPoint> = st
        .front
        .into_sorted()
        .into_iter()
        .map(|(index, dataflow, report, axes)| ParetoPoint {
            dataflow,
            runtime_cycles: report.total_cycles,
            energy_pj: axes[1],
            buffer_peak_bytes: report.buffer_peak_bytes,
            report,
            pattern_index: (index < total).then_some(index),
        })
        .collect();
    let ranked = if pareto {
        // The frontier is already deduplicated and in runtime order; its head
        // is the exact runtime optimum (nothing can dominate the min-runtime
        // point without beating its runtime).
        frontier
            .iter()
            .take(opts.top_k)
            .map(|p| RankedDataflow {
                dataflow: p.dataflow,
                report: p.report.clone(),
                score: p.runtime_cycles as f64,
                pattern_index: p.pattern_index,
            })
            .collect()
    } else {
        let pool = st.top.entries.into_iter().map(|e| (e.score, e.index, e.candidate, e.report));
        rank_pool(pool.collect(), opts.top_k, total)
    };

    // Refinement: hill-climb tile sizes around each surviving winner and
    // re-rank (refined entries can reshuffle or displace the unrefined ones).
    // Pareto mode skips it: hill-climbing is scalar-objective by construction.
    let mut refine_evals = 0;
    let ranked = if opts.refine_steps > 0 && !pareto {
        let mut pool: Vec<(f64, usize, GnnDataflow, CostReport)> = ranked
            .iter()
            .map(|r| {
                (r.score, r.pattern_index.unwrap_or(usize::MAX / 2), r.dataflow, r.report.clone())
            })
            .collect();
        for r in &ranked {
            if let Some(refined) =
                refine_tiles(&r.dataflow, workload, cfg, opts.objective, opts.refine_steps)
            {
                refine_evals += refined.evaluated;
                pool.push((refined.score, usize::MAX, refined.dataflow, refined.report));
            }
        }
        evaluated += refine_evals;
        rank_pool(pool, opts.top_k, total)
    } else {
        ranked
    };

    let best_seed = st.best_seed.map(|e| RankedDataflow {
        dataflow: e.candidate,
        report: e.report,
        score: e.score,
        pattern_index: None,
    });
    Some(ExploreOutcome {
        ranked,
        frontier,
        best_seed,
        space: total,
        evaluated,
        skipped: st.skipped,
        pruned: st.pruned,
        phase_sims: st.phase_sims,
        phase_cache_hits: st.phase_cache_hits,
        seeded: st.seeded,
        refine_evals,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        threads,
        class_replays: omega_accel::telemetry::class_replays() - replays0,
    })
}

/// Candidates per wave of the layer sweep, and mappings per `par_map` call of
/// the joint model search. Big enough to keep every worker busy, small enough
/// that the pruning threshold tightens often; 32–256 measured alike.
const WAVE: usize = 64;

/// Timeline chunks a wave may hold in results too big to memoise (more than
/// `MAX_CACHED_MARKS` chunks): a wave keeps every result it simulates until
/// its candidates are composed, so degenerately tiled PP candidates, whose
/// timelines run to millions of chunks, go a few at a time. The cap counts
/// chunks, not runs, so it bounds even a timeline that does not compress
/// (one run per chunk). A wave always admits its first candidate.
const WAVE_TIMELINE: u64 = 1 << 22;

/// The plan-first, bound-ordered sweep of [`explore_cancellable`]: what every
/// step reads. [`Self::run`] drives it.
struct Sweep<'s, 'a> {
    prep: &'s PreparedEval<'a>,
    space: &'s PatternSpace,
    workload: &'s GnnWorkload,
    cfg: &'s AccelConfig,
    opts: &'s DseOptions,
    cancel: &'s CancelToken,
    /// Runtime top-K pruning is on (pareto mode prunes by bound vector).
    pruning: bool,
}

/// An admitted candidate.
struct Candidate {
    /// Pattern index (past the space for a seed).
    index: usize,
    dataflow: GnnDataflow,
    plan: EvalPlan,
    /// Phase ids of the plan's keys, in [`EvalPlan::keys`] order.
    phases: Vec<usize>,
}

/// The sweep's state, owned by the driver.
struct SweepState {
    /// The wave's candidates, in index order.
    cands: Vec<Candidate>,
    /// Ids of the phases the wave simulates, longest (largest phase bound)
    /// first.
    todo: Vec<usize>,
    /// Every phase configuration seen so far, by id.
    keys: Vec<PhaseKey>,
    /// The id of every phase configuration seen so far.
    ids: HashMap<PhaseKey, usize>,
    /// Each phase's result: memoised, or simulated for the wave in flight. A
    /// result too big to memoise is dropped after its wave, so it is
    /// simulated once per wave that needs it.
    stats: Vec<Option<Arc<PhaseResult>>>,
    /// Per phase id, the last wave that queued it for simulation.
    queued: Vec<usize>,
    /// Number of the wave being set up (from 1).
    wave: usize,
    /// Timeline chunks the wave being set up holds in results too big to
    /// memoise.
    timeline: u64,
    /// Preset seeds not yet admitted (taken by the first wave).
    seeds: Vec<GnnDataflow>,
    /// The plan pass's output — `(cycle lower bound, pattern index)` of every
    /// valid pattern — sorted.
    order: Vec<(u64, usize)>,
    /// Next position of `order` to admit.
    pos: usize,
    top: TopK<GnnDataflow, CostReport>,
    front: ParetoFront<GnnDataflow, CostReport>,
    /// The seed with the lowest `(objective score, index)` — the preset
    /// baseline, kept in every mode.
    best_seed: Option<Entry<GnnDataflow, CostReport>>,
    evaluated: usize,
    skipped: usize,
    pruned: usize,
    seeded: usize,
    phase_sims: usize,
    phase_cache_hits: usize,
}

impl Sweep<'_, '_> {
    /// Runs the sweep: the plan pass, then per wave its simulations and its
    /// compositions, each one [`par_map`], with the merge and the next wave's
    /// set-up on this thread in between. `None` once cancelled.
    fn run(&self, seeds: Vec<GnnDataflow>) -> Option<SweepState> {
        let mut st = SweepState {
            cands: Vec::new(),
            todo: Vec::new(),
            keys: Vec::new(),
            ids: HashMap::new(),
            stats: Vec::new(),
            queued: Vec::new(),
            wave: 0,
            timeline: 0,
            seeds,
            order: Vec::new(),
            pos: 0,
            top: TopK::new(self.opts.top_k),
            front: ParetoFront::new(),
            best_seed: None,
            evaluated: 0,
            skipped: 0,
            pruned: 0,
            seeded: 0,
            phase_sims: 0,
            phase_cache_hits: 0,
        };
        // Plan pass: each valid pattern's admissible cycle lower bound.
        let bounds = self.map(self.space.len(), |index| {
            let df = concretize_pattern(&self.space.get(index), self.workload, self.cfg);
            let plan = self.prep.plan(&df).ok()?;
            Some(self.prep.lower_bound(&plan, df.inter))
        })?;
        for (index, bound) in bounds.into_iter().enumerate() {
            match bound {
                Some(bound) => st.order.push((bound, index)),
                None => st.skipped += 1,
            }
        }
        self.next_wave(&mut st);
        while !st.cands.is_empty() {
            let sims =
                self.map(st.todo.len(), |i| Arc::new(self.prep.simulate(&st.keys[st.todo[i]])))?;
            for (&id, stats) in st.todo.iter().zip(sims) {
                st.stats[id] = Some(stats);
            }
            // Retained reports never expand the chunk timelines: a
            // poorly-tiled PP candidate's run to millions of chunks.
            let reports = self.map(st.cands.len(), |i| {
                let c = &st.cands[i];
                let phases = c.phases.iter().map(|&id| {
                    Arc::clone(st.stats[id].as_ref().expect("simulated before composing"))
                });
                self.prep.compose_from(&c.dataflow, &c.plan, false, phases)
            })?;
            self.advance(&mut st, reports);
        }
        // A cancellation after the last step still counts: a partial top-K
        // must not masquerade as the exhaustive optimum.
        (!self.cancel.is_cancelled()).then_some(st)
    }

    /// [`par_map`] over the sweep's workers; `None` when cancelled.
    fn map<T: Send>(&self, len: usize, f: impl Fn(usize) -> T + Sync) -> Option<Vec<T>> {
        par_map(len, self.opts.threads, self.cancel, f).into_iter().collect()
    }

    /// Merges a wave's composed reports in index order, drops the results
    /// too big to memoise, and sets up the next wave.
    fn advance(&self, st: &mut SweepState, reports: Vec<CostReport>) {
        for (c, report) in st.cands.iter().zip(reports) {
            st.evaluated += 1;
            let entry = Entry {
                score: self.opts.objective.score(&report),
                index: c.index,
                candidate: c.dataflow,
                report,
            };
            if c.index >= self.space.len()
                && st.best_seed.as_ref().is_none_or(|b| key_cmp(entry.key(), b.key()).is_lt())
            {
                st.best_seed = Some(entry.clone());
            }
            if self.opts.pareto {
                let axes = report_axes(&entry.report);
                st.front.offer(c.index, c.dataflow, entry.report, axes);
            } else {
                st.top.offer(entry);
            }
        }
        for &id in &st.todo {
            if st.stats[id].as_ref().is_some_and(|s| s.1.len() > MAX_CACHED_MARKS) {
                st.stats[id] = None;
            }
        }
        self.next_wave(st);
    }

    /// Sets up the next wave: all the seeds first, then candidates from the
    /// bound-sorted list (sorted on the first call, after the plan pass). The
    /// wave is empty when nothing is left.
    fn next_wave(&self, st: &mut SweepState) {
        st.cands.clear();
        st.todo.clear();
        st.wave += 1;
        st.timeline = 0;
        // Seeds sit past the space's indices, which keeps tie-breaking
        // deterministic and marks them as non-enumerated.
        let total = self.space.len();
        for (j, dataflow) in std::mem::take(&mut st.seeds).into_iter().enumerate() {
            if let Ok(plan) = self.prep.plan(&dataflow) {
                self.admit(st, total + j, dataflow, plan);
            }
        }
        if st.wave == 1 {
            st.seeded = st.cands.len();
            st.order.sort_unstable();
        }
        if st.cands.is_empty() {
            self.admit_patterns(st);
        }
        st.cands.sort_unstable_by_key(|c| c.index);
        let keys = &st.keys;
        st.todo.sort_by_cached_key(|&id| Reverse(self.prep.phase_bound(&keys[id])));
        let lookups: usize = st.cands.iter().map(|c| c.phases.len()).sum();
        st.phase_sims += st.todo.len();
        st.phase_cache_hits += lookups - st.todo.len();
    }
    /// Admits up to [`WAVE`] candidates from the sorted list, pruning as it
    /// goes, and fewer when their unmemoisable timelines would pass
    /// [`WAVE_TIMELINE`].
    fn admit_patterns(&self, st: &mut SweepState) {
        // The merged top-K always holds the seeds, so its K-th best distinct
        // score bounds what can still rank.
        let threshold = match st.top.worst_at_capacity() {
            Some(worst) if self.pruning => worst,
            _ => f64::INFINITY,
        };
        while st.cands.len() < WAVE && st.pos < st.order.len() {
            let (bound, index) = st.order[st.pos];
            if bound as f64 > threshold {
                // Sorted by bound: everything from here on is pruned.
                st.pruned += st.order.len() - st.pos;
                st.pos = st.order.len();
                break;
            }
            let dataflow = concretize_pattern(&self.space.get(index), self.workload, self.cfg);
            let plan = self.prep.plan(&dataflow).expect("planned once already");
            // Pareto mode: skip a candidate some frontier point strictly beats
            // on all three admissible bounds.
            if self.opts.pareto
                && self.opts.prune
                && st.front.strictly_dominates(&self.prep.bound_vector(&plan, &dataflow))
            {
                st.pos += 1;
                st.pruned += 1;
                continue;
            }
            if !st.cands.is_empty() && st.timeline + self.new_timeline(st, &plan) > WAVE_TIMELINE {
                break; // it opens the next wave
            }
            st.pos += 1;
            self.admit(st, index, dataflow, plan);
        }
    }

    /// Timeline chunks of the results `plan` would add to the wave being set
    /// up that are too big to memoise.
    fn new_timeline(&self, st: &SweepState, plan: &EvalPlan) -> u64 {
        plan.keys()
            .map(|key| (key, self.prep.timeline_len(key)))
            .filter(|&(key, len)| {
                len > MAX_CACHED_MARKS
                    && st.ids.get(key).is_none_or(|&id| st.queued[id] != st.wave)
            })
            .map(|(_, len)| len)
            .sum()
    }

    /// Adds a candidate to the wave being set up, giving each phase it needs
    /// an id: a memoised result, or a place in the wave's simulations.
    fn admit(&self, st: &mut SweepState, index: usize, dataflow: GnnDataflow, plan: EvalPlan) {
        st.timeline += self.new_timeline(st, &plan);
        let mut phases = Vec::new();
        for key in plan.keys() {
            let id = *st.ids.entry(*key).or_insert_with(|| {
                st.keys.push(*key);
                st.stats.push(None);
                st.queued.push(0);
                st.keys.len() - 1
            });
            if st.stats[id].is_none() && st.queued[id] != st.wave {
                st.queued[id] = st.wave;
                st.todo.push(id);
            }
            phases.push(id);
        }
        st.cands.push(Candidate { index, dataflow, plan, phases });
    }
}

/// The Pareto axis vector of one evaluated dataflow: total cycles, total
/// energy (pJ), and the composed on-chip working-set peak (bytes).
fn report_axes(report: &CostReport) -> [f64; 3] {
    [report.total_cycles as f64, report.energy.total_pj(), report.buffer_peak_bytes as f64]
}

/// Sorts by `(score, index)`, deduplicates identical concrete dataflows, and
/// keeps the best `k`.
fn rank_pool(
    mut pool: Vec<(f64, usize, GnnDataflow, CostReport)>,
    k: usize,
    space: usize,
) -> Vec<RankedDataflow> {
    pool.sort_by(|a, b| key_cmp((a.0, a.1), (b.0, b.1)));
    let mut out: Vec<RankedDataflow> = Vec::with_capacity(k);
    for (score, index, dataflow, report) in pool {
        if out.len() == k {
            break;
        }
        if out.iter().any(|r| r.dataflow == dataflow) {
            continue;
        }
        out.push(RankedDataflow {
            dataflow,
            report,
            score,
            pattern_index: (index < space).then_some(index),
        });
    }
    out
}

/// Default bound on cached outcomes per [`DseCache`]. Generous — an outcome is
/// a few hundred kilobytes at most, so the default caps the cache around a few
/// hundred megabytes — but *bounded*, so a daemon serving endlessly diverse
/// shapes cannot leak memory without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Version tag of the persisted cache file; bump on any change to the entry
/// layout so stale files are rejected instead of misread.
/// v2: `ExploreOutcome` gained `class_replays`.
/// v3: the option fingerprint lost its `seed_presets` and `phase_cache`
/// bytes, so v2 keys no longer match.
/// v4: `ExploreOutcome` gained `best_seed`.
pub const CACHE_FILE_VERSION: u32 = 4;

/// Shape summary of a cached workload, persisted next to each outcome so a
/// serving process can warm-start an unseen shape from its nearest cached
/// neighbour ([`DseCache::warm_hint`]).
#[derive(Debug, Clone, PartialEq, Deserialize, Serialize)]
pub struct WorkloadProfile {
    /// Vertices `V`.
    pub v: u64,
    /// Input feature width `F`.
    pub f: u64,
    /// Output feature width `G`.
    pub g: u64,
    /// Adjacency non-zeros.
    pub nnz: u64,
    /// Mean vertex degree.
    pub mean_degree: f64,
    /// Maximum vertex degree.
    pub max_degree: u64,
    /// Attention heads (0 = no attention phase).
    pub heads: u64,
    /// Elementwise post-phase: 0 = none, 1 = activation, 2 = LayerNorm.
    pub post_op: u8,
}

impl WorkloadProfile {
    /// The profile of `workload`.
    pub fn of(workload: &GnnWorkload) -> Self {
        WorkloadProfile {
            v: workload.v as u64,
            f: workload.f as u64,
            g: workload.g as u64,
            nnz: workload.nnz,
            mean_degree: workload.mean_degree,
            max_degree: workload.max_degree as u64,
            heads: workload.attention.map_or(0, |a| a.heads as u64),
            post_op: post_op_byte(workload.post_op),
        }
    }

    /// Shape distance for nearest-neighbour warm starts: log-scale L2 over the
    /// magnitude axes (a 2× size difference counts the same everywhere), plus
    /// a large constant penalty per *structural* mismatch (attention or
    /// post-phase presence), so a GAT shape never warm-starts a GCN shape
    /// while any structurally compatible neighbour exists.
    pub fn distance(&self, other: &Self) -> f64 {
        let axis = |a: f64, b: f64| {
            let d = ((a + 1.0) / (b + 1.0)).ln();
            d * d
        };
        let mut d2 = axis(self.v as f64, other.v as f64)
            + axis(self.f as f64, other.f as f64)
            + axis(self.g as f64, other.g as f64)
            + axis(self.nnz as f64, other.nnz as f64)
            + axis(self.mean_degree, other.mean_degree)
            + axis(self.max_degree as f64, other.max_degree as f64);
        if (self.heads == 0) != (other.heads == 0) || self.post_op != other.post_op {
            d2 += 1e6;
        } else {
            d2 += axis(self.heads as f64, other.heads as f64);
        }
        d2.sqrt()
    }
}

/// [`GnnWorkload::post_op`] as the stable byte used by both the fingerprint
/// and the persisted [`WorkloadProfile`].
fn post_op_byte(op: Option<omega_accel::engine::ElementwiseOp>) -> u8 {
    match op {
        None => 0,
        Some(omega_accel::engine::ElementwiseOp::Activation) => 1,
        Some(omega_accel::engine::ElementwiseOp::LayerNorm) => 2,
    }
}

/// How a [`DseCache::explore_traced`] request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from an already-cached entry.
    Hit,
    /// Blocked on an identical in-flight search and shared its result.
    Coalesced,
    /// Ran the underlying search.
    Searched,
}

/// A nearest-neighbour warm-start suggestion ([`DseCache::warm_hint`]).
#[derive(Debug, Clone)]
pub struct WarmHint {
    /// The neighbour's full outcome; its ranked dataflows are candidate
    /// mappings for the new shape (re-evaluate them on the actual workload).
    pub outcome: Arc<ExploreOutcome>,
    /// The neighbour's shape.
    pub profile: WorkloadProfile,
    /// [`WorkloadProfile::distance`] between the request and the neighbour.
    pub distance: f64,
}

#[derive(Debug)]
enum FlightState {
    Running,
    Done(Arc<ExploreOutcome>),
    /// The leader panicked before publishing; waiters retry (one becomes the
    /// new leader).
    Abandoned,
}

/// Single-flight rendezvous for one in-progress search.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { state: Mutex::new(FlightState::Running), cv: Condvar::new() }
    }

    /// Blocks until the leader publishes; `None` when it abandoned.
    fn wait(&self) -> Option<Arc<ExploreOutcome>> {
        let mut st = lock_recover(&self.state);
        loop {
            match &*st {
                FlightState::Running => {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(outcome) => return Some(Arc::clone(outcome)),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn finish(&self, state: FlightState) {
        *lock_recover(&self.state) = state;
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct CacheEntry {
    outcome: Arc<ExploreOutcome>,
    profile: WorkloadProfile,
    /// Tick of the last lookup that returned this entry (LRU age).
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<u64, CacheEntry>,
    inflight: HashMap<u64, Arc<Flight>>,
    tick: u64,
}

/// On-disk form of one cache entry.
#[derive(Debug, Clone, Deserialize, Serialize)]
struct PersistedEntry {
    key: u64,
    profile: WorkloadProfile,
    outcome: ExploreOutcome,
}

/// On-disk form of a whole cache; `entries` are ordered least-recently-used
/// first, so reloading reproduces the eviction order.
#[derive(Debug, Clone, Deserialize, Serialize)]
struct PersistedCache {
    version: u32,
    entries: Vec<PersistedEntry>,
}

/// Checksum footer written as the last line of a persisted cache file:
/// the payload's FNV-1a digest and byte length, so a truncated or bit-flipped
/// file is detected at load instead of silently misread.
#[derive(Debug, Clone, Copy, Deserialize, Serialize)]
struct PersistedFooter {
    /// Footer discriminant (the cache file version).
    omega_cache_footer: u32,
    /// FNV-1a digest of the payload bytes.
    crc64: u64,
    /// Payload length in bytes.
    bytes: u64,
}

/// What [`DseCache::load_or_quarantine`] did with the persisted file.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Entries restored into the cache.
    pub loaded: usize,
    /// Where the corrupt file was moved, when validation failed.
    pub quarantined: Option<std::path::PathBuf>,
    /// Whether a stale `.tmp` leftover from a crashed save was deleted.
    pub cleaned_tmp: bool,
}

/// FNV-1a over `bytes` (the checksum of the persisted cache payload).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A workload-keyed, bounded, concurrency-safe cache of exploration outcomes.
///
/// Keyed by everything the (deterministic) result depends on: the workload
/// fingerprint (dimensions and full degree sequence), the accelerator
/// configuration, and the result-affecting options (`objective`, `top_k`,
/// `refine_steps`, `prune`, `pareto` — *not* `threads`). Repeated sweeps
/// over the same workloads hit the cache instead of re-searching.
///
/// Built to sit under a long-running mapper daemon:
///
/// * **single-flight** — concurrent requests for the same key block on one
///   search instead of racing duplicates ([`Self::explore_traced`] reports
///   which path a request took);
/// * **bounded** — at most [`Self::capacity`] entries, evicting the
///   least-recently-used ([`Self::evictions`] counts);
/// * **poison-proof** — a panicking request never wedges later ones (locks are
///   recovered, an abandoned flight is retried by its waiters);
/// * **persistent** — [`Self::save`] / [`Self::load`] round-trip the entries
///   through a versioned JSON file bit-identically, and
///   [`Self::warm_hint`] finds the nearest cached shape for warm starts.
#[derive(Debug)]
pub struct DseCache {
    state: Mutex<CacheState>,
    capacity: usize,
    searches: AtomicUsize,
    hits: AtomicUsize,
    coalesced: AtomicUsize,
    evictions: AtomicUsize,
    cancelled: AtomicUsize,
    quarantined: AtomicUsize,
}

impl Default for DseCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl DseCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        DseCache {
            state: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
            searches: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            cancelled: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).entries.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries held before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// *Completed* searches this cache has performed — incremented when a
    /// search finishes, so panicking searches and coalesced duplicates never
    /// inflate it. This is the observable that distinguishes "served from
    /// cache" from "re-searched", since a re-search of a known workload would
    /// not change [`Self::len`].
    pub fn searches(&self) -> usize {
        self.searches.load(Ordering::Relaxed)
    }

    /// Requests answered from a cached entry.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that blocked on an identical in-flight search and shared its
    /// result instead of duplicating it.
    pub fn coalesced(&self) -> usize {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Searches abandoned by cooperative cancellation
    /// ([`Self::explore_traced_cancellable`]) before they completed.
    pub fn cancelled(&self) -> usize {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Corrupt persisted cache files quarantined by
    /// [`Self::load_or_quarantine`] instead of loaded.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Like [`explore`], but returns the cached outcome when this
    /// (workload, config, options) was searched before.
    pub fn explore(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
    ) -> Arc<ExploreOutcome> {
        self.explore_traced(workload, cfg, opts).0
    }

    /// [`Self::explore`] plus how the request was satisfied. Concurrent
    /// requests for the same key are single-flighted: exactly one runs the
    /// search, the rest block on it and share its outcome.
    pub fn explore_traced(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
    ) -> (Arc<ExploreOutcome>, CacheOutcome) {
        self.explore_traced_cancellable(workload, cfg, opts, &CancelToken::new())
            .expect("a never-cancelled cached exploration always completes")
    }

    /// [`Self::explore_traced`] with cooperative cancellation: `None` once
    /// `cancel` fires, whether this request was leading the search (the sweep
    /// stops at its workers' next claim, the flight is abandoned, waiters
    /// retry) or waiting on another leader. A cancelled search inserts nothing
    /// into the cache and never inflates [`Self::searches`];
    /// [`Self::cancelled`] counts the abandonments.
    pub fn explore_traced_cancellable(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
        cancel: &CancelToken,
    ) -> Option<(Arc<ExploreOutcome>, CacheOutcome)> {
        let key = fingerprint(workload, cfg, opts);
        loop {
            enum Role {
                Wait(Arc<Flight>),
                Lead(Arc<Flight>),
            }
            let role = {
                let mut st = lock_recover(&self.state);
                st.tick += 1;
                let tick = st.tick;
                if let Some(entry) = st.entries.get_mut(&key) {
                    entry.last_used = tick;
                    let outcome = Arc::clone(&entry.outcome);
                    drop(st);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some((outcome, CacheOutcome::Hit));
                }
                if let Some(flight) = st.inflight.get(&key) {
                    Role::Wait(Arc::clone(flight))
                } else {
                    let flight = Arc::new(Flight::new());
                    st.inflight.insert(key, Arc::clone(&flight));
                    Role::Lead(flight)
                }
            };
            match role {
                Role::Wait(flight) => {
                    if let Some(outcome) = flight.wait() {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Some((outcome, CacheOutcome::Coalesced));
                    }
                    // The leader panicked or was cancelled before publishing;
                    // unless this waiter was itself cancelled, retry (it may
                    // become the new leader).
                    if cancel.is_cancelled() {
                        self.cancelled.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
                Role::Lead(flight) => {
                    let lead = FlightLead { cache: self, key, flight: &flight, done: false };
                    match explore_cancellable(workload, cfg, opts, cancel) {
                        Some(outcome) => {
                            let outcome = Arc::new(outcome);
                            lead.complete(Arc::clone(&outcome), WorkloadProfile::of(workload));
                            return Some((outcome, CacheOutcome::Searched));
                        }
                        None => {
                            // Dropping the lead abandons the flight, so any
                            // waiters retry instead of blocking forever.
                            drop(lead);
                            self.cancelled.fetch_add(1, Ordering::Relaxed);
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// A cache probe that does *not* search on miss. `Some` counts as a hit
    /// and refreshes the entry's LRU position.
    pub fn lookup(
        &self,
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        opts: &DseOptions,
    ) -> Option<Arc<ExploreOutcome>> {
        let key = fingerprint(workload, cfg, opts);
        let mut st = lock_recover(&self.state);
        st.tick += 1;
        let tick = st.tick;
        let outcome = st.entries.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.outcome)
        });
        drop(st);
        if outcome.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// The cached outcome whose workload shape is nearest to `workload`
    /// (smallest [`WorkloadProfile::distance`]; ties broken by key for
    /// determinism). `None` when nothing is cached. The caller re-evaluates
    /// the hinted ranked dataflows on the actual workload — a handful of
    /// cost-model calls instead of a full search.
    pub fn warm_hint(&self, workload: &GnnWorkload) -> Option<WarmHint> {
        let profile = WorkloadProfile::of(workload);
        let st = lock_recover(&self.state);
        st.entries
            .iter()
            .map(|(key, entry)| (entry.profile.distance(&profile), *key, entry))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(distance, _, entry)| WarmHint {
                outcome: Arc::clone(&entry.outcome),
                profile: entry.profile.clone(),
                distance,
            })
    }

    /// Inserts under the held lock, evicting least-recently-used entries to
    /// stay within capacity (never the key being inserted).
    fn insert_locked(
        &self,
        st: &mut CacheState,
        key: u64,
        outcome: Arc<ExploreOutcome>,
        profile: WorkloadProfile,
    ) {
        st.tick += 1;
        if !st.entries.contains_key(&key) {
            while st.entries.len() >= self.capacity {
                let victim = st
                    .entries
                    .iter()
                    .min_by_key(|(k, e)| (e.last_used, **k))
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        st.entries.remove(&k);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        let tick = st.tick;
        st.entries.insert(key, CacheEntry { outcome, profile, last_used: tick });
    }

    /// Writes every cached entry to `path` as versioned JSON (atomically:
    /// temp file + rename), least-recently-used first so a reload preserves
    /// the eviction order, followed by a checksum footer line so
    /// [`Self::load_into`] detects truncated or corrupted files instead of
    /// misreading them.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with_crash_point(path, false)
    }

    /// [`Self::save`] with a deterministic crash injected between writing the
    /// temp file and renaming it over `path` — the window a `kill -9` during
    /// save leaves behind. Fault-injection harnesses use it to prove the
    /// recovery path: the original file survives untouched and the leftover
    /// `.tmp` is cleaned up (never loaded) by [`Self::load_or_quarantine`].
    pub fn save_with_crash_point(&self, path: &Path, crash_before_rename: bool) -> io::Result<()> {
        let snapshot = {
            let st = lock_recover(&self.state);
            let mut rows: Vec<(&u64, &CacheEntry)> = st.entries.iter().collect();
            rows.sort_by_key(|(k, e)| (e.last_used, **k));
            PersistedCache {
                version: CACHE_FILE_VERSION,
                entries: rows
                    .into_iter()
                    .map(|(key, entry)| PersistedEntry {
                        key: *key,
                        profile: entry.profile.clone(),
                        outcome: (*entry.outcome).clone(),
                    })
                    .collect(),
            }
        };
        let payload = serde_json::to_string(&snapshot).map_err(io::Error::other)?;
        let footer = PersistedFooter {
            omega_cache_footer: CACHE_FILE_VERSION,
            crc64: fnv1a_64(payload.as_bytes()),
            bytes: payload.len() as u64,
        };
        let footer_json = serde_json::to_string(&footer).map_err(io::Error::other)?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{payload}\n{footer_json}\n"))?;
        if crash_before_rename {
            panic!("injected fault: crash between cache tmp write and rename");
        }
        std::fs::rename(&tmp, path)
    }

    /// Merges the entries persisted at `path` into this cache (evicting LRU
    /// entries if the merge exceeds capacity). Returns how many entries the
    /// file held. Fails with `InvalidData` on a version mismatch, a malformed
    /// or truncated file, a missing checksum footer, or a checksum-footer
    /// mismatch — serving processes
    /// that must survive a corrupt file wrap this in
    /// [`Self::load_or_quarantine`].
    pub fn load_into(&self, path: &Path) -> io::Result<usize> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let text = std::fs::read_to_string(path)?;
        // Layout: `<payload JSON>\n<footer JSON>\n`. Every file this format
        // version was ever written with carries the footer, so a missing or
        // unparseable footer line means the file was cut short.
        let stripped = text.trim_end_matches(['\n', '\r']);
        let (payload, footer) = stripped
            .rfind('\n')
            .map(|i| (&stripped[..i], &stripped[i + 1..]))
            .and_then(|(body, tail)| {
                serde_json::from_str::<PersistedFooter>(tail).ok().map(|f| (body, f))
            })
            .ok_or_else(|| invalid("cache file truncated: no checksum footer".into()))?;
        if footer.bytes != payload.len() as u64 {
            return Err(invalid(format!(
                "cache file truncated: footer expects {} payload bytes, found {}",
                footer.bytes,
                payload.len()
            )));
        }
        if footer.crc64 != fnv1a_64(payload.as_bytes()) {
            return Err(invalid(
                "cache file corrupted: payload checksum does not match footer".into(),
            ));
        }
        let parsed: PersistedCache = serde_json::from_str(payload)
            .map_err(|e| invalid(format!("bad cache file: {e}")))?;
        if parsed.version != CACHE_FILE_VERSION {
            return Err(invalid(format!(
                "cache file version {} (this build reads {})",
                parsed.version, CACHE_FILE_VERSION
            )));
        }
        let count = parsed.entries.len();
        let mut st = lock_recover(&self.state);
        for entry in parsed.entries {
            self.insert_locked(&mut st, entry.key, Arc::new(entry.outcome), entry.profile);
        }
        Ok(count)
    }

    /// The serving-path load: never aborts on a bad file. A missing file is a
    /// cold start; stale `.tmp` leftovers from a crash mid-save are deleted
    /// (never loaded); a file that fails validation ([`Self::load_into`]'s
    /// `InvalidData`) is renamed aside to `<path>.quarantined` — preserved for
    /// inspection, counted by [`Self::quarantined`] — and serving starts cold
    /// to rebuild it. Only genuine I/O errors (permissions, disk) propagate.
    pub fn load_or_quarantine(&self, path: &Path) -> io::Result<LoadReport> {
        let tmp = path.with_extension("tmp");
        let cleaned_tmp = std::fs::remove_file(&tmp).is_ok();
        if !path.exists() {
            return Ok(LoadReport { loaded: 0, quarantined: None, cleaned_tmp });
        }
        match self.load_into(path) {
            Ok(loaded) => Ok(LoadReport { loaded, quarantined: None, cleaned_tmp }),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let quarantine = path.with_extension("quarantined");
                std::fs::rename(path, &quarantine)?;
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(LoadReport { loaded: 0, quarantined: Some(quarantine), cleaned_tmp })
            }
            Err(e) => Err(e),
        }
    }

    /// A fresh default-capacity cache loaded from `path`.
    pub fn load(path: &Path) -> io::Result<DseCache> {
        let cache = DseCache::new();
        cache.load_into(path)?;
        Ok(cache)
    }
}

/// Drop guard held by a single-flight leader. Completing publishes the outcome
/// and counts the search; dropping without completing (the search panicked)
/// abandons the flight so waiters retry instead of blocking forever.
struct FlightLead<'a> {
    cache: &'a DseCache,
    key: u64,
    flight: &'a Flight,
    done: bool,
}

impl FlightLead<'_> {
    fn complete(mut self, outcome: Arc<ExploreOutcome>, profile: WorkloadProfile) {
        self.done = true;
        {
            let mut st = lock_recover(&self.cache.state);
            st.inflight.remove(&self.key);
            self.cache.insert_locked(&mut st, self.key, Arc::clone(&outcome), profile);
        }
        // Counted at completion, so a panicking search never inflates it.
        self.cache.searches.fetch_add(1, Ordering::Relaxed);
        self.flight.finish(FlightState::Done(outcome));
    }
}

impl Drop for FlightLead<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        lock_recover(&self.cache.state).inflight.remove(&self.key);
        self.flight.finish(FlightState::Abandoned);
    }
}

/// FNV-1a fingerprint of everything a deterministic exploration depends on.
fn fingerprint(workload: &GnnWorkload, cfg: &AccelConfig, opts: &DseOptions) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    // The workload *name* is deliberately not hashed: it is cosmetic (layer
    // workloads are named "Cora[L0]" etc.), and the dimensions plus the full
    // degree sequence below already determine the search result — so a model
    // layer shaped like a plain dataset workload shares its cache entry.
    for x in [workload.v as u64, workload.f as u64, workload.g as u64, workload.nnz] {
        eat(&x.to_le_bytes());
    }
    // Attention changes the evaluation (an extra SDDMM phase and its head
    // count), so a GAT layer must never share a cache entry with a plain
    // layer of the same shape.
    eat(&(workload.attention.map_or(0, |a| a.heads as u64)).to_le_bytes());
    // Likewise the elementwise post-phase: an activation/LayerNorm suffix
    // changes every candidate's cycles, so it must key the cached outcome.
    eat(&[workload.post_op.map_or(0u8, |op| match op {
        omega_accel::engine::ElementwiseOp::Activation => 1,
        omega_accel::engine::ElementwiseOp::LayerNorm => 2,
    })]);
    for &d in &workload.degrees {
        eat(&(d as u64).to_le_bytes());
    }
    // The accelerator config, field by field. (This replaces a
    // `serde_json::to_string` round-trip that ran on every cache lookup and
    // silently degraded the key to "" on serialization failure.)
    for x in [
        cfg.num_pes as u64,
        cfg.rf_bytes_per_pe as u64,
        cfg.word_bytes as u64,
        cfg.gb_bytes as u64,
        cfg.gb_bank_bytes as u64,
        cfg.dist_bandwidth as u64,
        cfg.red_bandwidth as u64,
        cfg.dist_latency,
        cfg.tree_latency_per_level,
    ] {
        eat(&x.to_le_bytes());
    }
    eat(&[
        cfg.knobs.psum_group_sharing as u8,
        cfg.knobs.fractional_spill as u8,
        cfg.knobs.per_pass_fill as u8,
        cfg.knobs.enforce_capacity as u8,
        cfg.knobs.reference_walk as u8,
    ]);
    // The result-affecting options (threads affect neither the ranked result
    // nor the work counters, so two searches differing only there share a
    // key; prune keeps the ranked list bit-identical but changes the
    // recorded work counters, so it keys the cached outcome too).
    eat(&[match opts.objective {
        Objective::Runtime => 0u8,
        Objective::Energy => 1,
        Objective::Edp => 2,
    }]);
    for x in [
        opts.top_k as u64,
        opts.refine_steps as u64,
        opts.prune as u64,
        opts.pareto as u64,
    ] {
        eat(&x.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use omega_graph::DatasetSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn wl() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16)
    }

    fn quick_opts() -> DseOptions {
        DseOptions { threads: 2, top_k: 5, ..DseOptions::new(Objective::Runtime) }
    }

    #[test]
    fn explore_covers_the_whole_space() {
        let cfg = AccelConfig::paper_default();
        let out = explore(&wl(), &cfg, &quick_opts());
        assert_eq!(out.space, 6656);
        // Every pattern either evaluated, was rejected by validation, or was
        // lower-bound-pruned; seeds come on top.
        assert_eq!(out.evaluated - out.seeded + out.skipped + out.pruned, 6656);
        assert_eq!(out.seeded, 12); // 9 presets + 3 CA companions
        // The optimisation machinery actually engaged: candidates were pruned
        // and Sequential/SP candidates shared phase simulations.
        assert!(out.pruned > 0, "no candidate was lower-bound-pruned");
        assert!(out.phase_cache_hits > 0, "no phase simulation was reused");
        assert!(out.phase_sims < 2 * (out.evaluated + out.pruned), "cache ran more sims than brute force");
        assert!(out.ranked.len() <= 5);
        assert!(!out.ranked.is_empty());
        // Ranked ascending, deduplicated.
        for w in out.ranked.windows(2) {
            assert!(w[0].score <= w[1].score);
            assert!(w[0].dataflow != w[1].dataflow);
        }
    }

    #[test]
    fn explore_is_thread_count_invariant() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let a = explore(&workload, &cfg, &DseOptions { threads: 1, ..quick_opts() });
        let b = explore(&workload, &cfg, &DseOptions { threads: 4, ..quick_opts() });
        // Waves and their pruning thresholds depend only on the bound-sorted
        // candidate list, never on which worker finished first: the work
        // split itself is invariant, and so is the ranked output.
        let counters = |o: &ExploreOutcome| {
            (o.evaluated, o.pruned, o.skipped, o.phase_sims, o.phase_cache_hits)
        };
        assert_eq!(counters(&a), counters(&b));
        let key = |o: &ExploreOutcome| -> Vec<(String, u64, Option<usize>)> {
            o.ranked
                .iter()
                .map(|r| (r.dataflow.to_string(), r.report.total_cycles, r.pattern_index))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn pruned_and_cached_explore_is_bit_identical_to_reference() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let fast = explore(&workload, &cfg, &quick_opts());
        // The oracle: every candidate of the sweep evaluated cold and ranked.
        let candidates = sweep_candidates(&workload, &cfg);
        let reference = crate::mapper::rank(&candidates, &workload, &cfg, Objective::Runtime);
        let position = |df: &GnnDataflow| candidates.iter().position(|c| c == df).unwrap();
        let key = |r: &RankedDataflow, index: Option<usize>| {
            (r.dataflow.to_string(), r.score.to_bits(), r.report.total_cycles, index)
        };
        let expected: Vec<_> = reference
            .iter()
            .take(fast.ranked.len())
            .map(|r| key(r, Some(position(&r.dataflow)).filter(|&i| i < fast.space)))
            .collect();
        let got: Vec<_> = fast.ranked.iter().map(|r| key(r, r.pattern_index)).collect();
        assert_eq!(fast.ranked.len(), quick_opts().top_k);
        assert_eq!(got, expected);
        // Pruning only changes the work: an unpruned sweep evaluates what the
        // pruned one evaluated or pruned.
        let unpruned = explore(&workload, &cfg, &DseOptions { prune: false, ..quick_opts() });
        assert_eq!(unpruned.pruned, 0);
        assert_eq!(fast.evaluated + fast.pruned, unpruned.evaluated);
        assert_eq!(fast.skipped, unpruned.skipped);
        assert_eq!(fast.seeded, unpruned.seeded);
    }

    #[test]
    fn nan_scores_never_panic_and_sort_last() {
        // A NaN objective score must not panic the sort or the top-K — it
        // ranks after every finite score (f64::total_cmp).
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let df = concretize_pattern(&PatternSpace::new().get(0), &workload, &cfg);
        let report = evaluate(&workload, &df, &cfg).unwrap();
        let mut top: TopK<usize, CostReport> = TopK::new(2);
        for (score, index) in [(f64::NAN, 0usize), (2.0, 1), (1.0, 2)] {
            // Distinct candidates (the index itself), so dedup stays out of
            // the way and the ordering alone is under test.
            top.offer(Entry { score, index, candidate: index, report: report.clone() });
        }
        let order: Vec<usize> = top.entries.iter().map(|e| e.index).collect();
        assert_eq!(order, vec![2, 1]); // NaN fell off the end of the top-2
        let pool = vec![
            (f64::NAN, 0usize, df, report.clone()),
            (1.0, 1, df, report.clone()),
        ];
        let ranked = rank_pool(pool, 2, 10);
        assert_eq!(ranked[0].score, 1.0); // no panic, finite first
    }

    #[test]
    fn explore_winner_beats_every_preset() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let out = explore(&workload, &cfg, &quick_opts());
        let best = out.best().expect("winner");
        for df in crate::mapper::extended_candidates(&workload, &cfg) {
            let r = evaluate(&workload, &df, &cfg).expect("presets evaluate");
            assert!(best.score <= r.total_cycles as f64, "{df}");
        }

        // The recorded best seed is the preset ranking's head, bit for bit,
        // under every objective and mode, and on a capacity-enforced machine.
        let mut capped = cfg;
        capped.rf_bytes_per_pe = 32;
        capped.knobs.enforce_capacity = true;
        let runs = [
            (&cfg, quick_opts()),
            (&cfg, DseOptions { objective: Objective::Energy, ..quick_opts() }),
            (&cfg, DseOptions { objective: Objective::Edp, ..quick_opts() }),
            (&cfg, DseOptions { pareto: true, ..quick_opts() }),
            (&cfg, DseOptions { refine_steps: 4, ..quick_opts() }),
            (&cfg, DseOptions { prune: false, ..quick_opts() }),
            (&capped, quick_opts()),
        ];
        let key = |r: &RankedDataflow| {
            let energy = r.report.energy.total_pj().to_bits();
            (r.dataflow, r.score.to_bits(), r.report.total_cycles, energy)
        };
        for (cfg, opts) in runs {
            let out = explore(&workload, cfg, &opts);
            let presets = crate::mapper::extended_candidates(&workload, cfg);
            let expected = crate::mapper::rank(&presets, &workload, cfg, opts.objective);
            let seed = out.best_seed.as_ref().expect("a valid seed");
            assert_eq!(key(seed), key(&expected[0]), "{opts:?}");
            assert_eq!(seed.pattern_index, None);
            assert!(out.best().unwrap().score <= seed.score, "{opts:?}");
        }
    }

    #[test]
    fn refinement_never_worsens_the_optimum() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let plain = explore(&workload, &cfg, &quick_opts());
        let refined =
            explore(&workload, &cfg, &DseOptions { refine_steps: 8, ..quick_opts() });
        assert!(refined.best().unwrap().score <= plain.best().unwrap().score);
        assert!(refined.refine_evals > 0);
        assert!(refined.evaluated > plain.evaluated);
    }

    #[test]
    fn cache_returns_shared_outcome() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let cache = DseCache::new();
        let a = cache.explore(&workload, &cfg, &quick_opts());
        let b = cache.explore(&workload, &cfg, &quick_opts());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // Thread count does not key the cache…
        let c = cache.explore(&workload, &cfg, &DseOptions { threads: 7, ..quick_opts() });
        assert!(Arc::ptr_eq(&a, &c));
        // …but the objective does.
        let d = cache.explore(
            &workload,
            &cfg,
            &DseOptions { objective: Objective::Edp, threads: 2, top_k: 5, ..Default::default() },
        );
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 2);
        // Every request above was either a completed search or a hit, counted
        // at the right moment.
        assert_eq!(cache.searches(), 2);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn cache_single_flights_concurrent_identical_requests() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let cache = DseCache::new();
        let opts = quick_opts();
        const N: usize = 8;
        let results: Vec<(Arc<ExploreOutcome>, CacheOutcome)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| s.spawn(|| cache.explore_traced(&workload, &cfg, &opts)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        // Exactly one underlying search ran, no matter how the threads raced;
        // everyone shares the same outcome allocation.
        assert_eq!(cache.searches(), 1, "duplicate searches ran");
        let searched =
            results.iter().filter(|(_, how)| *how == CacheOutcome::Searched).count();
        assert_eq!(searched, 1);
        assert_eq!(cache.hits() + cache.coalesced(), N - 1);
        for (outcome, _) in &results {
            assert!(Arc::ptr_eq(outcome, &results[0].0));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_recovers_from_poisoned_lock() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let cache = DseCache::new();
        cache.explore(&workload, &cfg, &quick_opts());
        // Inject a panic while holding the state lock, poisoning it.
        let injected = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.state.lock().unwrap();
                panic!("injected panic while holding the cache lock");
            })
            .join()
        });
        assert!(injected.is_err());
        assert!(cache.state.is_poisoned());
        // The cache keeps serving: hits, fresh searches, saves.
        assert_eq!(cache.len(), 1);
        let (_, how) = cache.explore_traced(&workload, &cfg, &quick_opts());
        assert_eq!(how, CacheOutcome::Hit);
        let fresh = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 32);
        let (_, how) = cache.explore_traced(&fresh, &cfg, &quick_opts());
        assert_eq!(how, CacheOutcome::Searched);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn abandoned_flight_unblocks_waiters_without_counting_a_search() {
        // Unit-level injection of the leader-panicked path: a FlightLead
        // dropped without completing (what unwinding through the search does).
        let cache = DseCache::new();
        let key = 42u64;
        let flight = Arc::new(Flight::new());
        lock_recover(&cache.state).inflight.insert(key, Arc::clone(&flight));
        let lead = FlightLead { cache: &cache, key, flight: &flight, done: false };
        drop(lead);
        // Waiters observe the abandonment (and would retry as leaders) rather
        // than blocking forever; the dead flight is deregistered; the search
        // counter never moved because nothing completed.
        assert!(flight.wait().is_none());
        assert!(lock_recover(&cache.state).inflight.is_empty());
        assert_eq!(cache.searches(), 0);
    }

    #[test]
    fn cache_evicts_least_recently_used_first() {
        let cfg = AccelConfig::paper_default();
        let cache = DseCache::with_capacity(2);
        let dataset = DatasetSpec::mutag().generate(4);
        let (a, b, c) = (
            GnnWorkload::gcn_layer(&dataset, 8),
            GnnWorkload::gcn_layer(&dataset, 16),
            GnnWorkload::gcn_layer(&dataset, 32),
        );
        let opts = quick_opts();
        cache.explore(&a, &cfg, &opts);
        cache.explore(&b, &cfg, &opts);
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        // Touch `a`, making `b` the least recently used…
        assert!(cache.lookup(&a, &cfg, &opts).is_some());
        // …so inserting `c` evicts `b`, not `a`.
        cache.explore(&c, &cfg, &opts);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        assert!(cache.lookup(&a, &cfg, &opts).is_some());
        assert!(cache.lookup(&b, &cfg, &opts).is_none());
        assert!(cache.lookup(&c, &cfg, &opts).is_some());
    }

    #[test]
    fn cache_persistence_round_trips_bit_identically() {
        let cfg = AccelConfig::paper_default();
        let cache = DseCache::new();
        let dataset = DatasetSpec::mutag().generate(4);
        let (a, b) =
            (GnnWorkload::gcn_layer(&dataset, 8), GnnWorkload::gcn_layer(&dataset, 16));
        let opts = quick_opts();
        let out_a = cache.explore(&a, &cfg, &opts);
        let out_b = cache.explore(&b, &cfg, &opts);

        let dir = std::env::temp_dir();
        let path = dir.join(format!("omega-dse-cache-rt-{}.json", std::process::id()));
        let path2 = dir.join(format!("omega-dse-cache-rt2-{}.json", std::process::id()));
        cache.save(&path).expect("save");

        let loaded = DseCache::load(&path).expect("load");
        assert_eq!(loaded.len(), 2);
        // Both workloads hit without searching, and the reloaded outcomes are
        // bit-identical to the originals (JSON equality covers every ranked
        // score bit: floats round-trip exactly through the writer/parser).
        let (back_a, how_a) = loaded.explore_traced(&a, &cfg, &opts);
        let (back_b, how_b) = loaded.explore_traced(&b, &cfg, &opts);
        assert_eq!((how_a, how_b), (CacheOutcome::Hit, CacheOutcome::Hit));
        assert_eq!(loaded.searches(), 0);
        for (orig, back) in [(&out_a, &back_a), (&out_b, &back_b)] {
            assert_eq!(
                serde_json::to_string(&**orig).unwrap(),
                serde_json::to_string(&**back).unwrap()
            );
        }
        // A second save of the reloaded cache reproduces the file byte for
        // byte (entry order included).
        loaded.save(&path2).expect("re-save");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap(),
            "persisted cache not byte-stable across a load/save cycle"
        );

        // Version mismatches are rejected instead of misread. The bumped
        // payload gets a matching footer, so the version check (not the
        // length or checksum check) is what fires.
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = text.lines().next().unwrap();
        let bumped =
            payload.replacen(&format!("\"version\":{CACHE_FILE_VERSION}"), "\"version\":999", 1);
        assert_ne!(payload, bumped, "version field not found in persisted file");
        let footer = PersistedFooter {
            omega_cache_footer: CACHE_FILE_VERSION,
            crc64: fnv1a_64(bumped.as_bytes()),
            bytes: bumped.len() as u64,
        };
        let footer = serde_json::to_string(&footer).unwrap();
        std::fs::write(&path, format!("{bumped}\n{footer}\n")).unwrap();
        let err = DseCache::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 999"), "{err}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn cancelled_explore_returns_none_not_a_partial_answer() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        // A token cancelled before the sweep starts: no answer at all, rather
        // than an empty or partial ranked list masquerading as the optimum.
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(explore_cancellable(&workload, &cfg, &quick_opts(), &cancel).is_none());
        // A fresh token completes and matches the plain entry point bit for bit.
        let some = explore_cancellable(&workload, &cfg, &quick_opts(), &CancelToken::new())
            .expect("uncancelled search completes");
        let plain = explore(&workload, &cfg, &quick_opts());
        assert_eq!(
            some.ranked.iter().map(|r| r.dataflow.to_string()).collect::<Vec<_>>(),
            plain.ranked.iter().map(|r| r.dataflow.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cancelling_mid_sweep_answers_none_and_caches_nothing() {
        // A token cancelled from another thread while an rmat-16 sweep runs:
        // the workers stop at their next claim (a single large-graph phase
        // simulation is the longest wait), the search answers `None`, and
        // nothing enters the cache — the serving deadline ladder relies on
        // all three.
        let graph = omega_graph::scale_graph("rmat-16", 11).expect("rmat-16 resolves");
        let workload = GnnWorkload::from_graph(&graph, 16);
        let cfg = AccelConfig::paper_default();
        // Unpruned, so the sweep runs for seconds and the cancel surely lands
        // inside it.
        let opts = DseOptions { threads: 2, prune: false, ..DseOptions::new(Objective::Runtime) };
        let cache = DseCache::new();
        let cancel = CancelToken::new();
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                // Wait for the search to be in flight and simulating.
                while lock_recover(&cache.state).inflight.is_empty() {
                    std::thread::yield_now();
                }
                let replays = omega_accel::telemetry::class_replays();
                while omega_accel::telemetry::class_replays() == replays {
                    std::thread::yield_now();
                }
                cancel.cancel();
            });
            cache.explore_traced_cancellable(&workload, &cfg, &opts, &cancel)
        });
        assert!(got.is_none(), "a cancelled sweep must not answer");
        assert_eq!(cache.len(), 0, "a cancelled sweep must not populate the cache");
        assert_eq!((cache.searches(), cache.cancelled()), (0, 1));
        // The plain entry point gives the same verdict for the same token.
        assert!(explore_cancellable(&workload, &cfg, &opts, &cancel).is_none());
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        let never = CancelToken::new();
        for threads in [1, 2, 8] {
            for len in [0, 1, 3, 100] {
                let want: Vec<Option<usize>> = (0..len).map(|i| Some(i * i)).collect();
                assert_eq!(par_map(len, threads, &never, |i| i * i), want, "{threads}t, len {len}");
            }
        }
    }

    #[test]
    fn par_map_claims_nothing_once_cancelled() {
        let cancel = CancelToken::new();
        cancel.cancel();
        for threads in [1, 2, 8] {
            let out = par_map(50, threads, &cancel, |i| i);
            assert!(out.iter().all(Option::is_none), "{threads} threads");
        }
    }

    #[test]
    fn a_panic_in_par_map_surfaces_instead_of_hanging() {
        let never = CancelToken::new();
        let caller = std::thread::current().id();
        for threads in [2, 8] {
            for panic_on_caller in [false, true] {
                // Each of the first `threads` indices holds its thread at the
                // barrier until all have arrived, so the caller and every
                // worker reach the panic check.
                let barrier = std::sync::Barrier::new(threads);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    par_map(64, threads, &never, |i| {
                        if i < threads {
                            barrier.wait();
                        }
                        let on_caller = std::thread::current().id() == caller;
                        assert!(on_caller != panic_on_caller, "injected panic at {i}");
                    })
                }));
                assert!(outcome.is_err(), "{threads} threads, panic on caller: {panic_on_caller}");
            }
        }
        let serial = catch_unwind(|| par_map(4, 1, &never, |i| assert!(i < 2, "injected")));
        assert!(serial.is_err());
    }

    #[test]
    fn cancelled_cache_search_inserts_nothing_and_counts() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let cache = DseCache::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(cache
            .explore_traced_cancellable(&workload, &cfg, &quick_opts(), &cancel)
            .is_none());
        assert_eq!(cache.len(), 0, "a cancelled search must not populate the cache");
        assert_eq!(cache.searches(), 0);
        assert_eq!(cache.cancelled(), 1);
        // The abandoned flight is deregistered: a later request leads afresh.
        let (_, how) = cache.explore_traced(&workload, &cfg, &quick_opts());
        assert_eq!(how, CacheOutcome::Searched);
        assert_eq!(cache.searches(), 1);
        // A cancelled request whose key is already cached is still a hit:
        // answering from memory needs no search to abandon.
        let got = cache.explore_traced_cancellable(&workload, &cfg, &quick_opts(), &cancel);
        assert_eq!(got.map(|(_, how)| how), Some(CacheOutcome::Hit));
    }

    #[test]
    fn load_into_rejects_truncated_corrupted_and_garbage_files() {
        let cfg = AccelConfig::paper_default();
        let cache = DseCache::new();
        cache.explore(&wl(), &cfg, &quick_opts());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("omega-dse-cache-corrupt-{}.json", std::process::id()));
        cache.save(&path).expect("save");
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation anywhere in the payload: the footer length check fires.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = DseCache::new().load_into(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A single flipped payload byte: the checksum fires even though the
        // file is still length-consistent, well-formed JSON.
        let flipped = good.replacen("\"v\":", "\"w\":", 1);
        assert_ne!(good, flipped);
        std::fs::write(&path, &flipped).unwrap();
        let err = DseCache::new().load_into(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // The footer line deleted: the payload alone is well-formed JSON, but
        // without its footer neither its length nor its checksum can be
        // checked, so it is refused rather than trusted.
        let payload = good.lines().next().unwrap();
        std::fs::write(&path, format!("{payload}\n")).unwrap();
        let err = DseCache::new().load_into(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("footer"), "{err}");
        let quarantine = path.with_extension("quarantined");
        let report = DseCache::new().load_or_quarantine(&path).expect("quarantine");
        assert_eq!(report.quarantined.as_deref(), Some(quarantine.as_path()));
        let _ = std::fs::remove_file(&quarantine);

        // Garbage that was never a cache file.
        std::fs::write(&path, "!!! not a cache file !!!").unwrap();
        let err = DseCache::new().load_into(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // And the untouched file still round-trips.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(DseCache::new().load_into(&path).unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_or_quarantine_survives_corruption_and_cleans_stale_tmp() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("omega-dse-cache-quar-{}.json", std::process::id()));
        let tmp = path.with_extension("tmp");
        let quarantine = path.with_extension("quarantined");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);

        // Missing file: a cold start, and a stale tmp from a crashed save is
        // deleted without ever being loaded.
        std::fs::write(&tmp, "half-written snapshot").unwrap();
        let cache = DseCache::new();
        let report = cache.load_or_quarantine(&path).expect("cold start");
        assert_eq!(report.loaded, 0);
        assert!(report.cleaned_tmp);
        assert!(!tmp.exists(), "stale tmp must be removed");

        // Corrupt file: quarantined aside (preserved for inspection), serving
        // starts cold instead of aborting.
        std::fs::write(&path, "{\"version\":1,\"entries\":[tru").unwrap();
        let report = cache.load_or_quarantine(&path).expect("quarantine");
        assert_eq!(report.loaded, 0);
        assert_eq!(report.quarantined.as_deref(), Some(quarantine.as_path()));
        assert!(!path.exists() && quarantine.exists());
        assert_eq!(cache.quarantined(), 1);

        // The rebuilt cache then persists and reloads normally.
        let cfg = AccelConfig::paper_default();
        cache.explore(&wl(), &cfg, &quick_opts());
        cache.save(&path).expect("save rebuilt");
        let report = cache.load_or_quarantine(&path).expect("reload");
        assert_eq!(report.loaded, 1);
        assert!(report.quarantined.is_none());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn crash_between_tmp_write_and_rename_preserves_the_previous_file() {
        let cfg = AccelConfig::paper_default();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("omega-dse-cache-crash-{}.json", std::process::id()));
        let tmp = path.with_extension("tmp");
        let cache = DseCache::new();
        cache.explore(&wl(), &cfg, &quick_opts());
        cache.save(&path).expect("first save");
        let before = std::fs::read(&path).unwrap();

        // Grow the cache, then crash the save in the kill-during-save window.
        let bigger = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 32);
        cache.explore(&bigger, &cfg, &quick_opts());
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            cache.save_with_crash_point(&path, true)
        }));
        assert!(crashed.is_err(), "the injected crash must unwind");
        assert!(tmp.exists(), "the crash leaves a tmp file behind");
        assert_eq!(std::fs::read(&path).unwrap(), before, "the target file is untouched");

        // Recovery: the previous snapshot loads, the leftover tmp is cleaned.
        let recovered = DseCache::new();
        let report = recovered.load_or_quarantine(&path).expect("recover");
        assert_eq!(report.loaded, 1, "the pre-crash snapshot survives");
        assert!(report.cleaned_tmp && !tmp.exists());
        let _ = std::fs::remove_file(&path);
    }

    /// A saved two-entry cache file, built once for the mutation property.
    fn saved_cache_file() -> &'static str {
        static SAVED: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        SAVED.get_or_init(|| {
            let cfg = AccelConfig::paper_default();
            let cache = DseCache::new();
            let dataset = DatasetSpec::mutag().generate(4);
            let opts = DseOptions { top_k: 2, ..quick_opts() };
            for hidden in [8, 16] {
                cache.explore(&GnnWorkload::gcn_layer(&dataset, hidden), &cfg, &opts);
            }
            let path = std::env::temp_dir()
                .join(format!("omega-dse-cache-mut-src-{}.json", std::process::id()));
            cache.save(&path).expect("save");
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            text
        })
    }

    /// One mutation of a saved cache file.
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        /// XOR the byte at `at` with a non-zero mask.
        Flip { at: usize, mask: u8 },
        /// Keep only the first `len` bytes.
        Truncate { len: usize },
        /// Insert `byte` before position `at`.
        Insert { at: usize, byte: u8 },
        /// Delete the footer line after changing the `nth` payload digit to
        /// `to`: a corrupted payload that lost the footer which would have
        /// caught it.
        DropFooter { nth: usize, to: u8 },
        /// Add `delta` to the footer's `bytes` (`field == 0`) or `crc64`.
        FooterField { field: u8, delta: u64 },
    }

    fn mutate(good: &str, m: Mutation) -> Vec<u8> {
        let mut bytes = good.as_bytes().to_vec();
        let (payload, footer) = good.trim_end().split_once('\n').expect("payload and footer");
        match m {
            Mutation::Flip { at, mask } => bytes[at] ^= mask,
            Mutation::Truncate { len } => bytes.truncate(len),
            Mutation::Insert { at, byte } => bytes.insert(at, byte),
            Mutation::DropFooter { nth, to } => {
                let mut body = payload.as_bytes().to_vec();
                let digits: Vec<usize> = (0..body.len()).filter(|&i| body[i].is_ascii_digit()).collect();
                let at = digits[nth % digits.len()];
                let to = b'0' + to % 10;
                body[at] = if body[at] == to { b'0' + (to - b'0' + 1) % 10 } else { to };
                body.push(b'\n');
                bytes = body;
            }
            Mutation::FooterField { field, delta } => {
                let mut f: PersistedFooter = serde_json::from_str(footer).unwrap();
                if field == 0 {
                    f.bytes = f.bytes.wrapping_add(delta);
                } else {
                    f.crc64 = f.crc64.wrapping_add(delta);
                }
                let f = serde_json::to_string(&f).unwrap();
                bytes = format!("{payload}\n{f}\n").into_bytes();
            }
        }
        bytes
    }

    /// Writes `mutated` to a fresh path and loads it the serving way: the
    /// load must not panic, and must either restore exactly the saved
    /// entries (re-saving reproduces `good` byte for byte) or quarantine the
    /// file.
    fn check_mutated_load(good: &str, mutated: &[u8], what: &str) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("omega-dse-cache-mut-{}-{case}.json", std::process::id()));
        let quarantine = path.with_extension("quarantined");
        std::fs::write(&path, mutated).unwrap();
        let cache = DseCache::new();
        let report = catch_unwind(AssertUnwindSafe(|| cache.load_or_quarantine(&path)))
            .unwrap_or_else(|_| panic!("{what}: loading panicked"))
            .unwrap_or_else(|e| panic!("{what}: I/O error {e}"));
        match report.quarantined {
            Some(q) => {
                assert_eq!(q, quarantine, "{what}");
                assert_eq!(report.loaded, 0, "{what}");
                assert!(cache.is_empty() && !path.exists(), "{what}");
                assert_eq!(std::fs::read(&quarantine).unwrap(), mutated, "{what}");
            }
            None => {
                assert_eq!(report.loaded, 2, "{what}: loaded a different entry count");
                cache.save(&path).unwrap();
                let resaved = std::fs::read_to_string(&path).unwrap();
                assert!(resaved == good, "{what}: loaded entries differ from the saved ones");
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    /// Every edit of the footer line (and of the line break before it) and
    /// every way of cutting it off: each flip, truncation and insertion
    /// there, one by one.
    #[test]
    fn footer_edits_load_identically_or_are_quarantined() {
        let good = saved_cache_file();
        let footer_start = good.trim_end().rfind('\n').unwrap();
        for at in footer_start..good.len() {
            for mask in [0x01, 0x20, 0x80] {
                let m = Mutation::Flip { at, mask };
                check_mutated_load(good, &mutate(good, m), &format!("{m:?}"));
            }
            for byte in [b' ', b'\n', b'0', b'}'] {
                let m = Mutation::Insert { at, byte };
                check_mutated_load(good, &mutate(good, m), &format!("{m:?}"));
            }
            let m = Mutation::Truncate { len: at };
            check_mutated_load(good, &mutate(good, m), &format!("{m:?}"));
        }
        for m in [
            Mutation::DropFooter { nth: 10, to: 1 },
            Mutation::FooterField { field: 0, delta: 1 },
            Mutation::FooterField { field: 1, delta: 1 },
        ] {
            check_mutated_load(good, &mutate(good, m), &format!("{m:?}"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        /// Any single byte flip, truncation, insertion or footer edit of a
        /// saved multi-entry cache file loads the saved entries bit for bit
        /// or is quarantined, and never panics.
        #[test]
        fn mutated_cache_files_load_identically_or_are_quarantined(
            kind in 0u8..5,
            pos in 0usize..1 << 24,
            byte in 0u8..=255,
            delta in 1u64..1 << 40,
        ) {
            let good = saved_cache_file();
            let len = good.len();
            let m = match kind {
                0 => Mutation::Flip { at: pos % len, mask: byte.max(1) },
                1 => Mutation::Truncate { len: pos % len },
                2 => Mutation::Insert { at: pos % (len + 1), byte },
                3 => Mutation::DropFooter { nth: pos, to: byte },
                _ => Mutation::FooterField { field: byte % 2, delta },
            };
            check_mutated_load(good, &mutate(good, m), &format!("{m:?}"));
        }
    }

    #[test]
    fn warm_hint_returns_nearest_cached_shape() {
        let cfg = AccelConfig::paper_default();
        let cache = DseCache::new();
        let dataset = DatasetSpec::mutag().generate(4);
        let opts = quick_opts();
        assert!(cache.warm_hint(&GnnWorkload::gcn_layer(&dataset, 16)).is_none());
        cache.explore(&GnnWorkload::gcn_layer(&dataset, 8), &cfg, &opts);
        cache.explore(&GnnWorkload::gcn_layer(&dataset, 64), &cfg, &opts);
        // g=16 is closer to g=8 than to g=64 in log space.
        let hint = cache.warm_hint(&GnnWorkload::gcn_layer(&dataset, 16)).unwrap();
        assert_eq!(hint.profile.g, 8);
        assert!(hint.distance > 0.0 && hint.distance < 1.0, "{}", hint.distance);
        // An attention workload is structurally different from every cached
        // entry: a hint still comes back, but carrying the mismatch penalty.
        let gat = GnnWorkload::gat_layer(&dataset, 16, 4);
        let hint = cache.warm_hint(&gat).unwrap();
        assert!(hint.distance > 100.0, "{}", hint.distance);
    }

    #[test]
    fn pareto_frontier_is_sound_and_thread_invariant() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let opts = DseOptions { pareto: true, ..quick_opts() };
        let out = explore(&workload, &cfg, &opts);
        // Accounting still closes with frontier-based pruning in the loop.
        assert_eq!(out.evaluated - out.seeded + out.skipped + out.pruned, 6656);
        assert!(out.frontier.len() >= 3, "frontier too small: {}", out.frontier.len());
        // Mutually non-dominated, sorted by runtime.
        for (i, a) in out.frontier.iter().enumerate() {
            for (j, b) in out.frontier.iter().enumerate() {
                if i != j {
                    let av = [a.runtime_cycles as f64, a.energy_pj, a.buffer_peak_bytes as f64];
                    let bv = [b.runtime_cycles as f64, b.energy_pj, b.buffer_peak_bytes as f64];
                    assert!(!dominates(&av, &bv), "{} dominates {}", a.dataflow, b.dataflow);
                }
            }
        }
        for w in out.frontier.windows(2) {
            assert!(w[0].runtime_cycles <= w[1].runtime_cycles);
        }
        // The frontier head is the exact runtime optimum of the plain search,
        // and the ranked list mirrors the frontier in pareto mode.
        let plain = explore(&workload, &cfg, &quick_opts());
        assert_eq!(out.frontier[0].runtime_cycles, plain.best().unwrap().report.total_cycles);
        assert_eq!(out.ranked.len(), out.frontier.len().min(opts.top_k));
        // Thread count does not change the frontier bit for bit.
        let b = explore(&workload, &cfg, &DseOptions { threads: 4, pareto: true, ..quick_opts() });
        let key = |o: &ExploreOutcome| -> Vec<(String, u64, u64, u64, Option<usize>)> {
            o.frontier
                .iter()
                .map(|p| {
                    (
                        p.dataflow.to_string(),
                        p.runtime_cycles,
                        p.energy_pj.to_bits(),
                        p.buffer_peak_bytes,
                        p.pattern_index,
                    )
                })
                .collect()
        };
        assert_eq!(key(&out), key(&b));
        // Pruning changes coverage, not the frontier.
        let noprune =
            explore(&workload, &cfg, &DseOptions { prune: false, pareto: true, ..quick_opts() });
        assert_eq!(key(&out), key(&noprune));
        assert_eq!(noprune.pruned, 0);
    }

    #[test]
    fn frontier_is_empty_without_pareto() {
        let out = explore(&wl(), &AccelConfig::paper_default(), &quick_opts());
        assert!(out.frontier.is_empty());
    }

    #[test]
    fn budget_query_from_frontier_matches_filtered_sweep() {
        // For any footprint budget, the min-runtime feasible candidate must be
        // on the frontier with its exact optimum runtime — the property the
        // CLI's `--max-buffer-bytes` answer relies on.
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let out =
            explore(&workload, &cfg, &DseOptions { pareto: true, prune: false, ..quick_opts() });
        let space = PatternSpace::new();
        let mut brute: Vec<(u64, u64)> = Vec::new(); // (buffer_peak, cycles)
        for i in 0..space.len() {
            let df = concretize_pattern(&space.get(i), &workload, &cfg);
            if let Ok(r) = evaluate(&workload, &df, &cfg) {
                brute.push((r.buffer_peak_bytes, r.total_cycles));
            }
        }
        let budgets: Vec<u64> =
            out.frontier.iter().map(|p| p.buffer_peak_bytes).collect();
        for budget in budgets {
            let best_brute =
                brute.iter().filter(|(b, _)| *b <= budget).map(|(_, c)| *c).min().unwrap();
            let best_front = out
                .frontier
                .iter()
                .filter(|p| p.buffer_peak_bytes <= budget)
                .map(|p| p.runtime_cycles)
                .min()
                .unwrap();
            assert!(best_front <= best_brute, "budget {budget}");
        }
    }

    #[test]
    fn pareto_front_accumulator_is_order_invariant() {
        let offers: Vec<(usize, [f64; 3])> = vec![
            (0, [3.0, 1.0, 2.0]),
            (1, [1.0, 3.0, 2.0]),
            (2, [2.0, 2.0, 2.0]),
            (3, [3.0, 3.0, 3.0]), // dominated by 2
            (4, [1.0, 3.0, 2.0]), // duplicate axes of 1 — both kept, dedup later
        ];
        let run = |order: &[usize]| -> Vec<(usize, [f64; 3])> {
            let mut f: ParetoFront<usize, ()> = ParetoFront::new();
            for &i in order {
                let (index, axes) = offers[i];
                f.offer(index, index, (), axes);
            }
            f.into_sorted().into_iter().map(|(i, _, _, a)| (i, a)).collect()
        };
        let fwd = run(&[0, 1, 2, 3, 4]);
        let rev = run(&[4, 3, 2, 1, 0]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![1, 4, 2, 0]);
        // Strict-dominance pruning test: a bound vector strictly above an
        // entry on all axes is prunable; touching any axis exactly is not.
        let mut f: ParetoFront<usize, ()> = ParetoFront::new();
        f.offer(0, 0, (), [1.0, 1.0, 1.0]);
        assert!(f.strictly_dominates(&[2.0, 2.0, 2.0]));
        assert!(!f.strictly_dominates(&[1.0, 2.0, 2.0]));
    }

    #[test]
    fn top_k_keeps_best_with_deterministic_ties() {
        let mut top: TopK<usize, ()> = TopK::new(2);
        for index in [5usize, 3, 9, 1] {
            // Distinct candidates, identical scores: ties break by index.
            top.offer(Entry { score: 1.0, index, candidate: index, report: () });
        }
        let idx: Vec<usize> = top.entries.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn top_k_capacity_counts_distinct_candidates() {
        // The same candidate offered repeatedly occupies one slot (best key
        // wins), so `worst_at_capacity` really means "k distinct candidates
        // retained" — the soundness condition of the shared prune threshold.
        let mut top: TopK<&str, ()> = TopK::new(2);
        for (score, index) in [(1.0, 5usize), (1.0, 3), (1.0, 9), (1.0, 1)] {
            top.offer(Entry { score, index, candidate: "same", report: () });
        }
        assert_eq!(top.entries.len(), 1);
        assert_eq!(top.entries[0].index, 1);
        assert_eq!(top.worst_at_capacity(), None); // 1 distinct < k = 2
        top.offer(Entry { score: 4.0, index: 7, candidate: "other", report: () });
        assert_eq!(top.worst_at_capacity(), Some(4.0));
        // A third distinct candidate must now beat the worst to enter.
        top.offer(Entry { score: 5.0, index: 2, candidate: "worse", report: () });
        assert_eq!(top.entries.len(), 2);
        assert_eq!(top.worst_at_capacity(), Some(4.0));
        top.offer(Entry { score: 2.0, index: 8, candidate: "better", report: () });
        assert_eq!(top.worst_at_capacity(), Some(2.0));
    }
}
