//! The composable pass manager: the [`Pass`] trait, the shared
//! [`OptContext`], and the flow-script language.
//!
//! The paper's Table I flow (size → depth → activity) used to be a
//! hardcoded if-chain in the driver, with every optimizer privately
//! allocating its rebuild arenas and caches. This module turns the
//! optimizer stack into a pipeline of interchangeable passes:
//!
//! * [`Pass`] is the interface every optimizer implements — a name (the
//!   word used in flow scripts and reports), a lexicographic
//!   [`Objective`], and `run(&mut OptContext, Mig) -> Mig`.
//! * [`OptContext`] owns the state that used to be scattered per pass:
//!   the [`OptBuffers`] arena pool, the rewrite engine's cut/candidate
//!   cache, the `jobs` worker-count setting, and a per-pass wall-time
//!   ledger ([`PassReport`]). Because the context outlives pass
//!   boundaries, a flow that alternates rewriting and algebraic passes
//!   reuses arenas and translated cut sets instead of rebuilding them.
//! * [`Flow`] is a parsed flow script — a `;`-separated sequence of
//!   pass names with optional repetition (`size*2`) and convergence
//!   (`size*`) markers — with [`Flow::parse`], a canonical
//!   [`Display`](fmt::Display) rendering (scripts round-trip), and
//!   [`Flow::run`].
//!
//! # Flow-script grammar
//!
//! ```text
//! flow   := step (';' step)* [';']
//! step   := pass [ '*' [count] ]
//! pass   := 'size' | 'depth' | 'activity' | 'rewrite' | 'depth_rewrite'
//!         | 'esat' | 'depth_esat' | 'map_area' | 'map_delay'
//! count  := integer in 1..=64
//! ```
//!
//! Whitespace around tokens is ignored. `pass*N` runs the pass `N`
//! times (once a run returns its input unchanged, the rest are
//! recorded as copies instead); a bare `pass*` repeats the pass until
//! its own success metric stops improving ([`Pass::improved`] — the
//! objective cost for most passes, the activity value for `activity`;
//! capped at [`CONVERGE_CAP`] iterations). The paper's Table I flow is the script
//! `"size; depth; activity"`.
//!
//! # Example
//!
//! ```
//! use mig_core::{Flow, Mig, OptContext};
//!
//! // XOR3 from two cascaded XOR2s: 6 nodes, depth 4.
//! let mut mig = Mig::new("xor3");
//! let a = mig.add_input("a");
//! let b = mig.add_input("b");
//! let c = mig.add_input("c");
//! let t = mig.xor(a, b);
//! let f = mig.xor(t, c);
//! mig.add_output("f", f);
//!
//! let flow = Flow::parse("size; rewrite; depth").unwrap();
//! assert_eq!(flow.to_string(), "size; rewrite; depth");
//! let mut ctx = OptContext::new();
//! let opt = flow.run(mig.clone(), 2, &mut ctx);
//! assert!(opt.equiv(&mig, 4));
//! assert_eq!(opt.size(), 3, "database holds the 3-node XOR3");
//! assert_eq!(ctx.ledger().len(), 3, "one report per executed pass");
//! ```

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use super::activity::optimize_activity;
use super::depth::optimize_depth;
use super::esat::optimize_esat;
use super::rewrite::{optimize_rewrite, RewriteCache};
use super::size::optimize_size;
use super::{Objective, OptBuffers};
use crate::Mig;

/// Iteration cap for a `pass*` convergence marker: the pass is re-run
/// while its own success metric ([`Pass::improved`]) strictly improves,
/// but never more than this many times (every pass also has an internal
/// fixpoint loop, so the cap is a backstop, not a tuning knob).
pub const CONVERGE_CAP: usize = 8;

/// Largest `N` a `pass*N` flow step accepts. A run that comes back
/// unchanged records its remaining repetitions as ledger copies, so an
/// unbounded `N` would let one flow script allocate without limit.
const MAX_REPEAT: usize = 64;

/// Resource limits for one pipeline run, enforced by
/// [`OptContext::run_pass`] around every pass.
///
/// All limits default to "unlimited". A breached limit never aborts the
/// process or invalidates the netlist: the pass manager restores the
/// pre-pass checkpoint (or skips the pass outright) and records the
/// degraded outcome in the ledger, so the run still ends with a valid
/// graph no worse than its input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline for the whole run, in milliseconds, measured
    /// from [`OptContext::begin_run`] (re-anchored by every
    /// [`Flow::run`]). Once exhausted, remaining passes are
    /// [`Skipped`](PassOutcome::Skipped).
    pub total_ms: Option<u64>,
    /// Per-pass timeout in milliseconds. A pass that overruns it is
    /// rolled back and recorded as [`TimedOut`](PassOutcome::TimedOut).
    /// Enforcement is post-hoc — the pass finishes, then its result is
    /// discarded — because passes are pure functions without an internal
    /// cancellation protocol; the whole-run deadline still bounds the
    /// damage of one slow pass to the passes after it.
    pub pass_ms: Option<u64>,
    /// Node-count cap: a pass whose output *grows* past this many
    /// majority nodes is rolled back (an input already over the cap is
    /// allowed to shrink or stay put — the cap restrains growth, it
    /// does not make oversized inputs unoptimizable).
    pub max_nodes: Option<usize>,
}

impl Budget {
    /// A budget with every limit disabled (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// How one ledgered pass execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass ran to completion and its result was kept.
    Completed,
    /// The pass overran [`Budget::pass_ms`]; its result was discarded
    /// and the pre-pass checkpoint restored.
    TimedOut,
    /// The pass panicked, breached [`Budget::max_nodes`], or failed the
    /// post-pass spot check ([`OptContext::set_spot_check`]); the
    /// pre-pass checkpoint was restored.
    RolledBack,
    /// The pass never ran: the [`Budget::total_ms`] deadline was
    /// already exhausted when its turn came.
    Skipped,
}

impl PassOutcome {
    /// Stable lower-snake-case name (used in the bench JSON schema).
    pub fn name(self) -> &'static str {
        match self {
            PassOutcome::Completed => "completed",
            PassOutcome::TimedOut => "timed_out",
            PassOutcome::RolledBack => "rolled_back",
            PassOutcome::Skipped => "skipped",
        }
    }

    /// Whether this outcome degrades the run (anything but
    /// [`Completed`](PassOutcome::Completed)).
    pub fn degraded(self) -> bool {
        !matches!(self, PassOutcome::Completed)
    }
}

impl fmt::Display for PassOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Technology-mapped cost of one MIG: what a [`TechModel`] measures.
///
/// The structural metrics ([`PassMetrics`]) describe the graph; these
/// describe the *cell netlist* a technology mapper would produce for it,
/// in the units of the paper's §V experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedMetrics {
    /// Total cell area in µm².
    pub area: f64,
    /// Critical-path delay in ns.
    pub delay: f64,
    /// Estimated power in µW.
    pub power: f64,
    /// Number of cell instances.
    pub cells: usize,
}

/// A technology cost model the pass manager can consult: maps a graph
/// (conceptually — implementations run a real technology mapper) and
/// reports the mapped area/delay/power.
///
/// The trait lives here rather than in the techmap crate because the
/// dependency points the other way: `mig_techmap` depends on `mig_core`
/// for the graph and the cut enumerator, so the mapper implements this
/// trait and is *installed into* an [`OptContext`]
/// ([`OptContext::set_tech`]), giving passes with a mapped
/// [`Objective`] an honest mapped cost without a crate cycle.
pub trait TechModel: std::fmt::Debug {
    /// Model name for reports (typically the cell-library name).
    fn name(&self) -> &str;

    /// Measures `mig`'s technology-mapped cost. Must be deterministic
    /// and read-only: the pass manager calls it only around passes
    /// whose objective is mapped ([`Objective::is_mapped`]), and those
    /// passes call it on their iterates, so how often it runs never
    /// changes a result.
    fn measure(&self, mig: &Mig) -> MappedMetrics;
}

/// Size/depth/activity of one MIG, captured by the ledger around every
/// pass execution — plus the mapped cost around passes whose objective
/// is mapped, when the context carries a [`TechModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassMetrics {
    /// Majority-node count.
    pub size: usize,
    /// Logic levels (inverters are free edge attributes).
    pub depth: u32,
    /// `Σ p(1−p)` under uniform input probabilities.
    pub activity: f64,
    /// Technology-mapped cost. The ledger measures it only around a
    /// pass whose objective is mapped ([`Objective::is_mapped`]: the
    /// `map_area`/`map_delay` steps), and only
    /// when the [`OptContext`] has a [`TechModel`] installed; every
    /// other entry carries `None`, so passes that never read it pay
    /// nothing for the mapping layer.
    pub mapped: Option<MappedMetrics>,
}

impl PassMetrics {
    /// Captures the three paper metrics of `mig` (no mapped cost; the
    /// context's ledger adds it around mapped-objective passes when a
    /// technology model is installed).
    pub fn of(mig: &Mig) -> Self {
        PassMetrics {
            size: mig.size(),
            depth: mig.depth(),
            activity: mig.switching_activity_uniform(),
            mapped: None,
        }
    }
}

/// One entry of the [`OptContext`] wall-time ledger: which pass ran,
/// how long it took, and the metrics on either side of it. Metric
/// capture happens outside the timed window, so `millis` is the pass
/// alone.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The pass's [`Pass::name`] (`"size"`, `"rewrite"`, …).
    pub pass: String,
    /// Wall-clock time of the pass in milliseconds.
    pub millis: f64,
    /// Metrics of the graph handed to the pass.
    pub before: PassMetrics,
    /// Metrics of the graph the pass returned.
    pub after: PassMetrics,
    /// How the execution ended. Anything but
    /// [`Completed`](PassOutcome::Completed) means `after` describes
    /// the restored checkpoint (== the pre-pass graph), not the pass's
    /// own product.
    pub outcome: PassOutcome,
    /// Human-readable detail for degraded outcomes (panic message,
    /// breached limit, failed check); `None` for clean completions.
    pub note: Option<String>,
    /// The pass [`Completed`](PassOutcome::Completed) and returned a
    /// graph structurally identical to its input
    /// ([`Mig::same_structure`]): the input is the pass's fixpoint.
    /// Degraded outcomes are never marked. A `pass*n` flow step stops
    /// executing after such a run and records its remaining
    /// repetitions as copies of this report with `millis` 0.
    pub unchanged: bool,
}

/// Level-repair counters returned by [`OptContext::take_level_stats`].
/// Every pass builds a fresh append-only arena whose node levels are
/// exact from construction, so nothing is ever repaired and all three
/// counts are 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Incremental level repairs.
    pub incremental_repairs: u64,
    /// Nodes whose level an incremental repair recomputed.
    pub repaired_nodes: u64,
    /// Whole-graph level rebuilds.
    pub global_rebuilds: u64,
}

/// Shared state of one optimization pipeline.
///
/// Owns everything that used to be per-pass private: the
/// [`OptBuffers`] arena pool every rebuild-style pass draws from, the
/// rewrite engine's cut/candidate cache, the evaluate-phase
/// worker-count setting, and the per-pass wall-time ledger. One context
/// serves any number of passes, flows, and circuits. What carries over
/// between passes is the buffers, not their contents: the rewrite
/// engine starts every run from `Mig::cleanup()`, whose new mutation
/// stamp resets the rewrite cache, so each pass enumerates cold. Reuse
/// therefore never changes results (caches are keyed or reset, arenas
/// are wiped on reuse), it only removes allocations.
#[derive(Debug, Default)]
pub struct OptContext {
    pub(crate) bufs: OptBuffers,
    pub(crate) rewrite: RewriteCache,
    jobs: usize,
    ledger: Vec<PassReport>,
    /// Metrics of the most recently measured graph state, keyed by its
    /// mutation stamp, so chained passes do not recompute the O(n)
    /// activity walk for a graph that was just measured. See
    /// [`metrics_of`](OptContext::metrics_of) for how mapped cost is
    /// memoized.
    last_metrics: Option<MetricsMemo>,
    /// Optional technology cost model. When installed, the ledger
    /// entries of mapped-objective passes carry [`PassMetrics::mapped`]
    /// and the `map_area` / `map_delay` recovery passes become active
    /// (they are no-ops without it).
    pub(crate) tech: Option<Box<dyn TechModel>>,
    /// Resource limits enforced around every pass.
    budget: Budget,
    /// Anchor of the [`Budget::total_ms`] deadline; set by
    /// [`begin_run`](OptContext::begin_run) (every [`Flow::run`] calls
    /// it) or lazily by the first [`run_pass`](OptContext::run_pass).
    run_start: Option<Instant>,
    /// Random-simulation rounds of the post-pass spot check, `None`
    /// when it is off; a failed check triggers rollback.
    spot_check_rounds: Option<usize>,
}

impl OptContext {
    /// Creates a context with `jobs = 0` (available parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a context with an explicit rewrite-engine worker count
    /// (`0` = available parallelism; the count never changes results).
    pub fn with_jobs(jobs: usize) -> Self {
        OptContext {
            jobs,
            ..Self::default()
        }
    }

    /// The rewrite-engine worker-count setting.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The wall-time ledger: one [`PassReport`] per executed pass, in
    /// run order, accumulated across every [`Flow::run`] /
    /// [`OptContext::run_pass`] on this context.
    pub fn ledger(&self) -> &[PassReport] {
        &self.ledger
    }

    /// Drains the ledger (e.g. between benchmark circuits sharing one
    /// context).
    pub fn take_ledger(&mut self) -> Vec<PassReport> {
        std::mem::take(&mut self.ledger)
    }

    /// Installs a technology cost model. From here on, the ledger
    /// entries of passes with a mapped objective ([`Objective::is_mapped`])
    /// carry the mapped cost on both sides, and the
    /// `map_area`/`map_delay` passes are active; every other entry keeps
    /// `mapped: None`, so structural passes never run the model. Replaces
    /// any previously installed model.
    pub fn set_tech(&mut self, tech: Box<dyn TechModel>) {
        // Cached metrics lack (or carry a different model's) mapped
        // cost — never serve them for the new model.
        self.last_metrics = None;
        self.tech = Some(tech);
    }

    /// The installed technology cost model, if any.
    pub fn tech(&self) -> Option<&dyn TechModel> {
        self.tech.as_deref()
    }

    /// Sets the resource budget enforced around every subsequent pass.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The current resource budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Re-anchors the [`Budget::total_ms`] wall-clock deadline at "now".
    /// [`Flow::run`] calls this on entry so one context can serve many
    /// runs, each with a fresh deadline; call it yourself when driving
    /// [`run_pass`](OptContext::run_pass) manually under a budget.
    pub fn begin_run(&mut self) {
        self.run_start = Some(Instant::now());
    }

    /// Turns on the post-pass spot check: after every pass, the result
    /// is compared with the pre-pass checkpoint by [`Mig::equiv`]
    /// (exhaustive up to 16 inputs, `rounds` random 64-pattern words
    /// above, min 1), and on a failed verdict the checkpoint is restored
    /// and the pass recorded as [`RolledBack`](PassOutcome::RolledBack).
    pub fn set_spot_check(&mut self, rounds: usize) {
        self.spot_check_rounds = Some(rounds.max(1));
    }

    /// Turns the post-pass spot check off. Long-lived contexts (a
    /// `mighty serve` worker reusing one context across jobs) call this
    /// between jobs so one job's `--selfcheck` never leaks into the
    /// next.
    pub fn clear_spot_check(&mut self) {
        self.spot_check_rounds = None;
    }

    /// Number of cut records currently held by the incremental rewrite
    /// cache, for memory-footprint reporting.
    pub fn rewrite_cache_entries(&self) -> usize {
        self.rewrite.cut_entries()
    }

    /// Level-repair counters since the last call: always zero (see
    /// [`LevelStats`]).
    pub fn take_level_stats(&mut self) -> LevelStats {
        LevelStats::default()
    }

    /// Measures `mig` for a ledger entry, with its mapped cost when
    /// `mapped` is set (the entry's own pass has a mapped objective) and
    /// a model is installed. Reuses the previous measurement when the
    /// graph state (identified by its mutation stamp) has not changed
    /// since.
    ///
    /// Whether an entry carries mapped cost depends only on its own
    /// pass's objective, never on what the memo happens to hold: a memo
    /// without the mapped cost is never served to a mapped pass (the
    /// model runs, and the structural half is reused), and a memo with
    /// it is served to a structural pass with `mapped: None`.
    fn metrics_of(&mut self, mig: &Mig, mapped: bool) -> PassMetrics {
        let stamp = mig.rewrite_stamp();
        let memo = self.last_metrics.filter(|memo| memo.stamp == stamp);
        if let Some(memo) = memo {
            if !mapped {
                return PassMetrics {
                    mapped: None,
                    ..memo.metrics
                };
            }
            if memo.mapped {
                return memo.metrics;
            }
        }
        let mut m = memo.map_or_else(|| PassMetrics::of(mig), |memo| memo.metrics);
        if mapped {
            // A crashing cost model degrades the measurement to
            // "unmapped", never the process: mapped cost is advisory.
            m.mapped = self
                .tech
                .as_ref()
                .and_then(|tech| catch_unwind(AssertUnwindSafe(|| tech.measure(mig))).ok());
        }
        self.last_metrics = Some(MetricsMemo {
            stamp,
            mapped,
            metrics: m,
        });
        m
    }

    /// Drops state that may describe a graph the pipeline just threw
    /// away: the incremental rewrite cache (a failed pass can leave it
    /// half-updated for an arena that no longer exists) and the metrics
    /// memo. Called on every rollback; the next sweep rebuilds both
    /// from the restored graph.
    fn recover_after_failure(&mut self) {
        self.rewrite.invalidate();
        self.last_metrics = None;
    }

    /// Runs one pass with ledger bookkeeping: metrics are captured on
    /// both sides of a timed window that contains only the pass itself
    /// (the `before` side is free when the graph was measured as the
    /// previous pass's `after`; the checkpoint clone is also outside the
    /// window, so `millis` stays comparable with unbudgeted runs).
    ///
    /// This is also the pipeline's failure boundary. Before the pass
    /// runs, the input is checkpointed (a cheap arena clone); the pass
    /// executes under [`catch_unwind`], and on a panic, a breached
    /// [`Budget`] limit, or a failed spot-check verdict the
    /// checkpoint is restored, the caches are invalidated, and the
    /// degraded [`PassOutcome`] is ledgered — the caller always gets
    /// back a valid graph no worse than its input, and a flow continues
    /// with its remaining passes.
    ///
    /// The mapped cost ([`PassMetrics::mapped`]) is measured on both
    /// sides only when the pass's objective is mapped
    /// ([`Objective::is_mapped`]); no other pass reads it.
    pub fn run_pass(&mut self, pass: &dyn Pass, mig: Mig) -> Mig {
        let mapped = pass.objective().is_mapped();
        let before = self.metrics_of(&mig, mapped);
        let run_start = *self.run_start.get_or_insert_with(Instant::now);
        if let Some(total) = self.budget.total_ms {
            if run_start.elapsed() >= Duration::from_millis(total) {
                self.ledger.push(PassReport {
                    pass: pass.name().to_string(),
                    millis: 0.0,
                    before,
                    after: before,
                    outcome: PassOutcome::Skipped,
                    note: Some(format!("run deadline of {total} ms already exhausted")),
                    unchanged: false,
                });
                return mig;
            }
        }
        let snapshot = mig.clone();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| pass.run(self, mig)));
        let millis = start.elapsed().as_secs_f64() * 1e3;
        let (out, outcome, note, unchanged) = match result {
            Err(payload) => {
                self.recover_after_failure();
                let detail = panic_message(payload.as_ref());
                (
                    snapshot,
                    PassOutcome::RolledBack,
                    Some(format!("pass panicked ({detail}); checkpoint restored")),
                    false,
                )
            }
            Ok(out) => {
                let unchanged = out.same_structure(&snapshot);
                let (out, outcome, note) = self.admit(snapshot, out, millis);
                (out, outcome, note, unchanged && !outcome.degraded())
            }
        };
        let after = self.metrics_of(&out, mapped);
        self.ledger.push(PassReport {
            pass: pass.name().to_string(),
            millis,
            before,
            after,
            outcome,
            note,
            unchanged,
        });
        out
    }

    /// Budget and spot-check gate for a pass result that came back
    /// normally: returns the accepted graph (result or restored
    /// checkpoint) with its ledger outcome.
    fn admit(
        &mut self,
        snapshot: Mig,
        out: Mig,
        millis: f64,
    ) -> (Mig, PassOutcome, Option<String>) {
        if let Some(cap) = self.budget.max_nodes {
            if out.size() > cap && out.size() > snapshot.size() {
                let grown = out.size();
                self.recover_after_failure();
                self.bufs.recycle(out);
                return (
                    snapshot,
                    PassOutcome::RolledBack,
                    Some(format!(
                        "result grew to {grown} nodes, over the {cap}-node cap; checkpoint restored"
                    )),
                );
            }
        }
        if let Some(limit) = self.budget.pass_ms {
            if millis > limit as f64 {
                self.recover_after_failure();
                self.bufs.recycle(out);
                return (
                    snapshot,
                    PassOutcome::TimedOut,
                    Some(format!(
                        "pass took {millis:.1} ms, over its {limit} ms timeout; checkpoint restored"
                    )),
                );
            }
        }
        if let Some(rounds) = self.spot_check_rounds {
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                snapshot.num_inputs() == out.num_inputs()
                    && snapshot.num_outputs() == out.num_outputs()
                    && snapshot.equiv(&out, rounds)
            }));
            if !verdict.unwrap_or(false) {
                self.recover_after_failure();
                self.bufs.recycle(out);
                return (
                    snapshot,
                    PassOutcome::RolledBack,
                    Some("spot check rejected the result; checkpoint restored".to_string()),
                );
            }
        }
        self.bufs.recycle(snapshot);
        (out, PassOutcome::Completed, None)
    }
}

/// The [`OptContext`] metrics memo: one measured graph state.
#[derive(Debug, Clone, Copy)]
struct MetricsMemo {
    /// Mutation stamp of the measured graph.
    stamp: u64,
    /// Whether the mapped cost was asked for (`metrics.mapped` may still
    /// be `None`: no model installed, or the model panicked).
    mapped: bool,
    metrics: PassMetrics,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// One optimization pass, as the pass manager sees it.
///
/// A pass is a pure function from MIG to MIG (functionally equivalent
/// output, deterministic for a given input and configuration); it takes
/// the input by value so its arena can be recycled into the context's
/// pool. Every built-in pass ([`PassKind::build`]) implements this
/// trait; external code can add custom passes and drive them through
/// [`OptContext::run_pass`].
pub trait Pass {
    /// Short lower-case name used in flow scripts, reports and the
    /// bench schema.
    fn name(&self) -> &'static str;

    /// The lexicographic objective the pass minimizes.
    fn objective(&self) -> Objective {
        Objective::SizeThenDepth
    }

    /// Whether one execution paid off: `after` strictly improves on
    /// `before` under the pass's own success metric. The `*`
    /// convergence marker re-runs the pass while this holds. Default:
    /// the [`objective`](Pass::objective) cost; the built-in activity
    /// pass compares the activity value itself (which the `Cost` type
    /// cannot carry), and the mapped passes their mapped cost.
    fn improved(&self, before: &PassMetrics, after: &PassMetrics) -> bool {
        let obj = self.objective();
        obj.cost(after.size, after.depth) < obj.cost(before.size, before.depth)
    }

    /// Runs the pass on `mig` using the context's shared buffers.
    fn run(&self, ctx: &mut OptContext, mig: Mig) -> Mig;
}

/// A built-in pass at a fixed effort: what [`PassKind::build`] returns.
/// The kind is the pass's only description — its name, objective,
/// convergence signal and optimizer all follow from it.
#[derive(Debug, Clone, Copy)]
struct BuiltIn {
    kind: PassKind,
    /// Iteration budget handed to the optimizer (at least 1).
    effort: usize,
}

impl Pass for BuiltIn {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn objective(&self) -> Objective {
        self.kind.objective()
    }

    /// `activity*` converges on the metric the pass actually minimizes,
    /// the switching-activity value (the pass may trade a little size
    /// for it within its slack). `map_area*` / `map_delay*` converge on
    /// the mapped cost when both sides carry one. Every other case uses
    /// the objective cost.
    fn improved(&self, before: &PassMetrics, after: &PassMetrics) -> bool {
        let obj = self.objective();
        match (self.kind, &before.mapped, &after.mapped) {
            (PassKind::Activity, ..) => after.activity < before.activity,
            (PassKind::MapArea | PassKind::MapDelay, Some(b), Some(a)) => {
                obj.mapped_cost(a) < obj.mapped_cost(b)
            }
            _ => obj.cost(after.size, after.depth) < obj.cost(before.size, before.depth),
        }
    }

    fn run(&self, ctx: &mut OptContext, mig: Mig) -> Mig {
        let effort = self.effort;
        let out = match self.kind {
            PassKind::Size => optimize_size(&mig, effort, true, &mut ctx.bufs),
            PassKind::Depth => optimize_depth(&mig, effort, &mut ctx.bufs),
            PassKind::Activity => {
                let uniform = vec![0.5; mig.num_inputs()];
                optimize_activity(&mig, &uniform, effort, &mut ctx.bufs)
            }
            PassKind::Rewrite | PassKind::DepthRewrite => optimize_rewrite(
                &mig,
                self.objective(),
                effort,
                ctx.jobs,
                &mut ctx.bufs,
                &mut ctx.rewrite,
            ),
            PassKind::Esat | PassKind::DepthEsat => {
                return optimize_esat(
                    mig,
                    self.objective(),
                    effort,
                    ctx.jobs,
                    ctx.budget,
                    &mut ctx.bufs,
                    &mut ctx.rewrite,
                )
            }
            PassKind::MapArea | PassKind::MapDelay => {
                return map_recovery(ctx, self.objective(), effort, mig)
            }
        };
        ctx.bufs.recycle(mig);
        out
    }
}

/// Technology-aware recovery, the `map_area` / `map_delay` flow steps:
/// alternates the structural passes that best track the mapped `goal`
/// (`size` + `rewrite` for area, `depth` + `depth_rewrite` for delay)
/// and keeps the iterate with the lowest *mapped* cost as measured by
/// the context's [`TechModel`] — the honest objective the structural
/// passes cannot see. Without an installed model it returns its input
/// (flows stay parseable and runnable in purely structural pipelines).
fn map_recovery(ctx: &mut OptContext, goal: Objective, effort: usize, mig: Mig) -> Mig {
    // Take the model out so the inner structural passes (driven
    // directly, off-ledger) don't pay a mapper run per iterate
    // measurement; it goes back before returning — including on an
    // unwind, so a panicking inner pass (or mapper) rolled back by
    // `run_pass` doesn't silently strip the flow's tech model.
    let Some(tech) = ctx.tech.take() else {
        return mig;
    };
    ctx.last_metrics = None;
    let kinds = match goal.structural() {
        Objective::SizeThenDepth => [PassKind::Size, PassKind::Rewrite],
        _ => [PassKind::Depth, PassKind::DepthRewrite],
    };
    let passes = kinds.map(|kind| BuiltIn { kind, effort });
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut best = mig;
        let mut best_cost = goal.mapped_cost(&tech.measure(&best));
        let mut cur = best.clone();
        for _ in 0..CONVERGE_CAP {
            for pass in &passes {
                cur = pass.run(ctx, cur);
            }
            let cost = goal.mapped_cost(&tech.measure(&cur));
            if cost < best_cost {
                ctx.bufs.recycle(std::mem::replace(&mut best, cur.clone()));
                best_cost = cost;
            } else {
                break;
            }
        }
        ctx.bufs.recycle(cur);
        best
    }));
    ctx.set_tech(tech);
    match result {
        Ok(best) => best,
        Err(payload) => resume_unwind(payload),
    }
}

/// The built-in passes a flow script can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Algorithm 1 — `size`.
    Size,
    /// Algorithm 2 — `depth`.
    Depth,
    /// Section IV-C — `activity`.
    Activity,
    /// Size-oriented Boolean rewriting — `rewrite`.
    Rewrite,
    /// Depth-oriented Boolean rewriting — `depth_rewrite`.
    DepthRewrite,
    /// Equality-saturation rewriting — `esat`.
    Esat,
    /// Depth-oriented equality-saturation rewriting — `depth_esat`.
    DepthEsat,
    /// Mapped-area recovery — `map_area` (no-op without a
    /// [`TechModel`] in the context).
    MapArea,
    /// Mapped-delay recovery — `map_delay` (no-op without a
    /// [`TechModel`] in the context).
    MapDelay,
}

impl PassKind {
    /// Every built-in pass, in documentation order.
    pub const ALL: [PassKind; 9] = [
        PassKind::Size,
        PassKind::Depth,
        PassKind::Activity,
        PassKind::Rewrite,
        PassKind::DepthRewrite,
        PassKind::Esat,
        PassKind::DepthEsat,
        PassKind::MapArea,
        PassKind::MapDelay,
    ];

    /// The flow-script name of this pass.
    pub fn name(self) -> &'static str {
        match self {
            PassKind::Size => "size",
            PassKind::Depth => "depth",
            PassKind::Activity => "activity",
            PassKind::Rewrite => "rewrite",
            PassKind::DepthRewrite => "depth_rewrite",
            PassKind::Esat => "esat",
            PassKind::DepthEsat => "depth_esat",
            PassKind::MapArea => "map_area",
            PassKind::MapDelay => "map_delay",
        }
    }

    /// Parses a flow-script pass name.
    pub fn parse(s: &str) -> Option<PassKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The objective the pass minimizes (drives `*` convergence).
    pub fn objective(self) -> Objective {
        match self {
            PassKind::Size | PassKind::Activity | PassKind::Rewrite | PassKind::Esat => {
                Objective::SizeThenDepth
            }
            PassKind::Depth | PassKind::DepthRewrite | PassKind::DepthEsat => {
                Objective::DepthThenSize
            }
            PassKind::MapArea => Objective::MappedArea,
            PassKind::MapDelay => Objective::MappedDelay,
        }
    }

    /// Instantiates the pass at the given iteration budget (clamped to
    /// at least 1).
    pub fn build(self, effort: usize) -> Box<dyn Pass> {
        Box::new(BuiltIn {
            kind: self,
            effort: effort.max(1),
        })
    }
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How often one flow step runs its pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repeat {
    /// A fixed number of executions (`pass` is 1, `pass*3` is 3).
    Times(usize),
    /// Re-run while the pass's objective strictly improves (`pass*`),
    /// capped at [`CONVERGE_CAP`] executions.
    Converge,
}

/// One step of a flow: a pass plus its repetition marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStep {
    /// Which pass runs.
    pub pass: PassKind,
    /// How often it runs.
    pub repeat: Repeat,
}

impl fmt::Display for FlowStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repeat {
            Repeat::Times(1) => write!(f, "{}", self.pass),
            Repeat::Times(n) => write!(f, "{}*{n}", self.pass),
            Repeat::Converge => write!(f, "{}*", self.pass),
        }
    }
}

/// A parsed flow script: the sequence of pass steps a pipeline runs.
///
/// The [`Display`](fmt::Display) rendering is the canonical script form
/// (`"size*2; rewrite; depth"`); parsing it back yields an equal
/// `Flow`, so scripts round-trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Flow {
    /// The steps, in run order.
    pub steps: Vec<FlowStep>,
}

impl Flow {
    /// Parses a flow script (see the [module docs](self) for the
    /// grammar). Empty segments are tolerated (trailing `;`), an empty
    /// script is an error, and unknown pass names or malformed or
    /// out-of-range (above 64) repeat counts report what was expected.
    pub fn parse(script: &str) -> Result<Flow, String> {
        let mut steps = Vec::new();
        for raw in script.split(';') {
            let tok = raw.trim();
            if tok.is_empty() {
                continue;
            }
            let (name, repeat) = match tok.split_once('*') {
                None => (tok, Repeat::Times(1)),
                Some((name, count)) => {
                    let count = count.trim();
                    let repeat = if count.is_empty() {
                        Repeat::Converge
                    } else {
                        let n: usize = count
                            .parse()
                            .map_err(|e| format!("`{tok}`: bad repeat count: {e}"))?;
                        if n == 0 {
                            return Err(format!("`{tok}`: repeat count must be at least 1"));
                        }
                        if n > MAX_REPEAT {
                            return Err(format!(
                                "`{tok}`: repeat count must be at most {MAX_REPEAT}"
                            ));
                        }
                        Repeat::Times(n)
                    };
                    (name.trim_end(), repeat)
                }
            };
            let pass = PassKind::parse(name).ok_or_else(|| {
                let known: Vec<&str> = PassKind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown pass `{name}` (expected one of {})",
                    known.join(", ")
                )
            })?;
            steps.push(FlowStep { pass, repeat });
        }
        if steps.is_empty() {
            return Err("empty flow script".into());
        }
        Ok(Flow { steps })
    }

    /// Runs the flow on `mig` through the shared context. `effort` is
    /// the iteration budget handed to every pass ([`PassKind::build`]);
    /// each pass repetition appends one entry to the context's ledger
    /// (a repetition after an [`unchanged`](PassReport::unchanged) run
    /// is recorded as a copy instead of executed).
    pub fn run(&self, mig: Mig, effort: usize, ctx: &mut OptContext) -> Mig {
        self.run_observed(mig, effort, ctx, |_| {})
    }

    /// [`Flow::run`] with a per-pass observer: `observe` is invoked with
    /// the ledger entry of every executed pass, immediately after it
    /// finishes. This is the hook `mighty serve` uses to stream per-pass
    /// progress lines to a client while the job is still running; the
    /// observer sees exactly what the wall-time ledger records, so a
    /// streamed trace and the final report can never disagree.
    pub fn run_observed(
        &self,
        mig: Mig,
        effort: usize,
        ctx: &mut OptContext,
        mut observe: impl FnMut(&PassReport),
    ) -> Mig {
        ctx.begin_run();
        let mut cur = mig;
        for step in &self.steps {
            let pass = step.pass.build(effort);
            match step.repeat {
                Repeat::Times(n) => {
                    for i in 0..n {
                        cur = ctx.run_pass(&*pass, cur);
                        let report = ctx.ledger().last().expect("run_pass appends");
                        observe(report);
                        if report.unchanged {
                            // A deterministic pass maps its fixpoint to
                            // itself: every remaining repetition would
                            // reproduce this report but for its wall
                            // time, so record it without running it.
                            let repeat = PassReport {
                                millis: 0.0,
                                ..report.clone()
                            };
                            for _ in i + 1..n {
                                observe(&repeat);
                                ctx.ledger.push(repeat.clone());
                            }
                            break;
                        }
                    }
                }
                Repeat::Converge => {
                    // Every pass is monotone under its own success
                    // metric, so the final (non-improving) iterate is
                    // still no worse than its input and can be kept.
                    for _ in 0..CONVERGE_CAP {
                        cur = ctx.run_pass(&*pass, cur);
                        let report = ctx.ledger().last().expect("run_pass appends");
                        observe(report);
                        if !pass.improved(&report.before, &report.after) {
                            break;
                        }
                    }
                }
            }
        }
        cur
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn xor_tangle() -> Mig {
        let mut mig = Mig::new("tangle");
        let ins: Vec<Signal> = (0..5).map(|i| mig.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for (i, &x) in ins.iter().enumerate().skip(1) {
            acc = match i % 3 {
                0 => mig.xor(acc, x),
                1 => mig.maj(acc, x, ins[(i + 2) % 5]),
                _ => mig.mux(x, acc, ins[(i + 3) % 5]),
            };
        }
        mig.add_output("y", acc);
        mig
    }

    #[test]
    fn parse_accepts_the_grammar() {
        let flow = Flow::parse(" size*2 ;rewrite; depth_rewrite * ; activity ;").unwrap();
        assert_eq!(
            flow.steps,
            vec![
                FlowStep {
                    pass: PassKind::Size,
                    repeat: Repeat::Times(2)
                },
                FlowStep {
                    pass: PassKind::Rewrite,
                    repeat: Repeat::Times(1)
                },
                FlowStep {
                    pass: PassKind::DepthRewrite,
                    repeat: Repeat::Converge
                },
                FlowStep {
                    pass: PassKind::Activity,
                    repeat: Repeat::Times(1)
                },
            ]
        );
        assert_eq!(
            flow.to_string(),
            "size*2; rewrite; depth_rewrite*; activity"
        );
        assert!(
            Flow::parse("size*64").is_ok(),
            "the bound itself is accepted"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for (script, needle) in [
            ("", "empty flow"),
            ("  ;; ", "empty flow"),
            ("speed", "unknown pass `speed`"),
            ("size*x", "bad repeat count"),
            ("size*0", "at least 1"),
            ("size*65", "at most 64"),
            ("size*1000000000000", "at most 64"),
            ("size**2", "bad repeat count"),
        ] {
            let err = Flow::parse(script).unwrap_err();
            assert!(err.contains(needle), "`{script}` → {err}");
        }
    }

    #[test]
    fn built_passes_describe_themselves_as_their_kind() {
        for kind in PassKind::ALL {
            let pass = kind.build(1);
            assert_eq!(pass.name(), kind.name());
            assert_eq!(pass.objective(), kind.objective(), "{kind}");
        }
        let mut ctx = OptContext::with_jobs(1);
        Flow::parse("depth_esat; esat")
            .unwrap()
            .run(xor_tangle(), 1, &mut ctx);
        let names: Vec<&str> = ctx.ledger().iter().map(|r| r.pass.as_str()).collect();
        assert_eq!(names, ["depth_esat", "esat"]);
    }

    #[test]
    fn display_parse_round_trips() {
        for script in [
            "size",
            "size*3; depth",
            "rewrite*; size; depth_rewrite; activity*2",
        ] {
            let flow = Flow::parse(script).unwrap();
            assert_eq!(Flow::parse(&flow.to_string()).unwrap(), flow);
            assert_eq!(flow.to_string(), script);
        }
        // Times(1) written explicitly normalizes to the bare name.
        assert_eq!(Flow::parse("size*1").unwrap().to_string(), "size");
    }

    #[test]
    fn flow_matches_the_manual_pass_sequence() {
        // "size; depth" through the pipeline must reproduce the direct
        // optimizer calls node for node (fresh buffers vs shared
        // context must not matter).
        let mig = xor_tangle();
        let mut ctx = OptContext::with_jobs(1);
        let flowed = Flow::parse("size; depth")
            .unwrap()
            .run(mig.clone(), 2, &mut ctx);
        let mut bufs = OptBuffers::new();
        let sized = optimize_size(&mig, 2, true, &mut bufs);
        let manual = optimize_depth(&sized, 2, &mut bufs);
        assert!(flowed.equiv(&mig, 4));
        assert_eq!(flowed.num_nodes(), manual.num_nodes());
        for node in flowed.gate_ids() {
            assert_eq!(flowed.children(node), manual.children(node), "{node}");
        }
        assert_eq!(flowed.outputs(), manual.outputs());
    }

    #[test]
    fn ledger_records_every_executed_pass() {
        let mig = xor_tangle();
        let mut ctx = OptContext::with_jobs(1);
        let before = PassMetrics::of(&mig);
        let out = Flow::parse("size*2; rewrite")
            .unwrap()
            .run(mig.clone(), 1, &mut ctx);
        let ledger = ctx.take_ledger();
        assert_eq!(
            ledger.iter().map(|r| r.pass.as_str()).collect::<Vec<_>>(),
            ["size", "size", "rewrite"]
        );
        assert_eq!(ledger[0].before.size, before.size);
        for pair in ledger.windows(2) {
            assert_eq!(pair[0].after.size, pair[1].before.size);
        }
        assert_eq!(ledger.last().unwrap().after.size, out.size());
        assert!(ctx.ledger().is_empty(), "take_ledger drains");
    }

    #[test]
    fn observer_sees_exactly_the_ledger() {
        let mig = xor_tangle();
        let mut ctx = OptContext::with_jobs(1);
        let mut seen: Vec<(String, u64)> = Vec::new();
        let observed = Flow::parse("size*2; rewrite; depth*")
            .unwrap()
            .run_observed(mig.clone(), 1, &mut ctx, |r| {
                seen.push((r.pass.clone(), r.after.size as u64));
            });
        let ledger = ctx.take_ledger();
        assert_eq!(seen.len(), ledger.len(), "one callback per entry");
        for (got, want) in seen.iter().zip(ledger.iter()) {
            assert_eq!(got.0, want.pass);
            assert_eq!(got.1, want.after.size as u64);
        }
        // And the observed run computes the same result as a plain run.
        let plain = Flow::parse("size*2; rewrite; depth*").unwrap().run(
            mig,
            1,
            &mut OptContext::with_jobs(1),
        );
        assert_eq!(observed.size(), plain.size());
        assert_eq!(observed.depth(), plain.depth());
    }

    #[test]
    fn converge_stops_at_the_fixpoint() {
        let mig = xor_tangle();
        let mut ctx = OptContext::with_jobs(1);
        let out = Flow::parse("size*").unwrap().run(mig.clone(), 1, &mut ctx);
        let runs = ctx.ledger().len();
        assert!((1..=CONVERGE_CAP).contains(&runs), "{runs} runs");
        // The last run is the non-improving one (unless the cap hit),
        // and keeping it is safe because passes are monotone.
        let last = ctx.ledger().last().unwrap();
        if runs < CONVERGE_CAP {
            assert!(
                (last.after.size, last.after.depth) >= (last.before.size, last.before.depth),
                "converge must stop on the first non-improving run"
            );
        }
        assert_eq!(out.size(), last.after.size);
        assert!(out.equiv(&mig, 4));
    }

    #[test]
    fn activity_convergence_tracks_the_activity_metric() {
        // The activity pass may trade a little size within its slack;
        // `activity*` must keep iterating while the activity value
        // falls, and stop when it does not — size is not the signal.
        let pass = PassKind::Activity.build(1);
        let before = PassMetrics {
            size: 10,
            depth: 5,
            activity: 3.0,
            mapped: None,
        };
        let larger_but_calmer = PassMetrics {
            size: 11,
            depth: 5,
            activity: 2.5,
            mapped: None,
        };
        assert!(pass.improved(&before, &larger_but_calmer));
        assert!(!pass.improved(&larger_but_calmer, &before));
        // The default (objective-cost) rule still drives the others.
        let size_pass = PassKind::Size.build(1);
        assert!(size_pass.improved(
            &before,
            &PassMetrics {
                size: 9,
                depth: 5,
                activity: 3.0,
                mapped: None
            }
        ));
        assert!(!size_pass.improved(&before, &larger_but_calmer));
    }

    #[test]
    fn depth_rewrite_pass_reduces_depth_and_never_grows() {
        // An XOR chain: the size-oriented database structures are also
        // shallower, and the depth goal must find them without adding
        // nodes.
        let mut mig = Mig::new("xorchain");
        let ins: Vec<Signal> = (0..6).map(|i| mig.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("y", acc);
        let mut ctx = OptContext::with_jobs(1);
        let out = Flow::parse("depth_rewrite")
            .unwrap()
            .run(mig.clone(), 2, &mut ctx);
        assert!(out.equiv(&mig, 4));
        assert!(
            out.depth() < mig.depth(),
            "{} !< {}",
            out.depth(),
            mig.depth()
        );
        assert!(out.size() <= mig.size());
    }

    /// A cost model that counts its `measure` calls; its "mapped" cost
    /// is the structural size and depth.
    #[derive(Debug, Default)]
    struct CountingModel {
        calls: Arc<AtomicUsize>,
    }

    impl TechModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }

        fn measure(&self, mig: &Mig) -> MappedMetrics {
            self.calls.fetch_add(1, Ordering::Relaxed);
            MappedMetrics {
                area: mig.size() as f64,
                delay: f64::from(mig.depth()),
                power: 0.0,
                cells: mig.size(),
            }
        }
    }

    /// A context with a fresh [`CountingModel`] installed, and its
    /// call counter.
    fn counting_context() -> (OptContext, Arc<AtomicUsize>) {
        let model = CountingModel::default();
        let calls = Arc::clone(&model.calls);
        let mut ctx = OptContext::with_jobs(1);
        ctx.set_tech(Box::new(model));
        (ctx, calls)
    }

    fn calls(counter: &AtomicUsize) -> usize {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn structural_flows_never_measure_mapped_cost() {
        // The Table I map flow of the benchmark: no step has a mapped
        // objective, so an installed model is never run, and the result
        // is the one of a model-free context.
        let mig = xor_tangle();
        let flow = Flow::parse("size; rewrite; depth; activity").unwrap();
        let (mut ctx, counter) = counting_context();
        let with_model = flow.run(mig.clone(), 2, &mut ctx);
        assert_eq!(calls(&counter), 0, "no pass reads the mapped cost");
        for r in ctx.ledger() {
            assert!(r.before.mapped.is_none() && r.after.mapped.is_none());
        }
        let without = flow.run(mig, 2, &mut OptContext::with_jobs(1));
        assert!(with_model.same_structure(&without));
    }

    #[test]
    fn mapped_cost_rides_only_on_mapped_passes() {
        let mig = xor_tangle();
        let (mut ctx, counter) = counting_context();
        let out = Flow::parse("size; map_area*")
            .unwrap()
            .run(mig.clone(), 1, &mut ctx);
        assert!(out.equiv(&mig, 4));
        let ledger = ctx.ledger();
        assert_eq!(ledger[0].pass, "size");
        assert!(ledger[0].before.mapped.is_none() && ledger[0].after.mapped.is_none());
        assert!(ledger.len() >= 2);
        for r in &ledger[1..] {
            assert_eq!(r.pass, "map_area");
            let (b, a) = (r.before.mapped.unwrap(), r.after.mapped.unwrap());
            assert_eq!(b.cells, r.before.size);
            assert_eq!(a.cells, r.after.size);
        }
        assert!(calls(&counter) > 0);
    }

    #[test]
    fn metrics_memo_never_serves_a_structural_entry_to_a_mapped_pass() {
        let mig = xor_tangle();
        let (mut ctx, counter) = counting_context();
        let map_area = PassKind::MapArea.build(1);
        let size = PassKind::Size.build(1);
        // `size` leaves an unmapped memo for its result's stamp; the
        // mapped pass measuring that same graph must run the model.
        let sized = ctx.run_pass(&*size, mig);
        assert_eq!(calls(&counter), 0);
        let expected = PassMetrics::of(&sized).size;
        let mapped = ctx.run_pass(&*map_area, sized);
        let entry = ctx.ledger().last().unwrap();
        assert_eq!(
            entry.before.mapped.map(|m| m.cells),
            Some(expected),
            "a cached `None` was served to a mapped pass"
        );
        assert!(entry.after.mapped.is_some());
        // The other way round: a mapped memo is served to a structural
        // pass with its mapped cost stripped, without re-measuring.
        let before = calls(&counter);
        ctx.run_pass(&*size, mapped);
        let entry = ctx.ledger().last().unwrap();
        assert!(entry.before.mapped.is_none() && entry.after.mapped.is_none());
        assert_eq!(calls(&counter), before);
    }

    #[test]
    fn shared_context_matches_fresh_contexts() {
        // Two circuits through one context must give exactly the
        // results of independent fresh contexts (arena and cut-cache
        // reuse never changes results).
        let m1 = xor_tangle();
        let mut m2 = Mig::new("x3");
        let a = m2.add_input("a");
        let b = m2.add_input("b");
        let c = m2.add_input("c");
        let t = m2.xor(a, b);
        let f = m2.xor(t, c);
        m2.add_output("f", f);

        let flow = Flow::parse("size; rewrite; depth").unwrap();
        let mut shared = OptContext::with_jobs(1);
        let s1 = flow.run(m1.clone(), 2, &mut shared);
        let s2 = flow.run(m2.clone(), 2, &mut shared);
        let f1 = flow.run(m1.clone(), 2, &mut OptContext::with_jobs(1));
        let f2 = flow.run(m2.clone(), 2, &mut OptContext::with_jobs(1));
        for (s, f) in [(&s1, &f1), (&s2, &f2)] {
            assert_eq!(s.num_nodes(), f.num_nodes());
            for node in s.gate_ids() {
                assert_eq!(s.children(node), f.children(node));
            }
            assert_eq!(s.outputs(), f.outputs());
        }
        assert!(s1.equiv(&m1, 4) && s2.equiv(&m2, 4));
    }
}
