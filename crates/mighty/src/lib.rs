//! # MIGhty — the end-to-end driver of the MIG suite
//!
//! This crate reproduces the role of the paper's *MIGhty* tool: a
//! command-line front end that takes a circuit (a generated MCNC stand-in
//! from [`mig_benchgen`] or a structural-Verilog file), imports it into a
//! Majority-Inverter Graph, runs an optimization *flow* — a script of
//! [`mig_core`] passes sequenced by the composable pass manager
//! ([`mig_core::Flow`]) — verifies the result against the input with
//! [`mig_sim`] equivalence checking, and reports per-pass size, depth,
//! switching-activity and wall-time numbers.
//!
//! Every job runs one sequence — import → cleanup → flow → ledger →
//! verify — whether it comes from `mighty opt` ([`run_flow_with`]),
//! `mighty map` ([`run_map_with`], which maps onto a [`CellLibrary`]
//! after the flow, with the library installed as the flow's
//! [`mig_core::TechModel`] so `map_area`/`map_delay` steps minimize
//! measured mapped cost), a `mighty serve` worker ([`run_flow_session`])
//! or one circuit of the timed `mighty bench` sweep ([`mod@bench`], which
//! writes the `mig-bench/v8` perf-trajectory JSON `BENCH_opt.json`).
//! The legacy cost targets (`size`, `depth`, `activity`, `all` — the
//! paper's Algorithm 1, Algorithm 2, §IV-C and Table I) and the
//! `--rewrite` switch are aliases of flow scripts, resolved through one
//! table, [`TARGET_FLOWS`]. Integration tests drive these functions, the
//! exact code path the CLI does.
//!
//! ```
//! use mig_core::Flow;
//! use mig_mighty::{load_input, run_flow_with, target_flow, RunOptions};
//!
//! let net = load_input("my_adder").unwrap();
//! let flow = Flow::parse(target_flow("depth", false).unwrap()).unwrap();
//! let outcome = run_flow_with(&net, &flow, 2, 16, 1, &RunOptions::default());
//! assert!(outcome.mig_equiv && outcome.net_equiv);
//! assert!(outcome.after.depth <= outcome.before.depth);
//! assert_eq!(outcome.flow, "depth");
//! ```

pub mod bench;
pub mod json;
pub mod serve;

#[cfg(test)]
mod tests;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mig_core::{
    Budget, Flow, MappedMetrics, Mig, OptContext, PassMetrics, PassOutcome, PassReport,
};
use mig_netlist::{parse_verilog, write_verilog, Network};
use mig_techmap::{map_mig, CellLibrary, MapConfig, MappedDesign, TechMapper, KNOWN_LIBRARIES};

/// The legacy `--target`/`--rewrite` aliases, one row per combination:
/// `(target, rewrite, flow script)`. The Boolean rewriting pass slots
/// in after the size stage, or first for a depth/activity-only flow.
pub const TARGET_FLOWS: [(&str, bool, &str); 8] = [
    ("size", false, "size"),
    ("size", true, "size; rewrite"),
    ("depth", false, "depth"),
    ("depth", true, "rewrite; depth"),
    ("activity", false, "activity"),
    ("activity", true, "rewrite; activity"),
    ("all", false, "size; depth; activity"),
    ("all", true, "size; rewrite; depth; activity"),
];

/// Largest `effort` a job may ask for (`--effort`, a serve job's
/// `effort`): the optimizers' round budgets are multiples of it, so an
/// unbounded value could overflow them.
pub const MAX_EFFORT: usize = 64;

/// Largest `rounds` a job may ask for (`--rounds`, a serve job's
/// `rounds`): random equivalence checking stores `outputs × rounds`
/// signature words, so the bound caps its cost per output at the
/// exhaustive check's (1024 words for 16 inputs) and keeps the product
/// from overflowing. It does not bound the total, which grows with the
/// output count of the circuit.
pub const MAX_ROUNDS: usize = 1024;

/// Resolves a `--target` name and the `--rewrite` switch to their flow
/// script through [`TARGET_FLOWS`].
pub fn target_flow(target: &str, rewrite: bool) -> Result<&'static str, String> {
    TARGET_FLOWS
        .iter()
        .find(|&&(t, r, _)| t == target && r == rewrite)
        .map(|&(_, _, script)| script)
        .ok_or_else(|| format!("unknown target `{target}` (expected size, depth, activity or all)"))
}

/// Resilience knobs of one driver run, surfaced by the CLI as
/// `--timeout-ms`, `--pass-timeout-ms`, `--max-nodes` and `--selfcheck`.
/// The default is fully permissive (no budget, no spot check) — exactly
/// the historical behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Wall-clock budget for the whole flow, in milliseconds; passes
    /// whose turn comes after the deadline are skipped (ledgered, not
    /// lost).
    pub timeout_ms: Option<u64>,
    /// Per-pass timeout in milliseconds; an overrunning pass is rolled
    /// back to its pre-pass checkpoint.
    pub pass_timeout_ms: Option<u64>,
    /// Node-count cap; a pass whose output grows past it is rolled
    /// back.
    pub max_nodes: Option<usize>,
    /// Run the simulation spot check ([`OptContext::set_spot_check`])
    /// after every pass, rolling back any pass whose result fails it.
    pub selfcheck: bool,
}

impl RunOptions {
    fn budget(&self) -> Budget {
        Budget {
            total_ms: self.timeout_ms,
            pass_ms: self.pass_timeout_ms,
            max_nodes: self.max_nodes,
        }
    }

    /// Installs these options on a pass-manager context, replacing any
    /// budget or spot check a previous job left there.
    fn apply(&self, ctx: &mut OptContext, rounds: usize) {
        ctx.set_budget(self.budget());
        ctx.clear_spot_check();
        if self.selfcheck {
            ctx.set_spot_check(rounds);
        }
    }
}

/// Everything `mighty opt` produces: per-pass metrics and timings, the
/// equivalence verdicts, and the optimized network ready to be written
/// back out.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// Circuit name as recorded in the netlist.
    pub name: String,
    /// The canonical flow script that ran (resolved from a legacy
    /// target, or the `--flow` script as parsed).
    pub flow: String,
    /// Metrics of the imported (unoptimized) MIG.
    pub before: PassMetrics,
    /// Metrics after optimization.
    pub after: PassMetrics,
    /// One entry per executed pass, in run order, with wall times. The
    /// import-normalizing `"cleanup"` stage appears only when it changed
    /// the graph.
    pub stages: Vec<PassReport>,
    /// MIG-level equivalence of the optimized graph against the import.
    pub mig_equiv: bool,
    /// Network-level equivalence of the exported result against the input
    /// netlist, checked through `mig_sim` (exhaustive ≤ 16 inputs, seeded
    /// random otherwise).
    pub net_equiv: bool,
    /// Optimized circuit exported back to the interchange form.
    pub optimized: Network,
    /// Wall-clock optimization time in milliseconds (excludes I/O).
    pub millis: u128,
    /// Whether any stage ended degraded (skipped, timed out, or rolled
    /// back) — the result is still valid and verified, but some passes
    /// did not contribute.
    pub degraded: bool,
}

/// Resolves a CLI input spec: a known benchmark name from
/// [`mig_benchgen::MCNC_NAMES`] or [`mig_benchgen::LARGE_NAMES`], or a
/// path to a structural-Verilog file.
pub fn load_input(spec: &str) -> Result<Network, String> {
    if let Some(net) = mig_benchgen::generate(spec) {
        return Ok(net);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        format!(
            "`{spec}` is neither a known benchmark ({}) nor a readable file: {e}",
            mig_benchgen::MCNC_NAMES
                .iter()
                .chain(mig_benchgen::LARGE_NAMES.iter())
                .copied()
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    parse_verilog(&text).map_err(|e| format!("{spec}: {e}"))
}

/// The optimization half every job shares (see [`optimize`]).
struct Optimized {
    /// The imported MIG, the reference of the MIG-level check.
    import: Mig,
    /// Metrics of `import`.
    before: PassMetrics,
    /// The `cleanup` stage, present when it changed the graph's metrics.
    cleanup: Option<PassReport>,
    /// The flow's ledger, in run order.
    passes: Vec<PassReport>,
    /// The flow's result.
    result: Mig,
    /// When the cleanup started: the origin of a job's wall time.
    started: Instant,
}

impl Optimized {
    /// MIG-level equivalence of the result against the import.
    fn mig_equiv(&self, rounds: usize) -> bool {
        self.result.equiv(&self.import, rounds)
    }

    /// Moves out the cleanup stage (when it ran) followed by the flow's
    /// ledger.
    fn take_stages(&mut self) -> Vec<PassReport> {
        let passes = std::mem::take(&mut self.passes);
        self.cleanup.take().into_iter().chain(passes).collect()
    }
}

/// Import → cleanup → `flow` (none: cleanup only) → ledger, on `ctx`
/// under `opts`: the one implementation behind `opt`, `map`, `serve`
/// and `bench`. `observe` sees every stage as it lands, the cleanup
/// stage included.
fn optimize(
    net: &Network,
    flow: Option<&Flow>,
    effort: usize,
    rounds: usize,
    opts: &RunOptions,
    ctx: &mut OptContext,
    mut observe: impl FnMut(&PassReport),
) -> Optimized {
    let import = Mig::from_network(net);
    let before = PassMetrics::of(&import);
    ctx.take_ledger();
    opts.apply(ctx, rounds);
    let started = Instant::now();
    let cleaned = import.cleanup();
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let after = PassMetrics::of(&cleaned);
    let cleanup = (after != before).then(|| PassReport {
        pass: "cleanup".to_string(),
        millis,
        before,
        after,
        outcome: PassOutcome::Completed,
        note: None,
        unchanged: false,
    });
    if let Some(report) = &cleanup {
        observe(report);
    }
    let result = match flow {
        Some(f) => f.run_observed(cleaned, effort, ctx, &mut observe),
        None => cleaned,
    };
    Optimized {
        import,
        before,
        cleanup,
        passes: ctx.take_ledger(),
        result,
        started,
    }
}

/// Technology-maps `mig` onto `lib` behind a panic boundary and checks
/// the cell netlist against `net`: the mapping step of `mighty map` and
/// of both mapped `mighty bench` records. A crashing mapper yields an
/// `Err` describing the fault, never a process abort.
fn map_verified(
    mig: &Mig,
    net: &Network,
    lib: &CellLibrary,
    rounds: usize,
) -> Result<(MappedDesign, bool), String> {
    let design = catch_unwind(AssertUnwindSafe(|| {
        map_mig(mig, lib, &MapConfig::default())
    }))
    .map_err(|_| format!("technology mapping onto `{}` panicked", lib.name))?;
    let equiv = mig_sim::equivalent(net, &design.to_network(), rounds);
    Ok((design, equiv))
}

/// Runs an optimization flow on one network and verifies the result:
/// import → cleanup → every pass of `flow` through one fresh
/// [`OptContext`] → MIG- and netlist-level equivalence checks.
///
/// `effort` scales every pass's iteration budget; `rounds` is the number
/// of 64-pattern blocks used by the random half of the equivalence
/// checks (small input counts are always checked exhaustively), clamped
/// to at least 1 so a zero never silently skips verification. `jobs` is
/// the rewriting engine's evaluate-phase worker count (0 = available
/// parallelism); it affects wall time only, never the result.
///
/// The [`RunOptions`] budget and optional post-pass spot check are
/// installed on the context, so a panicking, overrunning, or
/// wrong-result pass degrades the run ([`OptOutcome::degraded`],
/// per-stage [`PassReport::outcome`]) instead of killing it — the
/// returned network is always valid and still goes through both final
/// equivalence checks.
pub fn run_flow_with(
    net: &Network,
    flow: &Flow,
    effort: usize,
    rounds: usize,
    jobs: usize,
    opts: &RunOptions,
) -> OptOutcome {
    let mut ctx = OptContext::with_jobs(jobs);
    run_flow_session(net, flow, effort, rounds, opts, &mut ctx, |_| {})
}

/// [`run_flow_with`] against a caller-owned, reusable [`OptContext`],
/// with a per-stage observer.
///
/// This is the entry point of a `mighty serve` worker: the worker keeps
/// one context alive across jobs (the buffers of the arena pool and the
/// rewrite cache are reused, so later jobs skip the warm-up
/// allocations; their contents start cold at each pass) and
/// streams every executed stage to the client as it lands in the
/// wall-time ledger. Context reuse never changes results — caches are
/// stamp-keyed and arenas wiped on reuse — so the outcome is
/// bit-identical to a fresh-context [`run_flow_with`] run with the same
/// arguments (the serve test suite asserts this). Any spot check or
/// budget left over from a previous job is cleared/overwritten before
/// the flow runs.
pub fn run_flow_session(
    net: &Network,
    flow: &Flow,
    effort: usize,
    rounds: usize,
    opts: &RunOptions,
    ctx: &mut OptContext,
    observe: impl FnMut(&PassReport),
) -> OptOutcome {
    let rounds = rounds.max(1);
    let mut job = optimize(net, Some(flow), effort, rounds, opts, ctx, observe);
    let millis = job.started.elapsed().as_millis();
    let stages = job.take_stages();
    let optimized = job.result.to_network();
    OptOutcome {
        name: net.name().to_string(),
        flow: flow.to_string(),
        before: job.before,
        after: PassMetrics::of(&job.result),
        mig_equiv: job.mig_equiv(rounds),
        net_equiv: mig_sim::equivalent(net, &optimized, rounds),
        degraded: stages.iter().any(|s| s.outcome.degraded()),
        stages,
        optimized,
        millis,
    }
}

/// Everything `mighty map` produces: the optimization trail (when a
/// flow ran before mapping), the mapped netlist with its physical
/// metrics, and both equivalence verdicts.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// Circuit name as recorded in the netlist.
    pub name: String,
    /// Display name of the cell library mapped onto.
    pub library: String,
    /// The flow script that ran before mapping, if any.
    pub flow: Option<String>,
    /// Metrics of the imported (unoptimized) MIG.
    pub before: PassMetrics,
    /// Metrics of the MIG handed to the mapper.
    pub after: PassMetrics,
    /// One entry per executed pass, in run order, with wall times.
    pub stages: Vec<PassReport>,
    /// Physical metrics of the mapped design.
    pub mapped: MappedMetrics,
    /// The mapped standard-cell netlist.
    pub design: MappedDesign,
    /// MIG-level equivalence of the pre-mapping graph vs the import.
    pub mig_equiv: bool,
    /// Equivalence of the mapped netlist against the input network,
    /// checked through `mig_sim` on the cell-level export.
    pub map_equiv: bool,
    /// Wall-clock optimize+map time in milliseconds, the mapped-netlist
    /// check included (excludes I/O).
    pub millis: u128,
    /// Whether any stage ended degraded (skipped, timed out, or rolled
    /// back).
    pub degraded: bool,
}

/// Resolves a `--lib` argument to a stock [`CellLibrary`], with an
/// error that lists the available names.
pub fn resolve_library(name: &str) -> Result<CellLibrary, String> {
    CellLibrary::by_name(name).ok_or_else(|| {
        format!(
            "unknown library `{name}` (available: {})",
            KNOWN_LIBRARIES.join(", ")
        )
    })
}

/// Runs `mighty map`: import → cleanup → optional optimization flow
/// (with the target library installed as the flow's
/// [`mig_core::TechModel`], so `map_area`/`map_delay` steps measure real
/// mapped cost) → cut-based technology mapping → equivalence checks at
/// both levels. Options and arguments as in [`run_flow_with`]; the final
/// mapping runs behind a panic boundary, so a crashing mapper yields an
/// `Err` describing the fault, never a process abort.
pub fn run_map_with(
    net: &Network,
    library: &str,
    flow: Option<&Flow>,
    effort: usize,
    rounds: usize,
    jobs: usize,
    opts: &RunOptions,
) -> Result<MapOutcome, String> {
    let lib = resolve_library(library)?;
    let rounds = rounds.max(1);
    let mut ctx = OptContext::with_jobs(jobs);
    ctx.set_tech(Box::new(TechMapper::new(lib.clone())));
    let mut job = optimize(net, flow, effort, rounds, opts, &mut ctx, |_| {});
    let (design, map_equiv) = map_verified(&job.result, net, &lib, rounds)?;
    let millis = job.started.elapsed().as_millis();
    let stages = job.take_stages();
    Ok(MapOutcome {
        name: net.name().to_string(),
        library: lib.name.to_string(),
        flow: flow.map(Flow::to_string),
        before: job.before,
        after: PassMetrics::of(&job.result),
        mapped: MappedMetrics {
            area: design.area(),
            delay: design.delay(),
            power: design.power(),
            cells: design.num_cells(),
        },
        design,
        mig_equiv: job.mig_equiv(rounds),
        map_equiv,
        millis,
        degraded: stages.iter().any(|s| s.outcome.degraded()),
        stages,
    })
}

fn pct(before: f64, after: f64) -> String {
    if before == 0.0 {
        return "—".to_string();
    }
    format!("{:+.1}%", (after - before) / before * 100.0)
}

/// The paper cross-reference printed next to a pass name in the report.
fn pass_label(pass: &str) -> String {
    let source = match pass {
        "size" => "Alg. 1",
        "depth" => "Alg. 2",
        "activity" => "§IV-C",
        "rewrite" | "depth_rewrite" => "Boolean",
        "esat" | "depth_esat" => "e-graph",
        "map_area" | "map_delay" => "mapped §V",
        other => return other.to_string(),
    };
    format!("{pass} ({source})")
}

/// Renders the human-readable report the CLI prints: one row per
/// executed pass with its node/depth deltas against the previous stage
/// and its own wall time, then the totals against the import.
pub fn render_report(o: &OptOutcome) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "=== {} · flow: {} · {} ms ===\n",
        o.name, o.flow, o.millis
    ));
    s.push_str(&format!(
        "{:<24} {:>8} {:>7} {:>7} {:>7} {:>12} {:>9}\n",
        "stage", "size", "Δsize", "depth", "Δdepth", "activity", "ms"
    ));
    s.push_str(&format!(
        "{:<24} {:>8} {:>7} {:>7} {:>7} {:>12.3} {:>9}\n",
        "import", o.before.size, "—", o.before.depth, "—", o.before.activity, "—"
    ));
    for stage in &o.stages {
        let dsize = stage.after.size as i64 - stage.before.size as i64;
        let ddepth = i64::from(stage.after.depth) - i64::from(stage.before.depth);
        s.push_str(&format!(
            "{:<24} {:>8} {:>+7} {:>7} {:>+7} {:>12.3} {:>9.1}{}\n",
            pass_label(&stage.pass),
            stage.after.size,
            dsize,
            stage.after.depth,
            ddepth,
            stage.after.activity,
            stage.millis,
            outcome_marker(stage),
        ));
    }
    s.push_str(&format!(
        "{:<24} {:>8} {:>7} {:>7} {:>7} {:>12}\n",
        "Δ vs import",
        pct(o.before.size as f64, o.after.size as f64),
        "",
        pct(o.before.depth as f64, o.after.depth as f64),
        "",
        pct(o.before.activity, o.after.activity),
    ));
    push_degraded_summary(&mut s, &o.stages);
    s.push_str(&format!(
        "equivalence: MIG {} · netlist (mig_sim) {}\n",
        if o.mig_equiv { "PASS" } else { "FAIL" },
        if o.net_equiv { "PASS" } else { "FAIL" },
    ));
    s
}

/// The per-stage degraded-outcome marker (` [rolled_back]` etc.; empty
/// for clean completions).
fn outcome_marker(stage: &PassReport) -> String {
    if stage.outcome.degraded() {
        format!("  [{}]", stage.outcome)
    } else {
        String::new()
    }
}

/// Appends the `degraded:` summary block — one line per degraded stage
/// with its ledger note — or nothing when every stage completed.
fn push_degraded_summary(s: &mut String, stages: &[PassReport]) {
    let degraded: Vec<&PassReport> = stages.iter().filter(|st| st.outcome.degraded()).collect();
    if degraded.is_empty() {
        return;
    }
    s.push_str(&format!(
        "degraded: {} of {} stages did not contribute\n",
        degraded.len(),
        stages.len()
    ));
    for st in degraded {
        s.push_str(&format!(
            "  {} [{}]: {}\n",
            st.pass,
            st.outcome,
            st.note.as_deref().unwrap_or("no detail recorded"),
        ));
    }
}

/// Renders the `mighty map` report: the optimization trail (when a
/// flow ran), then the mapped area/delay/power line and the verdicts.
pub fn render_map_report(o: &MapOutcome) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "=== {} · lib: {} · flow: {} · {} ms ===\n",
        o.name,
        o.library,
        o.flow.as_deref().unwrap_or("(none)"),
        o.millis
    ));
    if !o.stages.is_empty() {
        s.push_str(&format!(
            "{:<24} {:>8} {:>7} {:>12} {:>9}\n",
            "stage", "size", "depth", "activity", "ms"
        ));
        s.push_str(&format!(
            "{:<24} {:>8} {:>7} {:>12.3} {:>9}\n",
            "import", o.before.size, o.before.depth, o.before.activity, "—"
        ));
        for stage in &o.stages {
            s.push_str(&format!(
                "{:<24} {:>8} {:>7} {:>12.3} {:>9.1}{}\n",
                pass_label(&stage.pass),
                stage.after.size,
                stage.after.depth,
                stage.after.activity,
                stage.millis,
                outcome_marker(stage),
            ));
        }
    }
    push_degraded_summary(&mut s, &o.stages);
    s.push_str(&format!(
        "mapped:  {} cells · area {:.3} µm² · delay {:.4} ns · power {:.3} µW\n",
        o.mapped.cells, o.mapped.area, o.mapped.delay, o.mapped.power
    ));
    s.push_str(&format!(
        "equivalence: MIG {} · mapped netlist (mig_sim) {}\n",
        if o.mig_equiv { "PASS" } else { "FAIL" },
        if o.map_equiv { "PASS" } else { "FAIL" },
    ));
    s
}

/// Writes `net` as structural Verilog to `path`, or stdout for `-`.
pub fn emit_verilog(net: &Network, path: &str) -> Result<(), String> {
    let text = write_verilog(net);
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))
    }
}
