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
//! The legacy cost targets (`size`, `depth`, `activity`, `all` — the
//! paper's Algorithm 1, Algorithm 2, §IV-C and Table I) are compiled to
//! canned flow scripts by [`flow_for_target`]; `mighty opt --flow`
//! exposes arbitrary scripts (e.g. `"size*2; rewrite; depth_rewrite;
//! activity"`). The binary is `mighty`; the library half exposes the
//! same pipeline as plain functions ([`load_input`], [`run_opt`],
//! [`run_flow`], [`render_report`]) so integration tests drive the exact
//! code path the CLI does. The timed suite sweep behind `mighty bench`
//! lives in [`mig_bench`], which writes the `mig-bench/v8`
//! perf-trajectory JSON (`BENCH_opt.json`) with every optimized result
//! technology-mapped onto both stock `mig_techmap` libraries. The
//! `mighty map` half ([`run_map`], [`render_map_report`]) maps a
//! circuit onto a [`CellLibrary`] — optionally after a flow that
//! carries the library as its [`mig_core::TechModel`], so `map_area` /
//! `map_delay` steps minimize measured mapped cost.
//!
//! ```
//! use mig_mighty::{load_input, run_opt, OptTarget};
//!
//! let net = load_input("my_adder").unwrap();
//! let outcome = run_opt(&net, OptTarget::Depth, 2, 16, false, 1);
//! assert!(outcome.mig_equiv && outcome.net_equiv);
//! assert!(outcome.after.depth <= outcome.before.depth);
//! assert_eq!(outcome.flow, "depth");
//! ```

pub mod json;
pub mod serve;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mig_core::{Budget, Flow, MappedMetrics, Mig, OptContext};
use mig_netlist::{parse_verilog, write_verilog, Network};
use mig_techmap::{map_mig, CellLibrary, MapConfig, MappedDesign, TechMapper, KNOWN_LIBRARIES};

/// Which cost function the legacy `opt` pipeline minimizes. Each target
/// compiles to a canned flow script (see [`flow_for_target`]); the
/// `--flow` switch bypasses targets entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptTarget {
    /// Algorithm 1: node count.
    Size,
    /// Algorithm 2: logic depth.
    Depth,
    /// §IV-C: switching activity under uniform input probabilities.
    Activity,
    /// The paper's Table I flow: size, then depth, then activity.
    All,
}

impl OptTarget {
    /// Parses a target name as given on the command line.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "size" => Ok(Self::Size),
            "depth" => Ok(Self::Depth),
            "activity" => Ok(Self::Activity),
            "all" => Ok(Self::All),
            other => Err(format!(
                "unknown target `{other}` (expected size, depth, activity or all)"
            )),
        }
    }
}

impl fmt::Display for OptTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Size => "size",
            Self::Depth => "depth",
            Self::Activity => "activity",
            Self::All => "all",
        })
    }
}

/// Compiles a legacy [`OptTarget`] (plus the `--rewrite` switch) to the
/// canned flow script the old if-chain pipeline ran: the Boolean
/// rewriting pass slots in after the size stage, or first for a
/// depth/activity-only flow. The default target/rewrite combinations
/// produce bit-identical results to the pre-flow `run_opt`.
pub fn flow_for_target(target: OptTarget, rewrite: bool) -> &'static str {
    match (target, rewrite) {
        (OptTarget::Size, false) => "size",
        (OptTarget::Size, true) => "size; rewrite",
        (OptTarget::Depth, false) => "depth",
        (OptTarget::Depth, true) => "rewrite; depth",
        (OptTarget::Activity, false) => "activity",
        (OptTarget::Activity, true) => "rewrite; activity",
        (OptTarget::All, false) => "size; depth; activity",
        (OptTarget::All, true) => "size; rewrite; depth; activity",
    }
}

/// The three paper metrics of one MIG, captured at a pipeline stage
/// (the pass manager's ledger metrics, re-exported under this crate's
/// historic name).
pub use mig_core::PassMetrics as Snapshot;

/// One executed pass in an [`OptOutcome`] — exactly the pass manager's
/// ledger entry (name, wall time, metrics on both sides). The
/// import-normalizing `"cleanup"` stage appears only when it changed
/// the graph.
pub use mig_core::PassReport as StageReport;

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

    /// Installs these options on a pass-manager context.
    fn apply(&self, ctx: &mut OptContext, rounds: usize) {
        ctx.set_budget(self.budget());
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
    /// The canonical flow script that ran (compiled from a legacy
    /// target, or the `--flow` script as parsed).
    pub flow: String,
    /// Metrics of the imported (unoptimized) MIG.
    pub before: Snapshot,
    /// Metrics after optimization.
    pub after: Snapshot,
    /// One entry per executed pass, in run order, with wall times.
    pub stages: Vec<StageReport>,
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

/// Runs the legacy optimize-and-verify pipeline on one network: the
/// target (plus `rewrite`) compiles to its canned flow via
/// [`flow_for_target`] and runs through [`run_flow`] — a thin wrapper,
/// kept because the canned flows are the paper's reference pipelines.
///
/// `effort` scales every pass's iteration budget; `rounds` is the number
/// of 64-pattern blocks used by the random half of the equivalence
/// checks (small input counts are always checked exhaustively). Both are
/// clamped to at least 1 so a zero never silently skips verification.
/// `jobs` is the rewriting engine's evaluate-phase worker count (0 =
/// available parallelism); it affects wall time only, never the result.
pub fn run_opt(
    net: &Network,
    target: OptTarget,
    effort: usize,
    rounds: usize,
    rewrite: bool,
    jobs: usize,
) -> OptOutcome {
    let flow = Flow::parse(flow_for_target(target, rewrite)).expect("canned flows parse");
    run_flow(net, &flow, effort, rounds, jobs)
}

/// Runs an arbitrary optimization flow on one network and verifies the
/// result: import → cleanup → every pass of `flow` through one shared
/// [`OptContext`] → MIG- and netlist-level equivalence checks. The
/// per-pass wall times and metrics land in [`OptOutcome::stages`].
/// Equivalent to [`run_flow_with`] under default [`RunOptions`].
pub fn run_flow(
    net: &Network,
    flow: &Flow,
    effort: usize,
    rounds: usize,
    jobs: usize,
) -> OptOutcome {
    run_flow_with(net, flow, effort, rounds, jobs, &RunOptions::default())
}

/// [`run_flow`] with resilience options: the [`RunOptions`] budget and
/// optional post-pass spot check are installed on the context, so a
/// panicking, overrunning, or wrong-result pass degrades the run
/// ([`OptOutcome::degraded`], per-stage [`StageReport::outcome`])
/// instead of killing it — the returned network is always valid and
/// still goes through both final equivalence checks.
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
/// one context alive across jobs (arena pool, rewrite cache and level
/// mirror survive, so later jobs skip the warm-up allocations) and
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
    mut observe: impl FnMut(&StageReport),
) -> OptOutcome {
    let rounds = rounds.max(1);
    let mig = Mig::from_network(net);
    let before = Snapshot::of(&mig);
    ctx.clear_spot_check();
    ctx.take_ledger();
    opts.apply(ctx, rounds);

    let start = Instant::now();
    let mut stages: Vec<StageReport> = Vec::new();
    let cleanup_start = Instant::now();
    let cleaned = mig.cleanup();
    let cleanup_millis = cleanup_start.elapsed().as_secs_f64() * 1e3;
    if Snapshot::of(&cleaned) != before {
        let report = StageReport {
            pass: "cleanup".to_string(),
            millis: cleanup_millis,
            before,
            after: Snapshot::of(&cleaned),
            outcome: mig_core::PassOutcome::Completed,
            note: None,
            unchanged: false,
        };
        observe(&report);
        stages.push(report);
    }
    let cur = flow.run_observed(cleaned, effort, ctx, &mut observe);
    let millis = start.elapsed().as_millis();
    stages.extend(ctx.take_ledger());

    let after = Snapshot::of(&cur);
    let mig_equiv = cur.equiv(&mig, rounds);
    let optimized = cur.to_network();
    let net_equiv = mig_sim::equivalent(net, &optimized, rounds);
    let degraded = stages.iter().any(|s| s.outcome.degraded());

    OptOutcome {
        name: net.name().to_string(),
        flow: flow.to_string(),
        before,
        after,
        stages,
        mig_equiv,
        net_equiv,
        optimized,
        millis,
        degraded,
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
    pub before: Snapshot,
    /// Metrics of the MIG handed to the mapper.
    pub after: Snapshot,
    /// One entry per executed pass, in run order, with wall times.
    pub stages: Vec<StageReport>,
    /// Physical metrics of the mapped design.
    pub mapped: MappedMetrics,
    /// The mapped standard-cell netlist.
    pub design: MappedDesign,
    /// MIG-level equivalence of the pre-mapping graph vs the import.
    pub mig_equiv: bool,
    /// Equivalence of the mapped netlist against the input network,
    /// checked through `mig_sim` on the cell-level export.
    pub map_equiv: bool,
    /// Wall-clock optimize+map time in milliseconds (excludes I/O).
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
/// (with the target library installed as the flow's [`mig_core::TechModel`],
/// so `map_area`/`map_delay` steps measure real mapped cost) → cut-based
/// technology mapping → equivalence checks at both levels.
pub fn run_map(
    net: &Network,
    library: &str,
    flow: Option<&Flow>,
    effort: usize,
    rounds: usize,
    jobs: usize,
) -> Result<MapOutcome, String> {
    run_map_with(
        net,
        library,
        flow,
        effort,
        rounds,
        jobs,
        &RunOptions::default(),
    )
}

/// [`run_map`] with resilience options (see [`run_flow_with`]). The
/// final mapping itself runs behind a panic boundary: a crashing mapper
/// yields an `Err` describing the fault, never a process abort.
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
    let mig = Mig::from_network(net);
    let before = Snapshot::of(&mig);
    let mut ctx = OptContext::with_jobs(jobs);
    ctx.set_tech(Box::new(TechMapper::new(lib.clone())));
    opts.apply(&mut ctx, rounds);

    let start = Instant::now();
    let mut stages: Vec<StageReport> = Vec::new();
    let cleanup_start = Instant::now();
    let cleaned = mig.cleanup();
    let cleanup_millis = cleanup_start.elapsed().as_secs_f64() * 1e3;
    if Snapshot::of(&cleaned) != before {
        stages.push(StageReport {
            pass: "cleanup".to_string(),
            millis: cleanup_millis,
            before,
            after: Snapshot::of(&cleaned),
            outcome: mig_core::PassOutcome::Completed,
            note: None,
            unchanged: false,
        });
    }
    let cur = match flow {
        Some(f) => f.run(cleaned, effort, &mut ctx),
        None => cleaned,
    };
    stages.extend(ctx.take_ledger());
    let design = catch_unwind(AssertUnwindSafe(|| {
        map_mig(&cur, &lib, &MapConfig::default())
    }))
    .map_err(|_| format!("technology mapping onto `{}` panicked", lib.name))?;
    let millis = start.elapsed().as_millis();

    let mapped = MappedMetrics {
        area: design.area(),
        delay: design.delay(),
        power: design.power(),
        cells: design.num_cells(),
    };
    let after = Snapshot::of(&cur);
    let mig_equiv = cur.equiv(&mig, rounds);
    let map_equiv = mig_sim::equivalent(net, &design.to_network(), rounds);
    let degraded = stages.iter().any(|s| s.outcome.degraded());
    Ok(MapOutcome {
        name: net.name().to_string(),
        library: lib.name.to_string(),
        flow: flow.map(Flow::to_string),
        before,
        after,
        stages,
        mapped,
        design,
        mig_equiv,
        map_equiv,
        millis,
        degraded,
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
    match pass {
        "size" => "size (Alg. 1)".to_string(),
        "depth" => "depth (Alg. 2)".to_string(),
        "activity" => "activity (§IV-C)".to_string(),
        "rewrite" => "rewrite (Boolean)".to_string(),
        "depth_rewrite" => "depth_rewrite (Boolean)".to_string(),
        "esat" => "esat (e-graph)".to_string(),
        "depth_esat" => "depth_esat (e-graph)".to_string(),
        "map_area" => "map_area (mapped §V)".to_string(),
        "map_delay" => "map_delay (mapped §V)".to_string(),
        other => other.to_string(),
    }
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
fn outcome_marker(stage: &StageReport) -> String {
    if stage.outcome.degraded() {
        format!("  [{}]", stage.outcome)
    } else {
        String::new()
    }
}

/// Appends the `degraded:` summary block — one line per degraded stage
/// with its ledger note — or nothing when every stage completed.
fn push_degraded_summary(s: &mut String, stages: &[StageReport]) {
    let degraded: Vec<&StageReport> = stages.iter().filter(|st| st.outcome.degraded()).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_input_resolves_benchmarks_and_rejects_garbage() {
        let net = load_input("alu4").expect("benchmark name resolves");
        assert_eq!(net.num_inputs(), 14);
        let err = load_input("no_such_benchmark_or_file").unwrap_err();
        assert!(err.contains("neither a known benchmark"));
    }

    #[test]
    fn opt_all_improves_and_stays_equivalent() {
        let net = load_input("my_adder").unwrap();
        let o = run_opt(&net, OptTarget::All, 2, 16, false, 1);
        assert!(o.mig_equiv, "MIG-level equivalence must hold");
        assert!(o.net_equiv, "network-level equivalence must hold");
        assert!(o.after.size <= o.before.size);
        assert!(o.after.depth <= o.before.depth);
        assert_eq!(o.flow, "size; depth; activity");
        let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
        for expected in ["size", "depth", "activity"] {
            assert!(passes.contains(&expected), "missing pass {expected}");
        }
    }

    #[test]
    fn rewrite_flow_adds_a_stage_and_stays_equivalent() {
        let net = load_input("my_adder").unwrap();
        let plain = run_opt(&net, OptTarget::Size, 1, 16, false, 1);
        let o = run_opt(&net, OptTarget::Size, 1, 16, true, 1);
        assert!(o.mig_equiv && o.net_equiv);
        assert_eq!(o.flow, "size; rewrite");
        let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
        assert!(passes.contains(&"rewrite"), "{passes:?}");
        assert!(o.after.size <= plain.after.size, "rewrite must not grow");
    }

    #[test]
    fn run_flow_matches_the_compiled_target() {
        // The thin-wrapper contract: run_opt(target) and run_flow on the
        // canned script must produce the same stages and metrics.
        let net = load_input("count").unwrap();
        let via_target = run_opt(&net, OptTarget::All, 1, 8, true, 1);
        let flow = Flow::parse(flow_for_target(OptTarget::All, true)).unwrap();
        let via_flow = run_flow(&net, &flow, 1, 8, 1);
        assert_eq!(via_target.flow, via_flow.flow);
        assert_eq!(via_target.after.size, via_flow.after.size);
        assert_eq!(via_target.after.depth, via_flow.after.depth);
        assert_eq!(via_target.stages.len(), via_flow.stages.len());
        for (a, b) in via_target.stages.iter().zip(&via_flow.stages) {
            assert_eq!(a.pass, b.pass);
            assert_eq!(a.after.size, b.after.size);
            assert_eq!(a.after.depth, b.after.depth);
        }
    }

    #[test]
    fn custom_flows_run_and_verify() {
        let net = load_input("my_adder").unwrap();
        let flow = Flow::parse("rewrite; depth_rewrite; size*2").unwrap();
        let o = run_flow(&net, &flow, 1, 8, 1);
        assert!(o.mig_equiv && o.net_equiv);
        assert_eq!(o.flow, "rewrite; depth_rewrite; size*2");
        let passes: Vec<&str> = o.stages.iter().map(|s| s.pass.as_str()).collect();
        assert!(passes.ends_with(&["rewrite", "depth_rewrite", "size", "size"]));
    }

    #[test]
    fn report_mentions_every_metric_verdict_and_per_pass_time() {
        let net = load_input("my_adder").unwrap();
        let o = run_opt(&net, OptTarget::Size, 1, 8, false, 1);
        let r = render_report(&o);
        for needle in [
            "size",
            "Δsize",
            "depth",
            "Δdepth",
            "activity",
            "ms",
            "flow: size",
            "size (Alg. 1)",
            "PASS",
        ] {
            assert!(r.contains(needle), "missing `{needle}` in:\n{r}");
        }
    }

    #[test]
    fn target_parsing_round_trips() {
        for t in [
            OptTarget::Size,
            OptTarget::Depth,
            OptTarget::Activity,
            OptTarget::All,
        ] {
            assert_eq!(OptTarget::parse(&t.to_string()).unwrap(), t);
        }
        assert!(OptTarget::parse("speed").is_err());
    }

    #[test]
    fn canned_flows_all_parse() {
        for target in [
            OptTarget::Size,
            OptTarget::Depth,
            OptTarget::Activity,
            OptTarget::All,
        ] {
            for rewrite in [false, true] {
                let script = flow_for_target(target, rewrite);
                let flow = Flow::parse(script).expect(script);
                assert_eq!(flow.to_string(), script, "canned scripts are canonical");
            }
        }
    }
}
