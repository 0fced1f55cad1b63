//! The benchmark harness behind `mighty bench`.
//!
//! Runs an optimization flow (default: the size → rewrite → depth →
//! activity pipeline) over the generated MCNC suite through the same
//! import → cleanup → flow → verify path as `mighty opt` (its ledger
//! holds the flow's passes only, never the `cleanup` stage), timing
//! every executed pass via the pass manager's wall-time ledger, and
//! serializes the result as `BENCH_opt.json` in the stable
//! `mig-bench/v8` schema so successive PRs accumulate a performance
//! trajectory. `DESIGN.md` §7 documents the schema and its history, and
//! `crates/mighty/tests/bench_gates.rs` holds every gate over it.
//!
//! A pass entry carries an `"outcome"` key only when the pass manager
//! degraded it (`rolled_back` / `timed_out` / `skipped`). The `large`
//! array and the `large_flow` line appear only when the large tier ran,
//! so an MCNC-only run's JSON stays free of machine-volatile fields
//! (`peak_rss_bytes` varies run to run even on one machine).
//!
//! Numbers are written with enough precision to diff; wall times are
//! machine-dependent and meant for *relative* comparison on one machine.
//!
//! ```
//! use mig_mighty::bench::{run_suite, to_json, BenchConfig};
//!
//! let cfg = BenchConfig { names: vec!["my_adder".into()], ..BenchConfig::quick() };
//! let report = run_suite(&cfg);
//! assert!(report.all_ok());
//! assert_eq!(report.benchmarks.len(), 1);
//! assert!(to_json(&report).contains("\"schema\": \"mig-bench/v8\""));
//! ```

#![warn(missing_docs)]

use std::fmt::Write as _;

use mig_core::{resolve_jobs, Flow, Mig, OptContext, PassMetrics, PassReport};
use mig_netlist::Network;
use mig_techmap::CellLibrary;

use crate::{map_verified, optimize, RunOptions};

/// Effort of a full-suite sweep, applied uniformly to every pass so a
/// single number describes the run.
const FULL_EFFORT: usize = 4;

/// The canonical default flow: the v3 harness's fixed size → rewrite →
/// depth → activity pipeline as a flow script.
pub const DEFAULT_FLOW: &str = "size; rewrite; depth; activity";

/// The pass sequence of [`DEFAULT_FLOW`] (kept for schema tests and
/// downstream tooling that expects the classic four passes).
pub const PASSES: [&str; 4] = ["size", "rewrite", "depth", "activity"];

/// Benchmarks skipped in `--quick` mode (the largest generators — they
/// dominate wall time without adding CI signal).
pub const QUICK_SKIP: [&str; 3] = ["clma", "s38417", "bigkey"];

/// The large tier's default flow: the million-node scaling target
/// (`DESIGN.md` §14). Mapping and the esat head-to-head are MCNC-scale
/// comparisons and are skipped for this tier.
pub const LARGE_FLOW: &str = "size*2; rewrite; depth_rewrite; depth";

/// The single large-tier circuit `--quick` mode keeps (the ~100k-node
/// generator: enough to exercise every million-node code path with CI
/// wall time in seconds).
pub const LARGE_QUICK: [&str; 1] = ["mul_100k"];

/// The recognized `--suite` selections.
pub const SUITES: [&str; 3] = ["mcnc", "large", "all"];

/// The equality-saturation flow of the v6 head-to-head: the reference
/// backbone with an `esat*; rewrite*; size` tail, so the comparison
/// isolates exactly what saturation adds on top of the strongest
/// rewrite-only pipeline.
pub const ESAT_FLOW: &str = "size; rewrite*; depth_rewrite; rewrite*; size; esat*; rewrite*; size";

/// The strongest esat-free size flow found for the MCNC suite (the
/// rewrite fixpoint with one depth-rewrite perturbation), used as the
/// honest reference side of the v6 head-to-head.
pub const ESAT_REF_FLOW: &str = "size; rewrite*; depth_rewrite; rewrite*; size";

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Benchmark names to run; empty means the full MCNC suite (minus
    /// [`QUICK_SKIP`] when `quick`).
    pub names: Vec<String>,
    /// Quick mode: lower effort, fewer equivalence rounds, big
    /// benchmarks skipped. Intended for CI.
    pub quick: bool,
    /// Optimizer effort (the paper's reshape/eliminate cycle budget),
    /// applied uniformly to every pass of the flow.
    pub effort: usize,
    /// 64-pattern blocks for the random half of equivalence checking.
    pub rounds: usize,
    /// Rewrite-engine evaluate-phase worker threads (0 = available
    /// parallelism). Affects wall time only: every reported
    /// size/depth/activity/equiv value is identical for any setting.
    pub jobs: usize,
    /// Flow script to run (`None` = [`DEFAULT_FLOW`]).
    pub flow: Option<String>,
    /// Budget and spot check of every flow run, as for `mighty opt`
    /// (the deadline applies per circuit and flow).
    pub opts: RunOptions,
    /// Run the v6 equality-saturation head-to-head ([`ESAT_FLOW`] vs
    /// [`ESAT_REF_FLOW`]) per benchmark. On by default; turning it off
    /// drops the `esat` objects from the JSON (the schema tag stays v8).
    pub esat: bool,
    /// Which tier(s) to run: `"mcnc"` (default), `"large"` or `"all"`.
    /// Explicit `names` go to the selected tier (`"all"` partitions
    /// them by [`mig_benchgen::LARGE_NAMES`] membership).
    pub suite: String,
}

impl BenchConfig {
    /// Full-suite defaults: every benchmark at effort 4 applied
    /// uniformly to all passes, so a single number describes the run
    /// (the configuration the perf trajectory tracks; note `mighty opt`
    /// instead defaults to effort 2).
    pub fn full() -> Self {
        BenchConfig {
            names: Vec::new(),
            quick: false,
            effort: FULL_EFFORT,
            rounds: 8,
            jobs: 0,
            flow: None,
            opts: RunOptions::default(),
            esat: true,
            suite: "mcnc".into(),
        }
    }

    /// CI defaults: effort 1, biggest circuits skipped.
    pub fn quick() -> Self {
        BenchConfig {
            quick: true,
            effort: 1,
            rounds: 4,
            ..Self::full()
        }
    }
}

/// Mapped-cost record for one benchmark on one cell library: the
/// optimized MIG technology-mapped by `mig_techmap` and verified at the
/// cell-netlist level.
#[derive(Debug, Clone)]
pub struct MappedRecord {
    /// Display name of the library mapped onto.
    pub library: String,
    /// Cell-instance count of the mapped netlist.
    pub cells: usize,
    /// Total cell area in µm².
    pub area: f64,
    /// Critical-path delay in ns.
    pub delay: f64,
    /// Estimated power in µW.
    pub power: f64,
    /// Equivalence of the mapped netlist against the import.
    pub equiv: bool,
}

/// Result of the v6 equality-saturation head-to-head on one benchmark:
/// [`ESAT_FLOW`] against [`ESAT_REF_FLOW`], both from the same import.
#[derive(Debug, Clone)]
pub struct EsatRecord {
    /// Final size of the esat flow.
    pub size: usize,
    /// Final depth of the esat flow.
    pub depth: u32,
    /// Final size of the esat-free reference flow.
    pub ref_size: usize,
    /// Final depth of the esat-free reference flow.
    pub ref_depth: u32,
    /// Optimization wall time of the esat flow (ledger sum, ms).
    pub millis: f64,
    /// Optimization wall time of the reference flow (ledger sum, ms).
    pub ref_millis: f64,
    /// Equivalence of **both** finals against the import.
    pub equiv: bool,
}

/// Memory footprint of one large-tier run, sampled after the flow.
#[derive(Debug, Clone, Copy)]
pub struct MemRecord {
    /// Bytes of the final MIG's node arena (children + levels).
    pub arena_bytes: usize,
    /// Allocated structural-hash slots of the final MIG.
    pub strash_slots: usize,
    /// Bytes of the structural-hash slot array.
    pub strash_bytes: usize,
    /// Cut-cache entries held by the record's rewrite cache.
    pub cache_entries: usize,
    /// Peak resident set size (`VmHWM`) while this record ran, in bytes;
    /// 0 where `/proc/self/status` is unavailable. The high-water mark
    /// is reset to the current resident size before each record, and
    /// each record runs on a fresh context, so an earlier record's
    /// buffers are freed by then; memory the allocator keeps from
    /// earlier records does count. Where the kernel refuses
    /// the reset, this is the process peak so far. Machine- and
    /// run-volatile: excluded from every bit-identity comparison.
    pub peak_rss_bytes: u64,
}

/// Full record for one large-tier circuit: the flow ledger plus the
/// scaling evidence (its memory footprint).
/// Mapping and the esat head-to-head — MCNC-scale comparisons — are
/// deliberately absent.
#[derive(Debug, Clone)]
pub struct LargeRecord {
    /// Circuit name (see `mig_benchgen::LARGE_NAMES`).
    pub name: String,
    /// Primary-input count of the imported circuit.
    pub inputs: usize,
    /// Primary-output count of the imported circuit.
    pub outputs: usize,
    /// Size/depth of the imported (unoptimized) MIG.
    pub import: PassMetrics,
    /// One entry per executed pass, in flow order.
    pub passes: Vec<PassReport>,
    /// Sampled-simulation equivalence of the final result against the
    /// import.
    pub equiv: bool,
    /// Size-monotonicity of the size/rewrite/depth_rewrite passes (same
    /// contract as the MCNC tier).
    pub size_ok: bool,
    /// Memory footprint after the flow.
    pub mem: MemRecord,
    /// Number of degraded (rolled-back / timed-out / skipped) passes.
    pub degraded: usize,
    /// Wall-clock time over all passes (excludes verify).
    pub total_millis: f64,
}

/// Full record for one benchmark circuit.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name (see `mig_benchgen::MCNC_NAMES`).
    pub name: String,
    /// Primary-input count of the imported circuit.
    pub inputs: usize,
    /// Primary-output count of the imported circuit.
    pub outputs: usize,
    /// Metrics of the imported (unoptimized) MIG.
    pub import: PassMetrics,
    /// One entry per executed pass, in flow order.
    pub passes: Vec<PassReport>,
    /// MIG-level equivalence of the final result against the import.
    pub equiv: bool,
    /// True when the size-monotone passes honored their contracts:
    /// every `size`, `rewrite` and `depth_rewrite` execution produced a
    /// graph no larger than its input. (The algebraic depth pass and
    /// the activity pass may trade size for their own metric by design,
    /// so they are not gated on size.)
    pub size_ok: bool,
    /// Mapped cost of the optimized result on the paper's MAJ-capable
    /// `cmos22` library.
    pub mapped: MappedRecord,
    /// Mapped cost on the majority-free control library.
    pub mapped_nomaj: MappedRecord,
    /// The equality-saturation head-to-head (`None` when the run was
    /// configured without it).
    pub esat: Option<EsatRecord>,
    /// Number of passes that did not contribute — rolled back, timed
    /// out, or skipped by the budget (0 on a healthy run).
    pub degraded: usize,
    /// Wall-clock time over all passes (excludes verify and mapping).
    pub total_millis: f64,
}

/// The whole suite run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"full"` or `"quick"`.
    pub mode: &'static str,
    /// Which tiers ran: `"mcnc14"`, `"large4"` or `"mcnc14+large4"`.
    pub suite: String,
    /// The canonical flow script the MCNC tier executed.
    pub flow: String,
    /// The flow script the large tier executed.
    pub large_flow: String,
    /// The uniform per-pass effort.
    pub effort: usize,
    /// Resolved rewrite-engine worker count the run used (the `jobs`
    /// knob with 0 replaced by the machine's available parallelism).
    pub threads: usize,
    /// One record per benchmark, in run order.
    pub benchmarks: Vec<BenchRecord>,
    /// One record per large-tier circuit, in run order (empty unless
    /// the `large` or `all` suite was selected).
    pub large: Vec<LargeRecord>,
}

impl BenchReport {
    /// True when every benchmark (both tiers) verified equivalent — at
    /// MIG level and, for the MCNC tier, for both mapped netlists — and
    /// none grew.
    pub fn all_ok(&self) -> bool {
        self.benchmarks.iter().all(|b| {
            b.equiv
                && b.size_ok
                && b.mapped.equiv
                && b.mapped_nomaj.equiv
                && b.esat.as_ref().is_none_or(|e| e.equiv)
        }) && self.large.iter().all(|l| l.equiv && l.size_ok)
    }

    /// Total optimization wall time over the MCNC benchmarks (the
    /// `totals.millis` field; large-tier wall times live in their own
    /// records so the MCNC totals stay comparable across suite
    /// selections).
    pub fn total_millis(&self) -> f64 {
        self.benchmarks.iter().map(|b| b.total_millis).sum()
    }

    /// Suite mapped area on the MAJ-capable library, in µm².
    pub fn mapped_area(&self) -> f64 {
        self.benchmarks.iter().map(|b| b.mapped.area).sum()
    }

    /// Suite mapped area on the majority-free control library, in µm².
    pub fn mapped_nomaj_area(&self) -> f64 {
        self.benchmarks.iter().map(|b| b.mapped_nomaj.area).sum()
    }

    /// Total number of degraded (rolled-back / timed-out / skipped)
    /// pass executions across both tiers.
    pub fn degraded_passes(&self) -> usize {
        self.benchmarks.iter().map(|b| b.degraded).sum::<usize>()
            + self.large.iter().map(|l| l.degraded).sum::<usize>()
    }

    /// True when any pass anywhere in the suite was degraded — the run
    /// still completed and verified, but not every pass contributed.
    pub fn any_degraded(&self) -> bool {
        self.degraded_passes() > 0
    }

    /// Suite node count of the esat flow's finals (benchmarks that ran
    /// the head-to-head only).
    pub fn esat_size(&self) -> usize {
        self.benchmarks
            .iter()
            .filter_map(|b| b.esat.as_ref())
            .map(|e| e.size)
            .sum()
    }

    /// Suite node count of the reference flow's finals.
    pub fn esat_ref_size(&self) -> usize {
        self.benchmarks
            .iter()
            .filter_map(|b| b.esat.as_ref())
            .map(|e| e.ref_size)
            .sum()
    }

    /// `(wins, ties, losses)` of the esat flow against the reference on
    /// final size, over the benchmarks that ran the head-to-head.
    pub fn esat_score(&self) -> (usize, usize, usize) {
        let mut score = (0, 0, 0);
        for e in self.benchmarks.iter().filter_map(|b| b.esat.as_ref()) {
            match e.size.cmp(&e.ref_size) {
                std::cmp::Ordering::Less => score.0 += 1,
                std::cmp::Ordering::Equal => score.1 += 1,
                std::cmp::Ordering::Greater => score.2 += 1,
            }
        }
        score
    }
}

/// Maps one optimized MIG onto `lib` and verifies the cell netlist
/// against the import network. A panicking mapper forfeits only this
/// record (reported as a zero-cell non-equivalent mapping) instead of
/// aborting the whole suite.
fn map_record(cur: &Mig, net: &Network, lib: &CellLibrary, rounds: usize) -> MappedRecord {
    let (cells, area, delay, power, equiv) = match map_verified(cur, net, lib, rounds) {
        Ok((d, equiv)) => (d.num_cells(), d.area(), d.delay(), d.power(), equiv),
        Err(_) => (0, 0.0, 0.0, 0.0, false),
    };
    MappedRecord {
        library: lib.name.to_string(),
        cells,
        area,
        delay,
        power,
        equiv,
    }
}

/// The ledger summary both tiers record: `(size_ok, total_millis,
/// degraded)`. Size-monotonicity covers the `size`, `rewrite`,
/// `depth_rewrite` and `esat` passes; the algebraic depth pass and the
/// activity pass may trade size for their own metric by design.
fn summarize(passes: &[PassReport]) -> (bool, f64, usize) {
    let size_ok = passes
        .iter()
        .filter(|r| {
            matches!(
                r.pass.as_str(),
                "size" | "rewrite" | "depth_rewrite" | "esat"
            )
        })
        .all(|r| r.after.size <= r.before.size);
    let total_millis = passes.iter().map(|p| p.millis).sum();
    let degraded = passes.iter().filter(|r| r.outcome.degraded()).count();
    (size_ok, total_millis, degraded)
}

/// Generates a named benchmark circuit.
fn generate(name: &str) -> Network {
    mig_benchgen::generate(name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}` (see `mighty list`)"))
}

/// Peak resident set size of this process (`VmHWM`) in bytes; 0 where
/// `/proc/self/status` is unavailable (non-Linux).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resets `VmHWM` to the current resident set size (Linux `clear_refs`
/// code 5), so the next [`peak_rss_bytes`] reading covers only what ran
/// in between. Failure (non-Linux, restricted `/proc`) is ignored.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The tier name lists a configuration resolves to: `(mcnc, large)`.
fn resolve_names(config: &BenchConfig) -> (Vec<String>, Vec<String>) {
    let want_mcnc = matches!(config.suite.as_str(), "mcnc" | "all");
    let want_large = matches!(config.suite.as_str(), "large" | "all");
    assert!(
        want_mcnc || want_large,
        "unknown suite `{}` (known: {})",
        config.suite,
        SUITES.join(", ")
    );
    if !config.names.is_empty() {
        // Explicit names go to the selected tier; `all` partitions by
        // large-tier membership (the tiers' name sets are disjoint).
        let names = config.names.clone();
        return match config.suite.as_str() {
            "mcnc" => (names, Vec::new()),
            "large" => (Vec::new(), names),
            _ => names
                .into_iter()
                .partition(|n| !mig_benchgen::LARGE_NAMES.contains(&n.as_str())),
        };
    }
    let mcnc = if want_mcnc {
        mig_benchgen::MCNC_NAMES
            .iter()
            .filter(|n| !(config.quick && QUICK_SKIP.contains(n)))
            .map(|n| n.to_string())
            .collect()
    } else {
        Vec::new()
    };
    let large = if want_large {
        let pool: &[&str] = if config.quick {
            &LARGE_QUICK
        } else {
            &mig_benchgen::LARGE_NAMES
        };
        pool.iter().map(|n| n.to_string()).collect()
    } else {
        Vec::new()
    };
    (mcnc, large)
}

/// Runs one MCNC circuit through `flow` on the tier's shared context,
/// then maps the result onto both stock libraries and, when `esat`
/// holds the two head-to-head flows, runs them from the same import.
fn run_mcnc(
    name: &str,
    flow: &Flow,
    esat: Option<(&Flow, &Flow)>,
    effort: usize,
    rounds: usize,
    opts: &RunOptions,
    ctx: &mut OptContext,
) -> BenchRecord {
    let net = generate(name);
    let job = optimize(&net, Some(flow), effort, rounds, opts, ctx, |_| {});
    let (size_ok, total_millis, degraded) = summarize(&job.passes);
    let mapped = map_record(&job.result, &net, &CellLibrary::cmos22(), rounds);
    let mapped_nomaj = map_record(&job.result, &net, &CellLibrary::cmos22_no_maj(), rounds);
    let esat = esat.map(|(esat_flow, ref_flow)| {
        let e = optimize(&net, Some(esat_flow), effort, rounds, opts, ctx, |_| {});
        let r = optimize(&net, Some(ref_flow), effort, rounds, opts, ctx, |_| {});
        EsatRecord {
            size: e.result.size(),
            depth: e.result.depth(),
            ref_size: r.result.size(),
            ref_depth: r.result.depth(),
            millis: summarize(&e.passes).1,
            ref_millis: summarize(&r.passes).1,
            equiv: e.mig_equiv(rounds) && r.mig_equiv(rounds),
        }
    });
    BenchRecord {
        name: name.to_string(),
        inputs: job.import.num_inputs(),
        outputs: job.import.num_outputs(),
        import: job.before,
        equiv: job.mig_equiv(rounds),
        passes: job.passes,
        size_ok,
        mapped,
        mapped_nomaj,
        esat,
        degraded,
        total_millis,
    }
}

/// Runs one large-tier circuit through `flow`, collecting the ledger
/// and the memory footprint. Each record runs on a fresh context: the
/// previous record's arena pool and rewrite cache are freed before the
/// peak-RSS reset.
fn run_large(
    name: &str,
    flow: &Flow,
    effort: usize,
    rounds: usize,
    jobs: usize,
    opts: &RunOptions,
) -> LargeRecord {
    reset_peak_rss();
    let net = generate(name);
    let mut ctx = OptContext::with_jobs(jobs);
    let job = optimize(&net, Some(flow), effort, rounds, opts, &mut ctx, |_| {});
    let (size_ok, total_millis, degraded) = summarize(&job.passes);
    let mem = MemRecord {
        arena_bytes: job.result.arena_bytes(),
        strash_slots: job.result.strash_slots(),
        strash_bytes: job.result.strash_bytes(),
        cache_entries: ctx.rewrite_cache_entries(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    LargeRecord {
        name: name.to_string(),
        inputs: job.import.num_inputs(),
        outputs: job.import.num_outputs(),
        import: job.before,
        equiv: job.mig_equiv(rounds),
        passes: job.passes,
        size_ok,
        mem,
        degraded,
        total_millis,
    }
}

/// Runs the configured benchmarks through the flow, timing each pass
/// via the [`OptContext`] ledger and verifying the final result. One
/// context serves the whole MCNC tier, so arenas and rewrite caches are
/// recycled across circuits (wall time only — results are identical to
/// fresh per-circuit contexts); it is dropped before the large tier,
/// whose records each get a fresh one.
///
/// # Panics
///
/// Panics if `config.names` contains an unknown benchmark name,
/// `config.suite` is not one of [`SUITES`], or `config.flow` does not
/// parse (the CLI validates all three up front).
pub fn run_suite(config: &BenchConfig) -> BenchReport {
    let (names, large_names) = resolve_names(config);
    let effort = config.effort.max(1);
    let rounds = config.rounds.max(1);
    let parse =
        |script: &str| Flow::parse(script).unwrap_or_else(|e| panic!("bad flow script: {e}"));
    let flow = parse(config.flow.as_deref().unwrap_or(DEFAULT_FLOW));
    // An explicit --flow drives both tiers; the tiers differ only in
    // their defaults (the large tier's skips the mapping-oriented
    // activity pass and adds the depth-rewrite perturbation).
    let large_flow = parse(config.flow.as_deref().unwrap_or(LARGE_FLOW));
    let esat_flows = (parse(ESAT_FLOW), parse(ESAT_REF_FLOW));
    let esat = config.esat.then_some((&esat_flows.0, &esat_flows.1));
    let threads = resolve_jobs(config.jobs);
    let mut ctx = OptContext::with_jobs(config.jobs);
    let benchmarks: Vec<BenchRecord> = names
        .iter()
        .map(|name| run_mcnc(name, &flow, esat, effort, rounds, &config.opts, &mut ctx))
        .collect();
    drop(ctx);
    let large: Vec<LargeRecord> = large_names
        .iter()
        .map(|name| run_large(name, &large_flow, effort, rounds, config.jobs, &config.opts))
        .collect();
    let suite = match (benchmarks.is_empty(), large.is_empty()) {
        (false, false) => "mcnc14+large4",
        (true, false) => "large4",
        _ => "mcnc14",
    };
    BenchReport {
        mode: if config.quick { "quick" } else { "full" },
        suite: suite.to_string(),
        flow: flow.to_string(),
        large_flow: large_flow.to_string(),
        effort,
        threads,
        benchmarks,
        large,
    }
}

/// Serializes a report in the stable `mig-bench/v8` schema.
///
/// Hand-rolled (the workspace has zero third-party dependencies); all
/// strings in the schema are benchmark names, pass labels and canonical
/// flow scripts, which never need escaping.
pub fn to_json(report: &BenchReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"mig-bench/v8\",");
    let _ = writeln!(s, "  \"suite\": \"{}\",", report.suite);
    let _ = writeln!(s, "  \"mode\": \"{}\",", report.mode);
    let _ = writeln!(s, "  \"flow\": \"{}\",", report.flow);
    let _ = writeln!(s, "  \"esat_flow\": \"{ESAT_FLOW}\",");
    let _ = writeln!(s, "  \"esat_ref_flow\": \"{ESAT_REF_FLOW}\",");
    let _ = writeln!(s, "  \"effort\": {},", report.effort);
    let _ = writeln!(s, "  \"threads\": {},", report.threads);
    s.push_str("  \"benchmarks\": [\n");
    for (i, b) in report.benchmarks.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", b.name);
        let _ = writeln!(s, "      \"inputs\": {},", b.inputs);
        let _ = writeln!(s, "      \"outputs\": {},", b.outputs);
        let _ = writeln!(
            s,
            "      \"import\": {{\"size\": {}, \"depth\": {}, \"activity\": {:.3}}},",
            b.import.size, b.import.depth, b.import.activity
        );
        s.push_str("      \"passes\": [\n");
        for (j, p) in b.passes.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"pass\": \"{}\", \"size\": {}, \"depth\": {}, \
                 \"activity\": {:.3}, \"millis\": {:.2}",
                p.pass, p.after.size, p.after.depth, p.after.activity, p.millis
            );
            // Emitted only for degraded passes, so a healthy run's JSON
            // is byte-identical to the pre-resilience v5 schema (the
            // committed trajectory never needs regenerating).
            if p.outcome.degraded() {
                let _ = write!(s, ", \"outcome\": \"{}\"", p.outcome.name());
            }
            s.push('}');
            s.push_str(if j + 1 < b.passes.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ],\n");
        let _ = writeln!(s, "      \"equiv\": {},", b.equiv);
        let _ = writeln!(s, "      \"size_ok\": {},", b.size_ok);
        for (key, m) in [("mapped", &b.mapped), ("mapped_nomaj", &b.mapped_nomaj)] {
            let _ = writeln!(
                s,
                "      \"{key}\": {{\"library\": \"{}\", \"cells\": {}, \
                 \"area\": {:.3}, \"delay\": {:.4}, \"power\": {:.2}, \
                 \"equiv\": {}}},",
                m.library, m.cells, m.area, m.delay, m.power, m.equiv
            );
        }
        if let Some(e) = &b.esat {
            let _ = writeln!(
                s,
                "      \"esat\": {{\"size\": {}, \"depth\": {}, \
                 \"ref_size\": {}, \"ref_depth\": {}, \"millis\": {:.2}, \
                 \"ref_millis\": {:.2}, \"equiv\": {}}},",
                e.size, e.depth, e.ref_size, e.ref_depth, e.millis, e.ref_millis, e.equiv
            );
        }
        let _ = writeln!(s, "      \"total_millis\": {:.2}", b.total_millis);
        s.push_str("    }");
        s.push_str(if i + 1 < report.benchmarks.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    // The large tier serializes as its own top-level block, which the
    // bit-identity gates leave out (its `peak_rss_bytes` and wall times
    // are machine-volatile).
    if !report.large.is_empty() {
        let _ = writeln!(s, "  \"large_flow\": \"{}\",", report.large_flow);
        s.push_str("  \"large\": [\n");
        for (i, l) in report.large.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"name\": \"{}\",", l.name);
            let _ = writeln!(s, "      \"inputs\": {},", l.inputs);
            let _ = writeln!(s, "      \"outputs\": {},", l.outputs);
            let _ = writeln!(
                s,
                "      \"import\": {{\"size\": {}, \"depth\": {}}},",
                l.import.size, l.import.depth
            );
            s.push_str("      \"passes\": [\n");
            for (j, p) in l.passes.iter().enumerate() {
                let _ = write!(
                    s,
                    "        {{\"pass\": \"{}\", \"size\": {}, \"depth\": {}, \
                     \"millis\": {:.2}",
                    p.pass, p.after.size, p.after.depth, p.millis
                );
                if p.outcome.degraded() {
                    let _ = write!(s, ", \"outcome\": \"{}\"", p.outcome.name());
                }
                s.push('}');
                s.push_str(if j + 1 < l.passes.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ],\n");
            let _ = writeln!(s, "      \"equiv\": {},", l.equiv);
            let _ = writeln!(s, "      \"size_ok\": {},", l.size_ok);
            let _ = writeln!(
                s,
                "      \"mem\": {{\"arena_bytes\": {}, \"strash_slots\": {}, \
                 \"strash_bytes\": {}, \"cache_entries\": {}, \
                 \"peak_rss_bytes\": {}}},",
                l.mem.arena_bytes,
                l.mem.strash_slots,
                l.mem.strash_bytes,
                l.mem.cache_entries,
                l.mem.peak_rss_bytes
            );
            let _ = writeln!(s, "      \"total_millis\": {:.2}", l.total_millis);
            s.push_str("    }");
            s.push_str(if i + 1 < report.large.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
    }
    let size_before: usize = report.benchmarks.iter().map(|b| b.import.size).sum();
    let size_after: usize = report
        .benchmarks
        .iter()
        .map(|b| b.passes.last().map_or(b.import.size, |p| p.after.size))
        .sum();
    let _ = writeln!(s, "  \"totals\": {{");
    let _ = writeln!(s, "    \"benchmarks\": {},", report.benchmarks.len());
    let _ = writeln!(s, "    \"millis\": {:.2},", report.total_millis());
    let _ = writeln!(s, "    \"size_before\": {size_before},");
    let _ = writeln!(s, "    \"size_after\": {size_after},");
    let _ = writeln!(s, "    \"mapped_area\": {:.3},", report.mapped_area());
    let _ = writeln!(
        s,
        "    \"mapped_nomaj_area\": {:.3},",
        report.mapped_nomaj_area()
    );
    if report.benchmarks.iter().any(|b| b.esat.is_some()) {
        let _ = writeln!(s, "    \"esat_size\": {},", report.esat_size());
        let _ = writeln!(s, "    \"esat_ref_size\": {},", report.esat_ref_size());
    }
    let _ = writeln!(s, "    \"all_ok\": {}", report.all_ok());
    s.push_str("  }\n}\n");
    s
}

fn render_large_lines(s: &mut String, report: &BenchReport) {
    for l in &report.large {
        let _ = writeln!(
            s,
            "large {:<9} {:>8} nodes → {:>8} · depth {:>5} → {:>5} · {:>8.0} ms · \
             peak RSS {:.0} MiB · {}",
            l.name,
            l.import.size,
            l.passes.last().map_or(l.import.size, |p| p.after.size),
            l.import.depth,
            l.passes.last().map_or(l.import.depth, |p| p.after.depth),
            l.total_millis,
            l.mem.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            if l.equiv && l.size_ok { "PASS" } else { "FAIL" }
        );
    }
}

/// Human-readable per-pass table for the CLI.
pub fn render_table(report: &BenchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "mighty bench · mode={} · flow \"{}\" · effort={} · threads={}",
        report.mode, report.flow, report.effort, report.threads
    );
    let verdict = if report.all_ok() {
        "all PASS"
    } else {
        "FAILURES PRESENT"
    };
    // A large-only run has no MCNC rows, mapped areas or esat lines —
    // skip the per-pass column grid entirely instead of printing empty
    // headers and a zero-benchmark totals line.
    if report.benchmarks.is_empty() {
        render_large_lines(&mut s, report);
        let _ = writeln!(
            s,
            "total: {} large benchmark(s) · {verdict}",
            report.large.len()
        );
    } else {
        render_grid(&mut s, report);
        render_large_lines(&mut s, report);
        let _ = writeln!(
            s,
            "total: {} benchmarks · {:.1} ms optimization · mapped {:.1}/{:.1} µm² (cmos22/nomaj) · {verdict}",
            report.benchmarks.len(),
            report.total_millis(),
            report.mapped_area(),
            report.mapped_nomaj_area(),
        );
    }
    if report.benchmarks.iter().any(|b| b.esat.is_some()) {
        let (wins, ties, losses) = report.esat_score();
        let _ = writeln!(
            s,
            "esat head-to-head: suite size {} vs reference {} · {wins} win(s), \
             {ties} tie(s), {losses} loss(es) on final size",
            report.esat_size(),
            report.esat_ref_size(),
        );
    }
    if report.any_degraded() {
        let _ = writeln!(
            s,
            "degraded: {} pass execution(s) rolled back, timed out or skipped",
            report.degraded_passes()
        );
    }
    s
}

/// The MCNC tier's per-pass column grid, one row per benchmark.
fn render_grid(s: &mut String, report: &BenchReport) {
    // Column headers come from the longest pass list: flows execute the
    // same steps everywhere, but a converge marker can stop earlier on
    // some circuits, so shorter rows are aligned below by matching pass
    // names against these headers.
    let widest = report
        .benchmarks
        .iter()
        .max_by_key(|b| b.passes.len())
        .map(|b| b.passes.as_slice())
        .unwrap_or(&[]);
    let _ = write!(s, "{:<10} {:>7} {:>6} |", "", "import", "");
    for p in widest {
        let _ = write!(s, " {:^23} |", format!("{} pass", p.pass));
    }
    let _ = writeln!(s, " {:^19} |", "mapped µm²");
    let _ = write!(s, "{:<10} {:>7} {:>6} |", "bench", "size", "depth");
    for _ in widest {
        let _ = write!(s, " {:>7} {:>6} {:>8} |", "size", "depth", "ms");
    }
    let _ = writeln!(s, " {:>9} {:>9} | {:>6}", "cmos22", "nomaj", "equiv");
    for b in &report.benchmarks {
        let _ = write!(
            s,
            "{:<10} {:>7} {:>6} |",
            b.name, b.import.size, b.import.depth
        );
        // Walk the header slots, consuming this circuit's passes
        // greedily by name: a circuit whose converge marker stopped
        // earlier leaves the rest of that step's slots blank instead of
        // shifting later passes under the wrong header.
        let mut next = b.passes.iter().peekable();
        for header in widest {
            match next.peek() {
                Some(p) if p.pass == header.pass => {
                    let p = next.next().expect("peeked");
                    let _ = write!(
                        s,
                        " {:>7} {:>6} {:>8.1} |",
                        p.after.size, p.after.depth, p.millis
                    );
                }
                _ => {
                    let _ = write!(s, " {:>7} {:>6} {:>8} |", "", "", "");
                }
            }
        }
        let _ = writeln!(
            s,
            " {:>9.3} {:>9.3} | {:>6}",
            b.mapped.area,
            b.mapped_nomaj.area,
            if b.equiv && b.size_ok && b.mapped.equiv && b.mapped_nomaj.equiv {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
}
