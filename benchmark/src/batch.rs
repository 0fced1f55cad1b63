//! The batch workloads. Three job groups — `mcnc_table1`,
//! `esat_saturate` and `large_datapath` — each run alone under their own
//! name, or all together as the `batch` workload. Each job is one
//! `mighty map` or `mighty opt` run on Verilog text: parse → optimize →
//! verify → export → write.
//!
//! Untraced jobs call the suite's one-shot entry points
//! (`run_map_with`, `run_flow_with`). Traced jobs make the same calls
//! those entry points make, one public function at a time, stepping
//! `OptContext::run_pass` for every pass, with a span around each call.
//! Both produce byte-identical output, which the run checks.

use std::collections::BTreeMap;
use std::time::Instant;

use mig_core::opt::pipeline::CONVERGE_CAP;
use mig_core::{Flow, Mig, OptContext, PassKind, PassMetrics, Repeat};
use mig_mighty::{run_flow_with, run_map_with, RunOptions};
use mig_netlist::{parse_verilog, write_verilog, Network, SplitMix64};
use mig_techmap::{map_mig, CellLibrary, MapConfig, TechMapper};

use crate::inputs::{self, Input};
use crate::report::{fnv1a, median, peak_rss_mib, Failures, Measured, Row};
use crate::trace::Tracer;

/// Random-simulation rounds of every equivalence check (the CLI default).
pub const EQUIV_ROUNDS: usize = 32;
/// The technology library of the `mighty map` path.
pub const LIBRARY: &str = "cmos22";
/// Seed of the benchmark's own equivalence checks, distinct from the one
/// the suite uses internally, so they test other patterns.
const CHECK_SEED: u64 = 0xBE7C_4A11;

/// Which CLI path a job takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `mighty map`: optimize, then map onto [`LIBRARY`] and write the
    /// mapped netlist.
    Map,
    /// `mighty opt`: optimize and write the optimized netlist.
    Opt,
}

/// A group of jobs that share one CLI path and flow.
pub struct Group {
    pub name: &'static str,
    pub path: Path,
    pub flow: &'static str,
    pub effort: usize,
    /// Rough wall time of one pass over the group on a 2-vCPU machine;
    /// fixes how many rounds `--seconds` buys, so both sides of a
    /// comparison do the same work.
    pub nominal_s: f64,
    pub inputs: fn(u64) -> Vec<Input>,
}

/// The batch job groups, in run order.
pub const GROUPS: [Group; 3] = [
    Group {
        name: "mcnc_table1",
        path: Path::Map,
        flow: "size; rewrite; depth; activity",
        effort: 4,
        nominal_s: 10.0,
        inputs: inputs::mcnc,
    },
    Group {
        name: "esat_saturate",
        path: Path::Opt,
        flow: "size; rewrite*; depth_rewrite; rewrite*; size; esat*; rewrite*; size",
        effort: 4,
        nominal_s: 14.0,
        inputs: inputs::mcnc,
    },
    Group {
        name: "large_datapath",
        path: Path::Opt,
        flow: "size*2; rewrite; depth_rewrite; depth",
        effort: 4,
        nominal_s: 10.0,
        inputs: inputs::large,
    },
];

/// A batch workload: the jobs of one group, or of every group (`batch`).
pub struct Batch {
    /// Each job's group and input, in run order.
    pub jobs: Vec<(&'static Group, Input)>,
}

impl Batch {
    pub fn new(workload: &str, seed: u64) -> Option<Batch> {
        let groups: Vec<&'static Group> = match workload {
            "batch" => GROUPS.iter().collect(),
            name => vec![GROUPS.iter().find(|g| g.name == name)?],
        };
        let jobs = groups
            .into_iter()
            .flat_map(|g| (g.inputs)(seed).into_iter().map(move |input| (g, input)))
            .collect();
        Some(Batch { jobs })
    }
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobOutput {
    pub secs: f64,
    /// The written Verilog (the mapped netlist on the map path).
    pub text: String,
    /// Size, depth and activity of the imported, unoptimized MIG.
    pub before: PassMetrics,
    pub size: usize,
    pub depth: u32,
    pub activity: f64,
    /// Mapped area and delay on the map path.
    pub mapped: Option<(f64, f64)>,
    /// The suite's own verdicts held and no pass degraded.
    pub verified: bool,
}

/// Runs one job: parses its Verilog text, then [`run_parsed`].
pub fn run_job(path: Path, flow: &Flow, effort: usize, input: &Input) -> Result<JobOutput, String> {
    let start = Instant::now();
    let net = parse_verilog(&input.verilog).map_err(|e| format!("{}: {e}", input.name))?;
    let mut out = run_parsed(path, flow, effort, &net)?;
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Optimizes a parsed network through the suite's one-shot entry point
/// for `path` and writes the result (`secs` is left 0).
pub fn run_parsed(
    path: Path,
    flow: &Flow,
    effort: usize,
    net: &Network,
) -> Result<JobOutput, String> {
    let opts = RunOptions::default();
    Ok(match path {
        Path::Map => {
            let o = run_map_with(net, LIBRARY, Some(flow), effort, EQUIV_ROUNDS, 1, &opts)?;
            JobOutput {
                secs: 0.0,
                text: write_verilog(&o.design.to_network()),
                before: o.before,
                size: o.after.size,
                depth: o.after.depth,
                activity: o.after.activity,
                mapped: Some((o.mapped.area, o.mapped.delay)),
                verified: o.mig_equiv && o.map_equiv && !o.degraded,
            }
        }
        Path::Opt => {
            let o = run_flow_with(net, flow, effort, EQUIV_ROUNDS, 1, &opts);
            JobOutput {
                secs: 0.0,
                text: write_verilog(&o.optimized),
                before: o.before,
                size: o.after.size,
                depth: o.after.depth,
                activity: o.after.activity,
                mapped: None,
                verified: o.mig_equiv && o.net_equiv && !o.degraded,
            }
        }
    })
}

/// The span name of a pass.
fn pass_span(kind: PassKind) -> &'static str {
    match kind {
        PassKind::Size => "core.size",
        PassKind::Depth => "core.depth",
        PassKind::Activity => "core.activity",
        PassKind::Rewrite => "core.rewrite",
        PassKind::DepthRewrite => "core.depth_rewrite",
        PassKind::Esat => "core.esat",
        PassKind::DepthEsat => "core.depth_esat",
        PassKind::MapArea => "core.map_area",
        PassKind::MapDelay => "core.map_delay",
    }
}

/// Steps every pass of `flow` through `ctx.run_pass`, as `Flow::run`
/// does, with one span per pass execution and the per-pass counters.
fn step_flow(flow: &Flow, effort: usize, ctx: &mut OptContext, mig: Mig, tr: &mut Tracer) -> Mig {
    ctx.begin_run();
    let mut cur = mig;
    for step in &flow.steps {
        let pass = step.pass.build(effort);
        let name = pass_span(step.pass);
        let (runs, converge) = match step.repeat {
            Repeat::Times(n) => (n, false),
            Repeat::Converge => (CONVERGE_CAP, true),
        };
        for _ in 0..runs {
            let id = tr.open(name);
            cur = ctx.run_pass(&*pass, cur);
            tr.close(id);
            let span = &tr.spans()[id];
            let secs = (span.end_ns - span.start_ns) as f64 * 1e-9;
            let report = ctx
                .ledger()
                .last()
                .expect("run_pass appends a ledger entry");
            let (before, after) = (report.before, report.after);
            tr.count(&format!("{name}_runs"), 1.0);
            tr.count(
                &format!("{name}_nodes_removed"),
                before.size as f64 - after.size as f64,
            );
            if before.size == after.size && before.depth == after.depth {
                tr.count(&format!("{name}_noop_runs"), 1.0);
                tr.count(&format!("{name}_noop_s"), secs);
            }
            let levels = tr.scope("core.level", || ctx.take_level_stats());
            tr.count(
                "core.level.incremental_repairs",
                levels.incremental_repairs as f64,
            );
            tr.count("core.level.repaired_nodes", levels.repaired_nodes as f64);
            tr.count("core.level.global_rebuilds", levels.global_rebuilds as f64);
            if converge && !pass.improved(&before, &after) {
                break;
            }
        }
    }
    cur
}

/// Runs one job call by call, as `run_map_with` / `run_flow_with` do,
/// with a span around each call into the suite.
pub fn run_job_traced(
    path: Path,
    flow: &Flow,
    effort: usize,
    input: &Input,
    tr: &mut Tracer,
) -> Result<JobOutput, String> {
    let start = Instant::now();
    let root = tr.open("job");
    let out = traced_body(path, flow, effort, input, tr);
    tr.close(root);
    let mut out = out?;
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

fn traced_body(
    path: Path,
    flow: &Flow,
    effort: usize,
    input: &Input,
    tr: &mut Tracer,
) -> Result<JobOutput, String> {
    let net = tr
        .scope("netlist.parse", || parse_verilog(&input.verilog))
        .map_err(|e| format!("{}: {e}", input.name))?;
    tr.count("netlist.parse_bytes", input.verilog.len() as f64);
    let mig = tr.scope("core.import", || Mig::from_network(&net));
    let before = tr.scope("core.metrics", || PassMetrics::of(&mig));
    let mut ctx = OptContext::with_jobs(1);
    let lib = CellLibrary::by_name(LIBRARY).expect("stock library");
    if path == Path::Map {
        ctx.set_tech(Box::new(TechMapper::new(lib.clone())));
    }
    let cleaned = tr.scope("core.import", || mig.cleanup());
    tr.count("core.import_nodes", cleaned.size() as f64);
    let _ = tr.scope("core.metrics", || PassMetrics::of(&cleaned) != before);
    let cur = step_flow(flow, effort, &mut ctx, cleaned, tr);
    let degraded = ctx.take_ledger().iter().any(|s| s.outcome.degraded());
    tr.count("core.arena_bytes", cur.arena_bytes() as f64);
    tr.count("core.strash_bytes", cur.strash_bytes() as f64);
    tr.count(
        "core.rewrite_cache_entries",
        ctx.rewrite_cache_entries() as f64,
    );
    match path {
        Path::Map => {
            let (design, area, delay) = tr.scope("techmap.map", || {
                let design = map_mig(&cur, &lib, &MapConfig::default());
                let (area, delay) = (design.area(), design.delay());
                let _ = (design.power(), design.num_cells());
                (design, area, delay)
            });
            tr.count("techmap.cells", design.num_cells() as f64);
            let after = tr.scope("core.metrics", || PassMetrics::of(&cur));
            let mig_equiv = tr.scope("core.equiv", || cur.equiv(&mig, EQUIV_ROUNDS));
            let mapped = tr.scope("techmap.export", || design.to_network());
            let map_equiv = tr.scope("sim.map_equiv", || {
                mig_sim::equivalent(&net, &mapped, EQUIV_ROUNDS)
            });
            // The job then writes the mapped netlist, exporting it again
            // as the one-shot path does.
            let mapped = tr.scope("techmap.export", || design.to_network());
            let text = tr.scope("netlist.write", || write_verilog(&mapped));
            tr.count("netlist.write_bytes", text.len() as f64);
            Ok(JobOutput {
                secs: 0.0,
                text,
                before,
                size: after.size,
                depth: after.depth,
                activity: after.activity,
                mapped: Some((area, delay)),
                verified: mig_equiv && map_equiv && !degraded,
            })
        }
        Path::Opt => {
            let after = tr.scope("core.metrics", || PassMetrics::of(&cur));
            let mig_equiv = tr.scope("core.equiv", || cur.equiv(&mig, EQUIV_ROUNDS));
            let optimized = tr.scope("core.export", || cur.to_network());
            let net_equiv = tr.scope("sim.equiv", || {
                mig_sim::equivalent(&net, &optimized, EQUIV_ROUNDS)
            });
            let text = tr.scope("netlist.write", || write_verilog(&optimized));
            tr.count("netlist.write_bytes", text.len() as f64);
            Ok(JobOutput {
                secs: 0.0,
                text,
                before,
                size: after.size,
                depth: after.depth,
                activity: after.activity,
                mapped: None,
                verified: mig_equiv && net_equiv && !degraded,
            })
        }
    }
}

/// Equivalence of a written result against the generated input, checked
/// by the benchmark itself: both texts are parsed afresh, interfaces are
/// compared, and the random half uses the benchmark's own seed.
pub fn independent_check(input: &str, output: &str) -> Result<Network, String> {
    let a = parse_verilog(input).map_err(|e| format!("input does not parse: {e}"))?;
    let b = parse_verilog(output).map_err(|e| format!("output does not parse: {e}"))?;
    if (a.num_inputs(), a.num_outputs()) != (b.num_inputs(), b.num_outputs()) {
        return Err("output interface differs from the input's".to_string());
    }
    let same = if a.num_inputs() <= 16 {
        mig_sim::equivalent_exhaustive(&a, &b)
    } else {
        mig_sim::equivalent_seeded(&a, &b, EQUIV_ROUNDS, CHECK_SEED)
    };
    if same {
        Ok(b)
    } else {
        Err("output is not equivalent to the input".to_string())
    }
}

/// Mapped area and delay of a written (optimized) netlist on [`LIBRARY`].
pub fn mapped_cost(net: &Network) -> (f64, f64) {
    let lib = CellLibrary::shared_by_name(LIBRARY).expect("stock library");
    let design = map_mig(&Mig::from_network(net), &lib, &MapConfig::default());
    (design.area(), design.delay())
}

/// The [`gauge_s`] median on the 2-vCPU machine the bounds in
/// `BENCHMARK.json` were set on.
const GAUGE_REF_S: f64 = 0.016;

/// Seconds of a fixed computation that only the benchmark runs: inserts
/// and lookups of random keys in an 8 MiB open-addressing table, which is
/// bound by cache and memory like the suite's graph code. Run between
/// jobs, it measures how fast the machine is at that moment. On a shared
/// machine that speed drifts by up to a third for tens of seconds at a
/// time, slowing every job of a run alike.
fn gauge_s() -> f64 {
    const SLOTS: usize = 1 << 20;
    let start = Instant::now();
    let mut table = vec![0u64; SLOTS];
    let mut rng = SplitMix64::seed_from_u64(0x6A09_E667);
    for _ in 0..SLOTS / 2 {
        let key = rng.next_u64() | 1;
        let mut i = (key as usize) & (SLOTS - 1);
        while table[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        table[i] = key;
    }
    let mut rng = SplitMix64::seed_from_u64(0x6A09_E667);
    let mut steps = 0u64;
    for _ in 0..SLOTS / 2 {
        let key = rng.next_u64() | 1;
        let mut i = (key as usize) & (SLOTS - 1);
        while table[i] != key {
            i = (i + 1) & (SLOTS - 1);
            steps += 1;
        }
    }
    std::hint::black_box(steps);
    start.elapsed().as_secs_f64()
}

/// Runs a batch workload: a fixed number of rounds over its jobs (set by
/// `seconds`), then the independent checks. An untraced run with a
/// single round runs the jobs of its first group a second time, so the
/// determinism check always compares two runs of some jobs. A traced run
/// first makes one untraced round as the reference for output hashes and
/// for the tracing overhead. `after_job` runs after every job, outside
/// its timing, and so does [`gauge_s`]: `job_s` is the jobs' wall time
/// scaled by the run's median gauge to the speed the machine had when
/// the bounds were set, which takes out most of that drift.
pub fn run(
    batch: &Batch,
    seconds: f64,
    trace: Option<&mut Tracer>,
    after_job: &mut dyn FnMut(),
) -> Measured {
    let flows: Vec<Flow> = batch
        .jobs
        .iter()
        .map(|(g, _)| Flow::parse(g.flow).expect("group flow parses"))
        .collect();
    let mut groups: Vec<&Group> = batch.jobs.iter().map(|(g, _)| *g).collect();
    groups.dedup_by_key(|g| g.name);
    let nominal_round_s: f64 = groups.iter().map(|g| g.nominal_s).sum();
    let rounds = ((seconds / nominal_round_s).round() as usize).max(1);
    let jobs = batch.jobs.len();
    let run_untraced = |j: usize| {
        let (g, input) = &batch.jobs[j];
        run_job(g.path, &flows[j], g.effort, input)
    };
    let mut fails = Failures::default();
    let mut first: Vec<Option<JobOutput>> = vec![None; jobs];
    let mut job_secs: Vec<Vec<f64>> = vec![Vec::new(); jobs];
    let mut round_secs: Vec<f64> = Vec::new();
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    let mut attempted = 0u64;

    let mut gauges = vec![gauge_s()];
    let mut record = |j: usize, out: Result<JobOutput, String>, fails: &mut Failures| -> f64 {
        after_job();
        gauges.push(gauge_s());
        let name = format!("{}/{}", batch.jobs[j].0.name, batch.jobs[j].1.name);
        match out {
            Err(e) => {
                fails.add(format!("{name}: job failed: {e}"));
                0.0
            }
            Ok(o) => {
                if !o.verified {
                    fails.add(format!(
                        "{name}: the suite's verdicts failed or a pass degraded"
                    ));
                }
                let secs = o.secs;
                match &first[j] {
                    None => first[j] = Some(o),
                    Some(f) => {
                        if f.text != o.text {
                            fails.add(format!("{name}: output differs between rounds"));
                        }
                        if (f.size, f.depth, f.activity, f.mapped)
                            != (o.size, o.depth, o.activity, o.mapped)
                        {
                            fails.add(format!("{name}: metrics differ between rounds"));
                        }
                    }
                }
                secs
            }
        }
    };

    match trace {
        None => {
            for _ in 0..rounds {
                let mut total = 0.0;
                for (j, times) in job_secs.iter_mut().enumerate() {
                    attempted += 1;
                    let secs = record(j, run_untraced(j), &mut fails);
                    times.push(secs);
                    total += secs;
                }
                round_secs.push(total);
            }
            if rounds == 1 {
                let repeated = groups[0].name;
                let mut total = 0.0;
                for (j, times) in job_secs.iter_mut().enumerate() {
                    if batch.jobs[j].0.name == repeated {
                        attempted += 1;
                        let secs = record(j, run_untraced(j), &mut fails);
                        times.push(secs);
                        total += secs;
                    }
                }
                notes.push(format!(
                    "determinism repeat of group {repeated}: {total:.4} s"
                ));
            }
        }
        Some(tr) => {
            let mut untraced_s = 0.0;
            for j in 0..jobs {
                attempted += 1;
                untraced_s += record(j, run_untraced(j), &mut fails);
            }
            for r in 0..rounds {
                let mut total = 0.0;
                for (j, (g, input)) in batch.jobs.iter().enumerate() {
                    attempted += 1;
                    tr.set_job((r * jobs + j) as u64);
                    let out = run_job_traced(g.path, &flows[j], g.effort, input, tr);
                    let secs = record(j, out, &mut fails);
                    job_secs[j].push(secs);
                    total += secs;
                }
                round_secs.push(total);
            }
            layers = traced_layers(tr, &round_secs, &job_secs, untraced_s);
        }
    }
    let mut m = Measured::new(jobs, rounds);
    m.peak_rss_mb = peak_rss_mib();
    m.notes = notes;

    // Independent checks of the written outputs, and the quality rows.
    let checks_start = Instant::now();
    for (j, out) in first.iter().enumerate() {
        let (group, input) = &batch.jobs[j];
        let Some(out) = out else { continue };
        attempted += 1;
        match independent_check(&input.verilog, &out.text) {
            Err(e) => fails.add(format!("{}/{}: {e}", group.name, input.name)),
            Ok(written) => {
                let (area, delay) = out.mapped.unwrap_or_else(|| mapped_cost(&written));
                m.rows.push(Row {
                    group: group.name,
                    circuit: input.name.clone(),
                    job_s: median(&job_secs[j]),
                    input: out.before,
                    size: out.size,
                    depth: out.depth,
                    activity: out.activity,
                    area,
                    delay,
                    hash: fnv1a(out.text.as_bytes()),
                });
            }
        }
    }
    m.notes.push(format!(
        "independent checks and quality rows: {:.3} s",
        checks_start.elapsed().as_secs_f64()
    ));
    m.attempted = attempted;
    m.failures = fails;
    m.round_s = round_secs;
    m.latencies_s = job_secs.iter().map(|t| median(t)).collect();
    let wall_s: f64 = m.latencies_s.iter().sum();
    let gauge = median(&gauges);
    m.job_s = wall_s * GAUGE_REF_S / gauge;
    m.notes.push(format!(
        "job wall time {wall_s:.4} s; gauge median {:.3} ms over {} samples (reference {:.1} ms)",
        gauge * 1e3,
        gauges.len(),
        GAUGE_REF_S * 1e3
    ));
    for g in &groups {
        let group_s: f64 = (0..jobs)
            .filter(|&j| batch.jobs[j].0.name == g.name)
            .map(|j| m.latencies_s[j])
            .sum();
        m.notes
            .push(format!("group {}: job wall time {group_s:.4} s", g.name));
    }
    m.layers = layers;
    m
}

/// Per-layer metrics of the traced rounds, per round, plus the tracing
/// overhead against the untraced reference round and the share of the
/// traced job time the layers' self times account for.
fn traced_layers(
    tr: &Tracer,
    round_secs: &[f64],
    job_secs: &[Vec<f64>],
    untraced_s: f64,
) -> BTreeMap<String, f64> {
    let rounds = round_secs.len() as f64;
    let mut layers = tr.layer_metrics(rounds);
    let glue = layers.remove("job_s").unwrap_or(0.0);
    let attributed: f64 = layers
        .iter()
        .filter(|(k, _)| k.ends_with("_s") && !k.ends_with("_noop_s"))
        .map(|(_, v)| v)
        .sum();
    let traced_mean = round_secs.iter().sum::<f64>() / rounds;
    let traced: f64 = job_secs.iter().map(|t| median(t)).sum();
    layers.insert("trace.unattributed_s".into(), glue);
    layers.insert("trace.accounted_ratio".into(), attributed / traced_mean);
    layers.insert("trace.job_s".into(), traced);
    layers.insert("trace.untraced_job_s".into(), untraced_s);
    layers.insert("trace.overhead_s".into(), traced - untraced_s);
    layers
}
