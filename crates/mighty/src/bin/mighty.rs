//! `mighty` — command-line driver for the MIG suite.
//!
//! ```text
//! mighty opt [INPUT] [--target size|depth|activity|all] [--rewrite]
//!            [--flow SCRIPT] [--effort N] [--rounds N] [--jobs N] [-o FILE]
//! mighty map [INPUT] [--lib cmos22|cmos22_no_maj] [--flow SCRIPT]
//!            [--effort N] [--rounds N] [--jobs N] [-o FILE]
//! mighty bench [BENCH]... [--quick] [--flow SCRIPT] [--effort N]
//!              [--rounds N] [--jobs N] [-o FILE]
//! mighty serve [--listen ADDR] [--workers N] [--cache N] [--drain-ms N]
//! mighty serve --bench [--quick] [--clients N] [--workers N]
//!              [--flow SCRIPT] [--effort N] [-o FILE]
//! mighty stats [INPUT]...
//! mighty gen BENCH [-o FILE]
//! mighty equiv A B [--rounds N]
//! mighty list
//! ```
//!
//! `INPUT` is a benchmark name from `mighty list` or a structural-Verilog
//! file path; `-o -` writes Verilog to stdout.

use std::process::ExitCode;

use mig_core::Flow;
use mig_mighty::{
    bench, emit_verilog, load_input, render_map_report, render_report, run_flow_with, run_map_with,
    target_flow, RunOptions,
};

/// Exit code: success (equivalence verified, no degraded stages).
const EXIT_OK: u8 = 0;
/// Exit code: unexpected failure (I/O, internal error).
const EXIT_FAILURE: u8 = 1;
/// Exit code: usage error — unknown command, bad flag or argument.
const EXIT_USAGE: u8 = 2;
/// Exit code: the input could not be loaded or parsed.
const EXIT_INPUT: u8 = 3;
/// Exit code: an equivalence check failed (or a bench regression).
const EXIT_EQUIV: u8 = 4;
/// Exit code: the run completed degraded — a budget was exceeded or a
/// pass was rolled back/skipped; the emitted netlist is still valid and
/// equivalence-verified.
const EXIT_DEGRADED: u8 = 5;

/// An error annotated with the exit code it should produce.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Self {
        Failure {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn input(message: impl Into<String>) -> Self {
        Failure {
            code: EXIT_INPUT,
            message: message.into(),
        }
    }

    fn generic(message: impl Into<String>) -> Self {
        Failure {
            code: EXIT_FAILURE,
            message: message.into(),
        }
    }
}

const USAGE: &str = "mighty — Majority-Inverter Graph optimization driver

USAGE:
    mighty opt [INPUT] [--target size|depth|activity|all] [--rewrite]
               [--flow SCRIPT] [--effort N] [--rounds N] [--jobs N] [-o FILE]
                                        optimize, verify, report (default
                                        INPUT: my_adder, target: all);
                                        --rewrite adds the cut-based Boolean
                                        rewriting pass after the size stage;
                                        --flow runs an arbitrary pass script
                                        instead of a target, e.g.
                                        size*2; rewrite; depth_rewrite
                                        (passes: size, depth, activity,
                                        rewrite, depth_rewrite, esat,
                                        depth_esat, map_area, map_delay;
                                        pass*N repeats,
                                        a bare pass* converges);
                                        --jobs sets the rewriting engine's
                                        evaluate-phase worker threads
                                        (default: all cores; results are
                                        identical for any value)
    mighty map [INPUT] [--lib cmos22|cmos22_no_maj] [--flow SCRIPT]
               [--effort N] [--rounds N] [--jobs N] [-o FILE]
                                        technology-map onto a standard-cell
                                        library (default lib: cmos22) and
                                        report mapped area/delay/power; an
                                        optional --flow optimizes first with
                                        the library installed as the flow's
                                        tech model (so map_area/map_delay
                                        steps minimize real mapped cost);
                                        -o writes the mapped netlist as
                                        structural Verilog
    mighty bench [BENCH]... [--suite mcnc|large|all] [--quick]
                 [--flow SCRIPT] [--effort N]
                 [--rounds N] [--jobs N] [-o FILE]
                                        timed pass sweep over the selected
                                        suite (default: mcnc; the large tier
                                        runs 100k-1M-node circuits through
                                        size*2; rewrite; depth_rewrite; depth
                                        and records memory footprint plus
                                        level-maintenance counters; --quick
                                        keeps only mul_100k of the tier);
                                        writes the mig-bench/v8 JSON perf
                                        trajectory with mapped
                                        area/delay/power on both stock
                                        libraries (default FILE:
                                        BENCH_opt.json); exits nonzero on any
                                        equivalence failure or size
                                        regression
    mighty serve [--listen ADDR] [--workers N] [--cache N] [--drain-ms N]
                                        long-running optimization service:
                                        line-delimited JSON jobs over TCP
                                        (default ADDR 127.0.0.1:7171, port 0
                                        picks a free one; default workers:
                                        all cores), executed on a fixed
                                        worker pool with persistent contexts
                                        and a bounded LRU result cache
                                        (--cache entries, 0 disables);
                                        SIGTERM/ctrl-c or {\"op\":\"shutdown\"}
                                        drains in-flight jobs within
                                        --drain-ms and exits 0
    mighty serve --bench [--quick] [--clients N] [--workers N]
                 [--flow SCRIPT] [--effort N] [-o FILE]
                                        load generator: sweeps the worker
                                        pool over {1, 2, 4} (or just
                                        --workers N), measures jobs/sec and
                                        p50/p95/p99 latency, verifies every
                                        response and checks it bit-identical
                                        to a local `mighty opt`; splices the
                                        sweep into FILE's serve block
                                        (default: BENCH_opt.json)
    mighty stats [INPUT]...             print circuit statistics
    mighty gen BENCH [-o FILE]          emit a generated benchmark as Verilog
    mighty gen --list                   list every generatable circuit (MCNC
                                        and large tier)
    mighty equiv A B [--rounds N]       check two circuits for equivalence
    mighty list                         list the generated MCNC benchmarks,
                                        the large tier and the stock cell
                                        libraries
    mighty help, mighty COMMAND --help  show this message (also -h)

RESILIENCE (opt, map, bench):
    --timeout-ms N                      wall-clock budget for the whole flow;
                                        passes whose turn comes after the
                                        deadline are skipped (recorded in the
                                        ledger, run still completes)
    --pass-timeout-ms N                 per-pass timeout; an overrunning pass
                                        is rolled back to its checkpoint
    --max-nodes N                       roll back any pass whose output grows
                                        past N majority nodes
    --selfcheck                         simulation spot check after every
                                        pass; a pass whose result is not
                                        equivalent to its input is rolled
                                        back. A panicking pass is always
                                        rolled back, flags or not.

EXIT CODES:
    0   success
    1   unexpected failure
    2   usage error (bad command, flag, or argument)
    3   input could not be loaded or parsed
    4   equivalence check failed (or bench regression)
    5   degraded completion: budget exceeded or passes rolled back/skipped
        (result still valid and equivalence-verified)

INPUT is a benchmark name (see `mighty list`) or a Verilog file path.";

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    target: Option<String>,
    flow: Option<String>,
    effort: Option<usize>,
    rounds: Option<usize>,
    jobs: Option<usize>,
    output: Option<String>,
    lib: Option<String>,
    suite: Option<String>,
    quick: bool,
    rewrite: bool,
    list: bool,
    timeout_ms: Option<u64>,
    pass_timeout_ms: Option<u64>,
    max_nodes: Option<usize>,
    selfcheck: bool,
    listen: Option<String>,
    workers: Option<usize>,
    cache: Option<usize>,
    drain_ms: Option<u64>,
    bench_load: bool,
    clients: Option<usize>,
    help: bool,
}

impl Args {
    fn run_options(&self) -> RunOptions {
        RunOptions {
            timeout_ms: self.timeout_ms,
            pass_timeout_ms: self.pass_timeout_ms,
            max_nodes: self.max_nodes,
            selfcheck: self.selfcheck,
        }
    }
}

/// Parses the value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--target" | "-t" => {
                let target = value(a)?;
                target_flow(&target, false)?;
                args.target = Some(target);
            }
            "--flow" | "-f" => args.flow = Some(value(a)?),
            "--effort" | "-e" => args.effort = Some(number("--effort", value(a)?)?),
            "--quick" | "-q" => args.quick = true,
            "--rewrite" | "-w" => args.rewrite = true,
            "--jobs" | "-j" => args.jobs = Some(number("--jobs", value(a)?)?),
            "--rounds" | "-r" => args.rounds = Some(number::<usize>("--rounds", value(a)?)?.max(1)),
            "--output" | "-o" => args.output = Some(value(a)?),
            "--suite" | "-s" => args.suite = Some(value(a)?),
            "--list" => args.list = true,
            "--lib" | "-l" => args.lib = Some(value(a)?),
            "--timeout-ms" => args.timeout_ms = Some(number("--timeout-ms", value(a)?)?),
            "--pass-timeout-ms" => {
                args.pass_timeout_ms = Some(number("--pass-timeout-ms", value(a)?)?)
            }
            "--max-nodes" => args.max_nodes = Some(number("--max-nodes", value(a)?)?),
            "--selfcheck" => args.selfcheck = true,
            "--listen" => args.listen = Some(value(a)?),
            "--workers" => args.workers = Some(number("--workers", value(a)?)?),
            "--cache" => args.cache = Some(number("--cache", value(a)?)?),
            "--drain-ms" => args.drain_ms = Some(number("--drain-ms", value(a)?)?),
            "--bench" => args.bench_load = true,
            "--help" | "-h" => args.help = true,
            "--clients" => args.clients = Some(number::<usize>("--clients", value(a)?)?.max(1)),
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown flag `{flag}`"));
            }
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn cmd_opt(args: &Args) -> Result<u8, Failure> {
    let spec = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("my_adder");
    let net = load_input(spec).map_err(Failure::input)?;
    let flow = match &args.flow {
        Some(script) => {
            if args.target.is_some() || args.rewrite {
                return Err(Failure::usage(
                    "--flow replaces --target/--rewrite; pass one or the other",
                ));
            }
            Flow::parse(script).map_err(Failure::usage)?
        }
        None => {
            let target = args.target.as_deref().unwrap_or("all");
            let script = target_flow(target, args.rewrite).map_err(Failure::usage)?;
            Flow::parse(script).expect("canned flows parse")
        }
    };
    let outcome = run_flow_with(
        &net,
        &flow,
        args.effort.unwrap_or(2),
        args.rounds.unwrap_or(32),
        args.jobs.unwrap_or(0),
        &args.run_options(),
    );
    print!("{}", render_report(&outcome));
    if let Some(path) = &args.output {
        emit_verilog(&outcome.optimized, path).map_err(Failure::generic)?;
    }
    if !(outcome.mig_equiv && outcome.net_equiv) {
        Ok(EXIT_EQUIV)
    } else if outcome.degraded {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(EXIT_OK)
    }
}

fn cmd_map(args: &Args) -> Result<u8, Failure> {
    let spec = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("my_adder");
    let net = load_input(spec).map_err(Failure::input)?;
    let flow = args
        .flow
        .as_deref()
        .map(Flow::parse)
        .transpose()
        .map_err(Failure::usage)?;
    let outcome = run_map_with(
        &net,
        args.lib.as_deref().unwrap_or("cmos22"),
        flow.as_ref(),
        args.effort.unwrap_or(2),
        args.rounds.unwrap_or(32),
        args.jobs.unwrap_or(0),
        &args.run_options(),
    )
    .map_err(|e| {
        // A crashing mapper is a degraded completion (the optimized
        // netlist is intact, only the mapping product is missing), not
        // an internal error.
        if e.contains("panicked") {
            Failure {
                code: EXIT_DEGRADED,
                message: e,
            }
        } else {
            Failure::usage(e)
        }
    })?;
    print!("{}", render_map_report(&outcome));
    if let Some(path) = &args.output {
        emit_verilog(&outcome.design.to_network(), path).map_err(Failure::generic)?;
    }
    if !(outcome.mig_equiv && outcome.map_equiv) {
        Ok(EXIT_EQUIV)
    } else if outcome.degraded {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(EXIT_OK)
    }
}

fn cmd_bench(args: &Args) -> Result<u8, Failure> {
    let mut config = if args.quick {
        bench::BenchConfig::quick()
    } else {
        bench::BenchConfig::full()
    };
    if let Some(suite) = &args.suite {
        if !bench::SUITES.contains(&suite.as_str()) {
            return Err(Failure::usage(format!(
                "unknown suite `{suite}` (known suites: {})",
                bench::SUITES.join(", ")
            )));
        }
        config.suite = suite.clone();
    }
    for name in &args.positional {
        if !mig_benchgen::MCNC_NAMES.contains(&name.as_str())
            && !mig_benchgen::LARGE_NAMES.contains(&name.as_str())
        {
            return Err(Failure::usage(format!(
                "unknown benchmark `{name}` (see `mighty list`)"
            )));
        }
    }
    config.names = args.positional.clone();
    // A large-tier name without an explicit --suite routes through the
    // large runner (running mul_1m through the MCNC mapping/esat stages
    // by accident would be a footgun, not a feature).
    if args.suite.is_none()
        && args
            .positional
            .iter()
            .any(|n| mig_benchgen::LARGE_NAMES.contains(&n.as_str()))
    {
        config.suite = "all".into();
    }
    if let Some(script) = &args.flow {
        // Validate up front for a clean CLI error.
        Flow::parse(script).map_err(Failure::usage)?;
        config.flow = Some(script.clone());
    }
    if let Some(effort) = args.effort {
        config.effort = effort;
    }
    if let Some(rounds) = args.rounds {
        config.rounds = rounds;
    }
    if let Some(jobs) = args.jobs {
        config.jobs = jobs;
    }
    config.opts = args.run_options();
    let report = bench::run_suite(&config);
    print!("{}", bench::render_table(&report));
    let path = args.output.as_deref().unwrap_or("BENCH_opt.json");
    let json = bench::to_json(&report);
    if path == "-" {
        print!("{json}");
    } else {
        std::fs::write(path, json)
            .map_err(|e| Failure::generic(format!("writing `{path}`: {e}")))?;
        println!("wrote {path}");
    }
    if !report.all_ok() {
        Ok(EXIT_EQUIV)
    } else if report.any_degraded() {
        Ok(EXIT_DEGRADED)
    } else {
        Ok(EXIT_OK)
    }
}

fn cmd_stats(args: &Args) -> Result<u8, Failure> {
    let specs: Vec<&str> = if args.positional.is_empty() {
        vec!["my_adder"]
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    for spec in specs {
        let net = load_input(spec).map_err(Failure::input)?;
        println!("{}", net.stats());
    }
    Ok(EXIT_OK)
}

fn cmd_gen(args: &Args) -> Result<u8, Failure> {
    if args.list {
        for name in mig_benchgen::MCNC_NAMES {
            println!("{name}");
        }
        for name in mig_benchgen::LARGE_NAMES {
            println!("{name}");
        }
        return Ok(EXIT_OK);
    }
    let name = args
        .positional
        .first()
        .ok_or_else(|| Failure::usage("gen requires a benchmark name (see `mighty gen --list`)"))?;
    let net = mig_benchgen::generate(name)
        .ok_or_else(|| Failure::usage(format!("unknown benchmark `{name}` (see `mighty list`)")))?;
    emit_verilog(&net, args.output.as_deref().unwrap_or("-")).map_err(Failure::generic)?;
    Ok(EXIT_OK)
}

fn cmd_equiv(args: &Args) -> Result<u8, Failure> {
    let [a, b] = args.positional.as_slice() else {
        return Err(Failure::usage("equiv requires exactly two inputs"));
    };
    let na = load_input(a).map_err(Failure::input)?;
    let nb = load_input(b).map_err(Failure::input)?;
    if na.num_inputs() != nb.num_inputs() || na.num_outputs() != nb.num_outputs() {
        println!("NOT EQUIVALENT (interface mismatch)");
        return Ok(EXIT_EQUIV);
    }
    let ok = mig_sim::equivalent(&na, &nb, args.rounds.unwrap_or(32));
    println!("{}", if ok { "EQUIVALENT" } else { "NOT EQUIVALENT" });
    Ok(if ok { EXIT_OK } else { EXIT_EQUIV })
}

fn cmd_serve(args: &Args) -> Result<u8, Failure> {
    use mig_mighty::serve;
    if args.bench_load {
        return cmd_serve_bench(args);
    }
    let workers = args.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let config = serve::ServeConfig {
        listen: args
            .listen
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7171".to_string()),
        workers,
        cache_capacity: args.cache.unwrap_or(64),
        drain_ms: args.drain_ms.unwrap_or(10_000),
    };
    serve::install_signal_handlers();
    let server = serve::Server::start(&config).map_err(Failure::generic)?;
    // The exact line the serve tests and tooling parse for the bound
    // (possibly ephemeral) port — keep it first and stable.
    println!("listening on {}", server.addr());
    println!(
        "workers: {}  cache: {} entries  drain: {} ms",
        config.workers, config.cache_capacity, config.drain_ms
    );
    if server.wait() {
        Ok(EXIT_OK)
    } else {
        Err(Failure::generic(
            "drain deadline expired with jobs still in flight",
        ))
    }
}

fn cmd_serve_bench(args: &Args) -> Result<u8, Failure> {
    use mig_mighty::serve;
    let mut cfg = if args.quick {
        serve::LoadConfig::quick()
    } else {
        serve::LoadConfig::full()
    };
    if let Some(clients) = args.clients {
        cfg.clients = clients;
    }
    if let Some(script) = &args.flow {
        Flow::parse(script).map_err(Failure::usage)?;
        cfg.flow = script.clone();
    }
    if let Some(effort) = args.effort {
        cfg.effort = effort.max(1);
    }
    if let Some(workers) = args.workers {
        cfg.workers_sweep = vec![workers.max(1)];
    }
    let sweeps = serve::run_load(&cfg).map_err(Failure::generic)?;
    print!("{}", serve::render_load_table(&sweeps));
    let ok = sweeps.iter().all(|r| r.verified && r.bit_identical);
    let report = bench::ServeReport {
        flow: cfg.flow,
        effort: cfg.effort,
        sweeps,
    };
    let path = args.output.as_deref().unwrap_or("BENCH_opt.json");
    if path == "-" {
        print!("{}", bench::serve_block_json(&report));
    } else {
        splice_serve_block(path, &report)?;
        println!("updated {path}");
    }
    if ok {
        Ok(EXIT_OK)
    } else {
        Ok(EXIT_EQUIV)
    }
}

/// Splices a fresh `"serve"` block into an existing `BENCH_opt.json`:
/// removes any previous block, inserts the new one immediately before
/// `"totals"`, and upgrades a pre-v8 schema line. Textual surgery on
/// purpose — every byte of the committed MCNC trajectory outside the
/// block stays identical.
fn splice_serve_block(path: &str, report: &bench::ServeReport) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        Failure::generic(format!(
            "reading `{path}`: {e} (run `mighty bench` first to create it)"
        ))
    })?;
    let mut lines: Vec<&str> = text.lines().collect();
    if let Some(start) = lines
        .iter()
        .position(|l| l.trim_start().starts_with("\"serve\": {"))
    {
        let end = lines[start..]
            .iter()
            .position(|l| *l == "  },")
            .map(|off| start + off)
            .ok_or_else(|| Failure::generic(format!("`{path}`: unterminated serve block")))?;
        lines.drain(start..=end);
    }
    let totals = lines
        .iter()
        .position(|l| l.trim_start().starts_with("\"totals\": {"))
        .ok_or_else(|| {
            Failure::generic(format!("`{path}`: no totals block — not a mig-bench file"))
        })?;
    let block = bench::serve_block_json(report);
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == totals {
            out.push_str(&block);
        }
        if line.contains("\"schema\": \"mig-bench/v7\"") {
            out.push_str("  \"schema\": \"mig-bench/v8\",\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    std::fs::write(path, out).map_err(|e| Failure::generic(format!("writing `{path}`: {e}")))
}

fn run() -> Result<u8, Failure> {
    #[cfg(feature = "faultpoints")]
    mig_core::faultpoint::configure_from_env()
        .map_err(|e| Failure::usage(format!("{}: {e}", mig_core::faultpoint::ENV_VAR)))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(EXIT_OK);
    };
    let args = parse_args(rest).map_err(Failure::usage)?;
    if args.help {
        println!("{USAGE}");
        return Ok(EXIT_OK);
    }
    match cmd.as_str() {
        "opt" => cmd_opt(&args),
        "map" => cmd_map(&args),
        "bench" => cmd_bench(&args),
        "serve" => cmd_serve(&args),
        "stats" => cmd_stats(&args),
        "gen" => cmd_gen(&args),
        "equiv" => cmd_equiv(&args),
        "list" => {
            for name in mig_benchgen::MCNC_NAMES {
                println!("{name}");
            }
            println!(
                "large tier (bench --suite large): {}",
                mig_benchgen::LARGE_NAMES.join(", ")
            );
            println!("libraries: {}", mig_techmap::KNOWN_LIBRARIES.join(", "));
            Ok(EXIT_OK)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(EXIT_OK)
        }
        other => Err(Failure::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(f) => {
            eprintln!("mighty: {}", f.message);
            ExitCode::from(f.code)
        }
    }
}
