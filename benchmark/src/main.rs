//! The MIG suite's benchmark: one command that generates a workload's
//! inputs as Verilog text from a seed, drives the suite's public entry
//! points, checks every output independently, and prints each metric by
//! name and unit. The last line of standard output is one JSON object.
//!
//! ```text
//! mig-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! mig-benchmark compare OLD_REPORT NEW_REPORT
//! mig-benchmark trajectory BENCH_FILE
//! ```
//!
//! See README.md for the workloads and metrics.

mod batch;
mod inputs;
mod report;
mod serve_mix;
mod trace;
mod trajectory;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{median, Measured, Metric};
use trace::Tracer;

/// The workloads: `batch` runs every batch job group, and each group
/// also runs alone under its own name.
const WORKLOADS: [&str; 5] = [
    "batch",
    "serve_mix",
    "mcnc_table1",
    "esat_saturate",
    "large_datapath",
];

/// Fresh processes timed for `setup_s` on the serve mix, half before the
/// workload and half after it. A batch workload takes the first half,
/// then one after each job.
const SETUP_PROBES: usize = 25;

/// The passes that get per-layer metrics.
const PASSES: [&str; 6] = [
    "size",
    "rewrite",
    "depth_rewrite",
    "depth",
    "activity",
    "esat",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("probe") => probe(argv.get(1).map_or("", String::as_str)),
        Some("compare") => match report::compare(&argv[1..]) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mig-benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Some("trajectory") => match trajectory::run(&argv[1..]) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("mig-benchmark: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Builds the process-global state every job needs: the NPN database
/// and the stock library with a first mapping. Returns both times.
fn warm_up() -> (f64, f64) {
    let t = Instant::now();
    let db = mig_tt::MigDatabase::global();
    std::hint::black_box(db.classes().len());
    let npn_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let lib = mig_techmap::CellLibrary::shared_by_name(batch::LIBRARY).expect("stock library");
    let mut mig = mig_core::Mig::new("warm");
    let (a, b, c) = (mig.add_input("a"), mig.add_input("b"), mig.add_input("c"));
    let m = mig.maj(a, b, !c);
    mig.add_output("y", m);
    let design = mig_techmap::map_mig(&mig, &lib, &mig_techmap::MapConfig::default());
    std::hint::black_box(design.num_cells());
    (npn_s, t.elapsed().as_secs_f64())
}

/// The setup probe, run in a fresh child process: warm up (and, for the
/// serve mix, start a server and wait for its first `ping` reply), then
/// print `ready SETUP_S NPN_S LIBRARY_S`. The setup time runs from the
/// start of `main`, so process creation and loading, which the suite does
/// not control and which are the noisiest part on a shared machine, stay
/// out of it.
fn probe(kind: &str) -> ExitCode {
    let start = Instant::now();
    let (npn_s, library_s) = warm_up();
    let server = match kind {
        "batch" => None,
        "serve" => {
            let server = match mig_mighty::serve::Server::start(&serve_mix::server_config()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("mig-benchmark: probe: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The accept loop polls every 10 ms. Pausing past its first
            // poll makes the ready time land on the same side of that
            // poll in every probe, instead of a run-to-run coin flip.
            std::thread::sleep(std::time::Duration::from_millis(2));
            if let Err(e) = serve_mix::ping(server.addr()) {
                eprintln!("mig-benchmark: probe: {e}");
                return ExitCode::FAILURE;
            }
            Some(server)
        }
        other => {
            eprintln!("mig-benchmark: unknown probe `{other}`");
            return ExitCode::from(2);
        }
    };
    println!(
        "ready {:?} {npn_s:?} {library_s:?}",
        start.elapsed().as_secs_f64()
    );
    if let Some(server) = server {
        server.shutdown();
        server.wait();
    }
    ExitCode::SUCCESS
}

/// Runs one fresh probe process. Returns its setup, NPN database and
/// library times.
fn setup_probe(kind: &str) -> Result<(f64, f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(&exe)
        .args(["probe", kind])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let status = child
        .wait()
        .map_err(|e| format!("wait for setup probe: {e}"))?;
    read.map_err(|e| format!("setup probe output: {e}"))?;
    let fields: Vec<f64> = line
        .strip_prefix("ready ")
        .map(|r| {
            r.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if !status.success() || fields.len() != 3 {
        return Err(format!(
            "setup probe failed ({status}): {}",
            line.trim_end()
        ));
    }
    Ok((fields[0], fields[1], fields[2]))
}

/// The setup probes of one run. They are spread over the run, because
/// the shared machine's speed drifts in phases of 20–60 s and probes
/// taken in one burst all land in the same phase.
struct Probes {
    kind: &'static str,
    samples: Vec<(f64, f64, f64)>,
    error: Option<String>,
}

impl Probes {
    /// Takes `n` more probes; the first failure stops all later ones.
    fn take(&mut self, n: usize) {
        for _ in 0..n {
            if self.error.is_some() {
                return;
            }
            match setup_probe(self.kind) {
                Ok(s) => self.samples.push(s),
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn median(&self, field: fn(&(f64, f64, f64)) -> f64) -> f64 {
        median(&self.samples.iter().map(field).collect::<Vec<_>>())
    }
}

/// The per-layer metrics of a traced run, with their units.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("netlist.parse_s".into(), "s"),
        ("netlist.parse_bytes".into(), "bytes"),
        ("core.import_s".into(), "s"),
        ("core.import_nodes".into(), "nodes"),
        ("core.metrics_s".into(), "s"),
    ];
    for p in PASSES {
        v.push((format!("core.{p}_s"), "s"));
        v.push((format!("core.{p}_runs"), "count"));
        v.push((format!("core.{p}_noop_runs"), "count"));
        v.push((format!("core.{p}_noop_s"), "s"));
        v.push((format!("core.{p}_nodes_removed"), "nodes"));
    }
    v.extend([
        ("core.level_s".into(), "s"),
        ("core.level.incremental_repairs".into(), "count"),
        ("core.level.repaired_nodes".into(), "nodes"),
        ("core.level.global_rebuilds".into(), "count"),
        ("core.arena_bytes".into(), "bytes"),
        ("core.strash_bytes".into(), "bytes"),
        ("core.rewrite_cache_entries".into(), "count"),
        ("core.equiv_s".into(), "s"),
        ("core.export_s".into(), "s"),
        ("sim.equiv_s".into(), "s"),
        ("techmap.map_s".into(), "s"),
        ("techmap.cells".into(), "count"),
        ("techmap.export_s".into(), "s"),
        ("sim.map_equiv_s".into(), "s"),
        ("netlist.write_s".into(), "s"),
        ("netlist.write_bytes".into(), "bytes"),
        ("tt.npn_db_s".into(), "s"),
        ("techmap.library_s".into(), "s"),
        ("serve.service_ms_p50".into(), "ms"),
        ("serve.wait_ms_p50".into(), "ms"),
        ("serve.wait_ms_p99".into(), "ms"),
        ("serve.cache_hit_ratio".into(), "ratio"),
        ("serve.hit_latency_ms_p50".into(), "ms"),
        ("serve.miss_latency_ms_p50".into(), "ms"),
        ("serve.request_bytes".into(), "bytes"),
        ("trace.job_s".into(), "s"),
        ("trace.untraced_job_s".into(), "s"),
        ("trace.overhead_s".into(), "s"),
        ("trace.accounted_ratio".into(), "ratio"),
        ("trace.unattributed_s".into(), "s"),
        ("trace.client_busy_ratio".into(), "ratio"),
    ]);
    v
}

fn run(args: &Args) -> ExitCode {
    let serve = args.workload == "serve_mix";
    let mut probes = Probes {
        kind: if serve { "serve" } else { "batch" },
        samples: Vec::new(),
        error: None,
    };
    // Half the probes before the workload; the serve mix takes the rest
    // after it, a batch workload one after each job.
    probes.take(SETUP_PROBES / 2);
    warm_up();
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let measured: Result<Measured, String> = if serve {
        let m = serve_mix::run(args.seed, args.seconds, tracer.as_mut());
        probes.take(SETUP_PROBES - SETUP_PROBES / 2);
        m
    } else {
        let batch = batch::Batch::new(&args.workload, args.seed).expect("workload is validated");
        Ok(batch::run(
            &batch,
            args.seconds,
            tracer.as_mut(),
            &mut || probes.take(1),
        ))
    };
    if let Some(e) = &probes.error {
        eprintln!("mig-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mig-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} · seed {} · {} round(s) of {} job(s) · trace {}",
        args.workload,
        args.seed,
        m.rounds,
        m.jobs_per_round,
        u8::from(args.trace)
    );
    for row in &m.rows {
        println!("{}", report::row_line(row));
    }
    let rounds: Vec<String> = m.round_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("round times (s): {}", rounds.join(" "));
    for note in &m.notes {
        println!("{note}");
    }
    for f in &m.failures.0 {
        println!("FAIL {f}");
    }

    let setup_s = probes.median(|p| p.0);
    let job_s = m.job_s;
    let latencies_ms: Vec<f64> = m.latencies_s.iter().map(|s| s * 1e3).collect();
    let (tail_p, tail_ms) = report::tail(&latencies_ms);
    let failed = m.failures.count();
    // Printed for every workload, but not part of the result line: they
    // are only meaningful (or non-zero) on some workloads.
    println!(
        "metric fail_ratio {} ratio ({failed} failed of {} attempted)",
        failed as f64 / m.attempted.max(1) as f64,
        m.attempted
    );
    println!("metric jobs_per_s {} 1/s", m.jobs_per_round as f64 / job_s);
    println!("metric latency_p50_ms {} ms", median(&latencies_ms));
    println!(
        "metric latency_p99_ms {tail_ms} ms (p{tail_p:.2} of {} samples, {} beyond it)",
        latencies_ms.len(),
        latencies_ms.iter().filter(|&&l| l > tail_ms).count()
    );

    let metrics: Vec<Metric> = if args.trace {
        let mut layers = m.layers.clone();
        layers.insert("tt.npn_db_s".into(), probes.median(|p| p.1));
        layers.insert("techmap.library_s".into(), probes.median(|p| p.2));
        if let Some(tr) = &tracer {
            let path = std::path::PathBuf::from(format!(
                ".bench_trace/{}_seed{}.jsonl",
                args.workload, args.seed
            ));
            match tr.write_jsonl(&path) {
                Ok(()) => println!(
                    "trace: {} spans written to {}",
                    tr.spans().len(),
                    path.display()
                ),
                Err(e) => println!("trace: could not write {}: {e}", path.display()),
            }
        }
        if let (Some(t), Some(u)) = (
            layers.get("trace.job_s"),
            layers.get("trace.untraced_job_s"),
        ) {
            println!(
                "tracing overhead: traced job_s {t:.4} s − untraced {u:.4} s = {:+.4} s",
                t - u
            );
        }
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: layers.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    } else {
        // Each circuit's result over its input's own figure, so a seed
        // that draws a larger PLA does not read as a quality change.
        let quality = |value: fn(&report::Row) -> f64| report::group_geomean(&m.rows, value);
        let e2e = [
            ("setup_s", setup_s, "s"),
            ("job_s", job_s, "s"),
            ("peak_rss_mb", m.peak_rss_mb, "MiB"),
            (
                "size_ratio",
                quality(|r| r.size as f64 / r.input.size as f64),
                "ratio",
            ),
            (
                "depth_ratio",
                quality(|r| f64::from(r.depth) / f64::from(r.input.depth)),
                "ratio",
            ),
            (
                "activity_ratio",
                quality(|r| r.activity / r.input.activity),
                "ratio",
            ),
            (
                "mapped_area_per_node",
                quality(|r| r.area / r.input.size as f64),
                "um2/node",
            ),
            (
                "mapped_delay_per_level",
                quality(|r| r.delay / f64::from(r.input.depth)),
                "ns/level",
            ),
        ];
        e2e.into_iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    };
    for metric in &metrics {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{}",
        report::result_line(failed == 0, m.attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
