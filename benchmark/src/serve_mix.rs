//! The `serve_mix` workload: a closed loop of [`CLIENTS`] clients against
//! an in-process `mig_mighty::serve::Server` with [`WORKERS`] workers and
//! the default result cache. Each client sends its next job only after
//! the previous result arrived.
//!
//! Every job is the Verilog text of a small circuit, run with flow
//! [`FLOW`] at effort [`EFFORT`]. Half the jobs repeat one of the
//! client's own recent jobs (a cache hit the server re-verifies); the
//! rest are fresh seeded circuits that miss the cache. The job plan is a
//! pure function of the seed and the job count.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

use mig_core::Flow;
use mig_mighty::json::{escape_str, Json};
use mig_mighty::serve::{ServeConfig, Server};
use mig_netlist::SplitMix64;

use crate::batch::{self, JobOutput, Path};
use crate::inputs::{self, Input};
use crate::report::{fnv1a, median, peak_rss_mib, percentile, Failures, Measured, Row};
use crate::trace::Tracer;

pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
pub const FLOW: &str = "size; rewrite";
pub const EFFORT: usize = 1;
/// Jobs sent per second of `--seconds` (the mix sustains about 40 jobs/s
/// on a 2-vCPU machine). Fixes how many jobs a run sends, so both sides
/// of a comparison do the same work.
const NOMINAL_JOBS_PER_S: f64 = 30.0;
/// Jobs that make one round (the unit of `job_s`).
pub const ROUND_JOBS: usize = 64;
/// A repeat re-sends one of the client's last this-many fresh jobs, so
/// it is always still in the server's 64-entry cache.
const REPEAT_WINDOW: usize = 8;

/// One planned request: which circuit, and whether it repeats an
/// earlier job of the same client.
#[derive(Debug, Clone, Copy)]
struct Planned {
    circuit: usize,
    repeat: bool,
}

/// What the client saw for one job.
#[derive(Debug, Clone)]
struct Response {
    circuit: usize,
    repeat: bool,
    latency_s: f64,
    cached: bool,
    ok: bool,
    verilog: String,
}

/// Builds the circuits and each client's request plan.
fn plan(seed: u64, total_jobs: usize) -> (Vec<Input>, Vec<Vec<Planned>>) {
    let mut circuits = Vec::new();
    let mut plans = Vec::new();
    for c in 0..CLIENTS {
        let mut rng = SplitMix64::seed_from_u64(
            seed ^ (0x5E7E_u64 + c as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut fresh: Vec<usize> = Vec::new();
        let mut jobs = Vec::new();
        // Exactly one job of each consecutive pair repeats (the seed picks
        // which), so every seed sends the same number of fresh circuits.
        let mut pair_leads_with_repeat = false;
        for k in 0..total_jobs / CLIENTS {
            let repeat = if k % 2 == 0 {
                pair_leads_with_repeat = k > 0 && rng.gen_bool(0.5);
                pair_leads_with_repeat
            } else {
                !pair_leads_with_repeat
            };
            if repeat {
                let window = fresh.len().min(REPEAT_WINDOW);
                let pick = fresh[fresh.len() - 1 - rng.gen_range(0..window)];
                jobs.push(Planned {
                    circuit: pick,
                    repeat: true,
                });
            } else {
                let name = format!("c{c}_j{k}");
                circuits.push(inputs::small_circuit(fresh.len(), &mut rng, &name));
                fresh.push(circuits.len() - 1);
                jobs.push(Planned {
                    circuit: circuits.len() - 1,
                    repeat: false,
                });
            }
        }
        plans.push(jobs);
    }
    (circuits, plans)
}

fn request_line(id: usize, input: &Input) -> String {
    format!(
        "{{\"id\": {id}, \"netlist\": \"{}\", \"flow\": \"{FLOW}\", \"effort\": {EFFORT}}}\n",
        escape_str(&input.verilog)
    )
}

/// Sends `{"op": "ping"}` on a fresh connection and waits for the pong.
pub fn ping(addr: SocketAddr) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut w = stream.try_clone().map_err(|e| e.to_string())?;
    w.write_all(b"{\"op\": \"ping\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    if line.contains("pong") {
        Ok(())
    } else {
        Err(format!("unexpected ping reply: {line}"))
    }
}

pub fn server_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// One client: sends its planned jobs in order, each after the previous
/// result arrived.
fn client(
    addr: SocketAddr,
    client_index: usize,
    circuits: &[Input],
    jobs: &[Planned],
    start: &Barrier,
    mut tr: Option<&mut Tracer>,
) -> Result<Vec<Response>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(jobs.len());
    let mut line = String::new();
    start.wait();
    for (k, job) in jobs.iter().enumerate() {
        let request = request_line(k, &circuits[job.circuit]);
        if let Some(t) = tr.as_deref_mut() {
            t.set_job((client_index * jobs.len() + k) as u64);
            t.count("serve.request_bytes", request.len() as f64);
        }
        let span = tr.as_deref_mut().map(|t| t.open("serve.request"));
        let sent = Instant::now();
        writer
            .write_all(request.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-job".to_string());
            }
            if !line.contains("\"type\": \"progress\"") {
                break;
            }
        }
        let latency_s = sent.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
            t.close(id);
        }
        let v = Json::parse(&line)?;
        if v.get_str("type") != Some("result") {
            return Err(format!("unexpected response: {}", line.trim_end()));
        }
        out.push(Response {
            circuit: job.circuit,
            repeat: job.repeat,
            latency_s,
            cached: v.get_bool("cached") == Some(true),
            ok: v.get_num("exit_code") == Some(0.0)
                && v.get_bool("mig_equiv") == Some(true)
                && v.get_bool("net_equiv") == Some(true),
            verilog: v.get_str("verilog").unwrap_or_default().to_string(),
        });
    }
    Ok(out)
}

/// Local reference results for every circuit, computed on two threads
/// through the one-shot entry point (or call by call when traced).
fn references(
    circuits: &[Input],
    tracers: Option<&mut [Tracer; 2]>,
) -> Vec<Result<JobOutput, String>> {
    let flow = Flow::parse(FLOW).expect("serve flow parses");
    let half = circuits.len().div_ceil(2);
    let (lo, hi) = circuits.split_at(half);
    let run = |part: &[Input],
               mut tr: Option<&mut Tracer>,
               base: usize|
     -> Vec<Result<JobOutput, String>> {
        part.iter()
            .enumerate()
            .map(|(i, input)| match tr.as_deref_mut() {
                None => batch::run_job(Path::Opt, &flow, EFFORT, input),
                Some(t) => {
                    t.set_job((base + i) as u64);
                    batch::run_job_traced(Path::Opt, &flow, EFFORT, input, t)
                }
            })
            .collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let (ta, tb) = match tracers {
            Some([ta, tb]) => (Some(ta), Some(tb)),
            None => (None, None),
        };
        let run = &run;
        let ha = s.spawn(move || run(lo, ta, 0));
        let hb = s.spawn(move || run(hi, tb, half));
        (
            ha.join().expect("reference thread panicked"),
            hb.join().expect("reference thread panicked"),
        )
    });
    a.into_iter().chain(b).collect()
}

/// Runs the serve mix for a job count set by `seconds`, then checks every
/// response against a local reference run.
pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Result<Measured, String> {
    let total_jobs = (((seconds * NOMINAL_JOBS_PER_S) as usize / ROUND_JOBS).max(1)) * ROUND_JOBS;
    let (circuits, plans) = plan(seed, total_jobs);
    let traced = trace.is_some();
    let mut client_tracers: Vec<Tracer> =
        (0..CLIENTS).map(|_| Tracer::new(Instant::now())).collect();

    let server = Server::start(&server_config())?;
    let addr = server.addr();
    ping(addr)?;
    let barrier = Barrier::new(CLIENTS + 1);
    let (responses, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .zip(client_tracers.iter_mut())
            .enumerate()
            .map(|(c, (jobs, tr))| {
                let (circuits, barrier) = (&circuits, &barrier);
                s.spawn(move || client(addr, c, circuits, jobs, barrier, traced.then_some(tr)))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<Result<Vec<Response>, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect();
        (results, start.elapsed().as_secs_f64())
    });
    let stats = server.stats();
    server.shutdown();
    let drained = server.wait();
    let peak_rss_mb = peak_rss_mib();

    let mut fails = Failures::default();
    if !drained {
        fails.add("server did not drain after the run".to_string());
    }
    let mut all: Vec<Response> = Vec::with_capacity(total_jobs);
    for r in responses {
        match r {
            Ok(v) => all.extend(v),
            Err(e) => fails.add(format!("client: {e}")),
        }
    }
    let missing = total_jobs - all.len();
    for _ in 0..missing {
        fails.add("job got no result (refused or dropped connection)".to_string());
    }

    let mut ref_tracers = [Tracer::new(Instant::now()), Tracer::new(Instant::now())];
    let refs = references(&circuits, traced.then_some(&mut ref_tracers));
    let mut m = Measured::new(ROUND_JOBS, total_jobs / ROUND_JOBS);
    m.peak_rss_mb = peak_rss_mb;
    let mut circuit_latency: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    for r in &all {
        circuit_latency[r.circuit].push(r.latency_s);
        let name = &circuits[r.circuit].name;
        if !r.ok {
            fails.add(format!(
                "{name}: response carries a failed verdict or exit code"
            ));
        }
        match &refs[r.circuit] {
            Ok(reference) if reference.text == r.verilog => {}
            Ok(_) => fails.add(format!(
                "{name}: response differs from the local run ({})",
                if r.cached { "cache hit" } else { "cache miss" }
            )),
            Err(_) => {}
        }
    }
    for (i, (input, reference)) in circuits.iter().zip(&refs).enumerate() {
        m.attempted += 1;
        let out = match reference {
            Err(e) => {
                fails.add(format!("{}: local reference run failed: {e}", input.name));
                continue;
            }
            Ok(o) => o,
        };
        if !out.verified {
            fails.add(format!(
                "{}: the suite's verdicts failed on the local run",
                input.name
            ));
        }
        match batch::independent_check(&input.verilog, &out.text) {
            Err(e) => fails.add(format!("{}: {e}", input.name)),
            Ok(written) => {
                let (area, delay) = batch::mapped_cost(&written);
                m.rows.push(Row {
                    group: "serve_mix",
                    circuit: input.name.clone(),
                    job_s: median(&circuit_latency[i]),
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
    if stats.jobs_done != total_jobs || stats.jobs_failed != 0 {
        fails.add(format!(
            "server stats disagree: {} jobs done, {} failed, {} sent",
            stats.jobs_done, stats.jobs_failed, total_jobs
        ));
    }
    m.attempted += total_jobs as u64;
    m.failures = fails;
    m.latencies_s = all.iter().map(|r| r.latency_s).collect();
    m.job_s = wall_s * ROUND_JOBS as f64 / total_jobs as f64;
    m.round_s = vec![m.job_s];

    let latency_ms = |cached: bool| -> Vec<f64> {
        all.iter()
            .filter(|r| r.cached == cached)
            .map(|r| r.latency_s * 1e3)
            .collect()
    };
    let (hit_ms, miss_ms) = (latency_ms(true), latency_ms(false));
    // The response's `millis` counts whole milliseconds, and most of these
    // jobs take less than one. A miss makes a worker do what the local
    // reference run of the same circuit does, so that run's time stands in
    // for the service time, and a miss's wait is its latency minus it.
    let service_ms = |circuit: usize| refs[circuit].as_ref().map_or(0.0, |o| o.secs * 1e3);
    let service: Vec<f64> = (0..circuits.len()).map(service_ms).collect();
    let wait: Vec<f64> = all
        .iter()
        .filter(|r| !r.cached)
        .map(|r| r.latency_s * 1e3 - service_ms(r.circuit))
        .collect();
    let l = &mut m.layers;
    l.insert("serve.service_ms_p50".into(), median(&service));
    l.insert("serve.wait_ms_p50".into(), median(&wait));
    l.insert("serve.wait_ms_p99".into(), percentile(&wait, 99.0));
    l.insert(
        "serve.cache_hit_ratio".into(),
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    l.insert("serve.hit_latency_ms_p50".into(), median(&hit_ms));
    l.insert("serve.miss_latency_ms_p50".into(), median(&miss_ms));
    m.notes.push(format!(
        "serve: {total_jobs} jobs, {CLIENTS} clients, {WORKERS} workers, {} hits / {} planned repeats, wall {wall_s:.3} s",
        hit_ms.len(),
        all.iter().filter(|r| r.repeat).count()
    ));

    if let Some(tr) = trace {
        for t in client_tracers {
            tr.absorb(t);
        }
        for t in ref_tracers {
            tr.absorb(t);
        }
        // The layers below the server are measured on the local
        // reference runs: one traced run per distinct circuit.
        let mut layers = tr.layer_metrics(1.0);
        layers.append(&mut m.layers);
        let bytes = layers.get("serve.request_bytes").copied().unwrap_or(0.0);
        layers.insert("serve.request_bytes".into(), bytes / total_jobs as f64);
        layers.insert(
            "trace.client_busy_ratio".into(),
            tr.total_seconds("serve.request") / (CLIENTS as f64 * wall_s),
        );
        m.layers = layers;
    }
    Ok(m)
}
