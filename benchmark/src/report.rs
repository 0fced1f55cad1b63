//! Measured results, statistics, the printed report and the comparison
//! of two saved reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mig_core::PassMetrics;

/// Correctness failures of a run, each with its reason.
#[derive(Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    pub fn add(&mut self, why: String) {
        self.0.push(why);
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }
}

/// One job's row of the report.
#[derive(Debug, Clone)]
pub struct Row {
    /// The job group (the workload, when it has one group).
    pub group: &'static str,
    pub circuit: String,
    /// Median over rounds of the job's time.
    pub job_s: f64,
    /// Size, depth and activity of the imported, unoptimized MIG.
    pub input: PassMetrics,
    pub size: usize,
    pub depth: u32,
    pub activity: f64,
    /// cmos22 mapped area and delay: the map path's own result, otherwise
    /// the written netlist mapped by the benchmark after the timed work.
    pub area: f64,
    pub delay: f64,
    /// FNV-1a hash of the written output.
    pub hash: u64,
}

/// What a workload measured, before setup and memory are added.
#[derive(Debug, Default)]
pub struct Measured {
    /// Jobs in one round.
    pub jobs_per_round: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// Wall time of each measured round.
    pub round_s: Vec<f64>,
    /// Time of one round: on the batch workloads the sum over jobs of
    /// each job's median time, scaled to the reference machine speed; on
    /// the serve mix the wall time per round's worth of completed jobs.
    pub job_s: f64,
    /// Latency samples: each batch job's median time, each served job's
    /// client-observed latency.
    pub latencies_s: Vec<f64>,
    /// Peak resident set size (`VmHWM`, MiB), read right after the timed
    /// work and before the benchmark's own checks add theirs.
    pub peak_rss_mb: f64,
    /// One row per distinct circuit; the quality metrics come from these.
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failures: Failures,
    /// Traced run only: per-layer metrics the workload adds itself.
    pub layers: BTreeMap<String, f64>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn new(jobs_per_round: usize, rounds: usize) -> Self {
        Measured {
            jobs_per_round,
            rounds,
            ..Self::default()
        }
    }
}

/// 64-bit FNV-1a, the benchmark's own output fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it, capped at
/// 99, and its value. Below twenty samples that percentile would fall
/// under the median, so the maximum is reported instead.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    let rank = if n >= 20 {
        (n - 10).min((0.99 * n as f64).ceil() as usize)
    } else {
        n
    };
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// Geometric mean over job groups of each group's geometric mean over
/// its rows of `value`. Every group weighs the same, however many or
/// however large its circuits, so the two large-tier circuits cannot
/// drown a quality loss on the 14 MCNC ones.
pub fn group_geomean(rows: &[Row], value: impl Fn(&Row) -> f64) -> f64 {
    let mut logs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in rows {
        logs.entry(r.group).or_default().push(value(r).ln());
    }
    if logs.is_empty() {
        return 0.0;
    }
    let mean = |l: &Vec<f64>| l.iter().sum::<f64>() / l.len() as f64;
    (logs.values().map(mean).sum::<f64>() / logs.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the last line of a run: `correct`, `attempted`, `failed` and
/// the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Every digit of a finite value; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Renders a per-circuit row as a `row` line (read back by `compare`).
pub fn row_line(r: &Row) -> String {
    format!(
        "row {{\"group\": \"{}\", \"circuit\": \"{}\", \"job_s\": {}, \"size_in\": {}, \"depth_in\": {}, \"activity_in\": {}, \"size\": {}, \"depth\": {}, \"activity\": {}, \"area_um2\": {}, \"delay_ns\": {}, \"hash\": \"{:016x}\"}}",
        r.group,
        r.circuit,
        json_number(r.job_s),
        r.input.size,
        r.input.depth,
        json_number(r.input.activity),
        r.size,
        r.depth,
        json_number(r.activity),
        json_number(r.area),
        json_number(r.delay),
        r.hash
    )
}

/// `compare OLD NEW`: per-circuit ratios NEW/OLD of every numeric row
/// field of two saved reports, and their geometric mean per job group.
pub fn compare(args: &[String]) -> Result<String, String> {
    let [old, new] = args else {
        return Err("usage: compare OLD_REPORT NEW_REPORT".to_string());
    };
    let load = |path: &str| -> Result<BTreeMap<(String, String), mig_mighty::json::Json>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let mut rows = BTreeMap::new();
        for line in text.lines() {
            let Some(body) = line.strip_prefix("row ") else {
                continue;
            };
            let v = mig_mighty::json::Json::parse(body)?;
            let key = (
                v.get_str("group").unwrap_or_default().to_string(),
                v.get_str("circuit").unwrap_or_default().to_string(),
            );
            rows.insert(key, v);
        }
        Ok(rows)
    };
    let (a, b) = (load(old)?, load(new)?);
    const FIELDS: [&str; 4] = ["job_s", "size", "depth", "area_um2"];
    let mut out = format!(
        "{:<16} {:<10} {:>10} {:>10} {:>10} {:>10}\n",
        "group", "circuit", FIELDS[0], FIELDS[1], FIELDS[2], FIELDS[3]
    );
    let mut logs: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    for (key, old_row) in &a {
        let Some(new_row) = b.get(key) else { continue };
        let mut cells = Vec::new();
        for f in FIELDS {
            match (old_row.get_num(f), new_row.get_num(f)) {
                (Some(x), Some(y)) if x > 0.0 && y > 0.0 => {
                    logs.entry((key.0.clone(), f))
                        .or_default()
                        .push((y / x).ln());
                    cells.push(format!("{:>10.4}", y / x));
                }
                _ => cells.push(format!("{:>10}", "-")),
            }
        }
        let _ = writeln!(out, "{:<16} {:<10} {}", key.0, key.1, cells.join(" "));
    }
    let workloads: Vec<String> = a
        .keys()
        .map(|k| k.0.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for w in workloads {
        let cells: Vec<String> = FIELDS
            .iter()
            .map(|f| match logs.get(&(w.clone(), *f)) {
                Some(l) if !l.is_empty() => {
                    format!("{:>10.4}", (l.iter().sum::<f64>() / l.len() as f64).exp())
                }
                _ => format!("{:>10}", "-"),
            })
            .collect();
        let _ = writeln!(out, "{:<16} {:<10} {}", w, "geomean", cells.join(" "));
    }
    Ok(out)
}
