//! `trajectory BENCH_FILE`: runs the default-seed circuits through the
//! same entry points and flows as the `mcnc_table1` and `large_datapath`
//! workloads, and compares the final size, depth and cmos22 area with
//! the committed `mig-bench/v8` trajectory file.
//!
//! The trajectory was recorded on the generated networks themselves.
//! The workloads hand the suite Verilog text instead, and
//! `parse_verilog` builds gates in depth-first order from the outputs,
//! not in generation order; node order steers the optimizers, so the
//! workloads' own results differ slightly from the trajectory. This
//! check feeds the generated networks directly, which isolates that
//! difference: a match here shows the workloads run the same program.

use mig_core::Flow;
use mig_mighty::json::Json;

use crate::batch::{run_parsed, Batch, Path};

/// One circuit's final metrics as recorded and as measured.
struct Check {
    name: String,
    want: (f64, f64, Option<f64>),
    got: (f64, f64, Option<f64>),
}

fn last_pass(record: &Json) -> Option<(f64, f64)> {
    let Some(Json::Arr(passes)) = record.get("passes") else {
        return None;
    };
    let last = passes.last()?;
    Some((last.get_num("size")?, last.get_num("depth")?))
}

fn records<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
    match doc.get(key) {
        Some(Json::Arr(v)) => v.iter().collect(),
        _ => Vec::new(),
    }
}

pub fn run(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("usage: trajectory BENCH_FILE".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = Json::parse(&text)?;
    let mut checks = Vec::new();
    for (workload, key) in [("mcnc_table1", "benchmarks"), ("large_datapath", "large")] {
        let batch = Batch::new(workload, crate::inputs::DEFAULT_SEED).expect("known workload");
        for (group, input) in &batch.jobs {
            let flow = Flow::parse(group.flow).expect("group flow parses");
            let Some(record) = records(&doc, key)
                .into_iter()
                .find(|r| r.get_str("name") == Some(input.name.as_str()))
            else {
                return Err(format!("`{path}` has no record for {}", input.name));
            };
            let (size, depth) = last_pass(record).ok_or("record without passes")?;
            let area = record.get("mapped").and_then(|m| m.get_num("area"));
            let net = mig_benchgen::generate(&input.name).expect("default-seed circuit");
            let o = run_parsed(group.path, &flow, group.effort, &net)?;
            checks.push(Check {
                name: input.name.clone(),
                want: (size, depth, area.filter(|_| group.path == Path::Map)),
                got: (o.size as f64, f64::from(o.depth), o.mapped.map(|(a, _)| a)),
            });
        }
    }
    let mut out = format!(
        "{:<10} {:>9} {:>9} {:>7} {:>7} {:>11} {:>11}\n",
        "circuit", "size", "recorded", "depth", "rec.", "area_um2", "recorded"
    );
    let mut mismatches = 0;
    let area = |a: Option<f64>| a.map_or("-".to_string(), |a| format!("{a:.3}"));
    for c in &checks {
        let same = c.want.0 == c.got.0 && c.want.1 == c.got.1 && area(c.want.2) == area(c.got.2);
        mismatches += usize::from(!same);
        out.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>7} {:>7} {:>11} {:>11}{}\n",
            c.name,
            c.got.0,
            c.want.0,
            c.got.1,
            c.want.1,
            area(c.got.2),
            area(c.want.2),
            if same { "" } else { "  MISMATCH" }
        ));
    }
    let mcnc = &checks[..checks.len() - 2];
    out.push_str(&format!(
        "mcnc totals: {} nodes, {:.3} um2 (recorded {} nodes, {:.3} um2)\n",
        mcnc.iter().map(|c| c.got.0).sum::<f64>(),
        mcnc.iter().filter_map(|c| c.got.2).sum::<f64>(),
        mcnc.iter().map(|c| c.want.0).sum::<f64>(),
        mcnc.iter().filter_map(|c| c.want.2).sum::<f64>(),
    ));
    if mismatches == 0 {
        out.push_str("trajectory: all records match\n");
        Ok(out)
    } else {
        Err(format!("{out}trajectory: {mismatches} record(s) differ"))
    }
}
