//! Deterministic fault injection for resilience testing.
//!
//! Compiled only under the `faultpoints` cargo feature; the default
//! build contains none of this code and the [`faultpoint!`]/
//! [`faultpoint_corrupt!`] macros expand to nothing. With the feature
//! on, named *fault sites* threaded through the hot loops (cut
//! enumeration, NPN matching, commit, the technology mapper) consult a
//! process-wide fault plan and — deterministically, driven by a
//! SplitMix64 stream per rule — panic, sleep, or corrupt a value in
//! flight. The resilience layer in [`crate::opt::pipeline`] must then
//! degrade gracefully: forfeit the worker, roll the pass back, and
//! finish the flow with a valid netlist.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of rules, each
//! `SITE:KIND[:ONE_IN[:SEED]]`:
//!
//! * `SITE` — a fault-site name such as `rewrite.npn`, or `*` to match
//!   every site;
//! * `KIND` — `panic`, `corrupt`, or `delay<MILLIS>` (e.g. `delay25`);
//! * `ONE_IN` — trip on average once per `ONE_IN` arrivals (default 1:
//!   every arrival trips);
//! * `SEED` — SplitMix64 seed for this rule's decision stream
//!   (default 1).
//!
//! Example: `rewrite.npn:panic:5:7,techmap.map:delay20`. Plans come
//! from [`configure`] or, via [`configure_from_env`], the `MIG_FAULTS`
//! environment variable.
//!
//! # Determinism
//!
//! Each rule owns a private SplitMix64 stream advanced once per
//! matching arrival, so a given plan trips on the same arrival indices
//! in every run. Arrival *order* at a site inside parallel workers
//! depends on thread scheduling; single-threaded runs (`--jobs 1`) are
//! exactly reproducible, and the harness assertions (no abort, final
//! equivalence, ledger records the degradation) hold for any
//! interleaving.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mig_netlist::SplitMix64;

/// Environment variable read by [`configure_from_env`].
pub const ENV_VAR: &str = "MIG_FAULTS";

/// What a tripped fault site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognizable message (exercises `catch_unwind`
    /// isolation and checkpoint rollback).
    Panic,
    /// Sleep for the given number of milliseconds (exercises per-pass
    /// timeouts and wall-clock budgets).
    Delay(u64),
    /// Flip one pseudo-random bit in the value passed to
    /// [`faultpoint_corrupt!`] (exercises the post-pass spot check).
    Corrupt,
}

#[derive(Debug)]
struct Rule {
    site: String,
    kind: FaultKind,
    one_in: u64,
    rng: SplitMix64,
    hits: u64,
    trips: u64,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        self.site == "*" || self.site == site
    }

    /// Advance the decision stream for one arrival; `Some(draw)` when
    /// the rule trips.
    fn arrive(&mut self) -> Option<u64> {
        self.hits += 1;
        let draw = self.rng.next_u64();
        if self.one_in <= 1 || draw.is_multiple_of(self.one_in) {
            self.trips += 1;
            Some(draw)
        } else {
            None
        }
    }
}

/// Fast-path flag: false whenever the plan is empty, so an unconfigured
/// `faultpoints` build pays one relaxed atomic load per site arrival
/// and nothing else (this keeps the zero-fault ≤1.05× wall-time gate
/// honest).
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Vec<Rule>> = Mutex::new(Vec::new());

fn parse_rule(text: &str) -> Result<Rule, String> {
    let parts: Vec<&str> = text.split(':').collect();
    if parts.len() < 2 || parts.len() > 4 {
        return Err(format!(
            "fault rule `{text}`: expected SITE:KIND[:ONE_IN[:SEED]]"
        ));
    }
    let site = parts[0].trim();
    if site.is_empty() {
        return Err(format!("fault rule `{text}`: empty site name"));
    }
    let kind = match parts[1].trim() {
        "panic" => FaultKind::Panic,
        "corrupt" => FaultKind::Corrupt,
        k if k.starts_with("delay") => {
            let ms: u64 = k["delay".len()..]
                .parse()
                .map_err(|e| format!("fault rule `{text}`: bad delay millis: {e}"))?;
            FaultKind::Delay(ms)
        }
        other => {
            return Err(format!(
                "fault rule `{text}`: unknown kind `{other}` (panic, corrupt, delay<MS>)"
            ));
        }
    };
    let one_in: u64 = match parts.get(2) {
        Some(p) => p
            .trim()
            .parse()
            .map_err(|e| format!("fault rule `{text}`: bad ONE_IN: {e}"))?,
        None => 1,
    };
    let seed: u64 = match parts.get(3) {
        Some(p) => p
            .trim()
            .parse()
            .map_err(|e| format!("fault rule `{text}`: bad SEED: {e}"))?,
        None => 1,
    };
    Ok(Rule {
        site: site.to_string(),
        kind,
        one_in: one_in.max(1),
        rng: SplitMix64::seed_from_u64(seed),
        hits: 0,
        trips: 0,
    })
}

/// Install a fault plan (see the module docs for the grammar),
/// replacing any previous plan. An empty spec disarms every site.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        rules.push(parse_rule(part)?);
    }
    let armed = !rules.is_empty();
    *PLAN.lock().unwrap() = rules;
    ARMED.store(armed, Ordering::Release);
    Ok(())
}

/// Install the plan from the `MIG_FAULTS` environment variable, if set.
/// Unset or empty leaves every site disarmed.
pub fn configure_from_env() -> Result<(), String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => configure(&spec),
        Err(_) => Ok(()),
    }
}

/// Disarm every fault site and forget the plan.
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    PLAN.lock().unwrap().clear();
}

/// Per-rule `(site, arrivals, trips)` counters, for harness assertions
/// that a plan actually fired.
pub fn stats() -> Vec<(String, u64, u64)> {
    PLAN.lock()
        .unwrap()
        .iter()
        .map(|r| (r.site.clone(), r.hits, r.trips))
        .collect()
}

/// Total trips across all rules.
pub fn total_trips() -> u64 {
    PLAN.lock().unwrap().iter().map(|r| r.trips).sum()
}

/// Record one arrival at `site`; panics or sleeps if a matching rule
/// trips with that kind. Called via the [`faultpoint!`] macro.
pub fn hit(site: &str) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let mut tripped: Option<FaultKind> = None;
    {
        let mut plan = PLAN.lock().unwrap();
        for rule in plan.iter_mut() {
            if rule.matches(site) && rule.kind != FaultKind::Corrupt && rule.arrive().is_some() {
                tripped = Some(rule.kind);
                break;
            }
        }
        // The lock is released here: panicking or sleeping while
        // holding it would poison the plan for every other worker.
    }
    match tripped {
        Some(FaultKind::Panic) => panic!("injected fault: {ENV_VAR} site `{site}`"),
        Some(FaultKind::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        _ => {}
    }
}

/// Record one arrival at a corruption site and return `value`, with one
/// pseudo-random bit flipped if a matching `corrupt` rule trips. Called
/// via the [`faultpoint_corrupt!`] macro.
pub fn corrupt_u16(site: &str, value: u16) -> u16 {
    if !ARMED.load(Ordering::Acquire) {
        return value;
    }
    let mut plan = PLAN.lock().unwrap();
    for rule in plan.iter_mut() {
        if rule.matches(site) && rule.kind == FaultKind::Corrupt {
            if let Some(draw) = rule.arrive() {
                return value ^ (1u16 << (draw >> 32 & 15));
            }
        }
    }
    value
}

/// Serializes the tests that set the process-wide plan with the ones
/// that must run without a plan tripping.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    // A panicking test poisons the mutex; later tests only need mutual
    // exclusion, not the poison signal.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parsing_accepts_the_documented_grammar() {
        let _g = test_lock();
        configure("rewrite.npn:panic:5:7, techmap.map:delay20, *:corrupt").unwrap();
        let s = stats();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].0, "rewrite.npn");
        assert!(configure("nope").is_err());
        assert!(configure("a:frob").is_err());
        assert!(configure("a:delayx").is_err());
        assert!(configure(":panic").is_err());
        clear();
    }

    #[test]
    fn one_in_rules_trip_deterministically() {
        let _g = test_lock();
        configure("site:corrupt:3:42").unwrap();
        let first: Vec<u16> = (0..32).map(|_| corrupt_u16("site", 0)).collect();
        configure("site:corrupt:3:42").unwrap();
        let second: Vec<u16> = (0..32).map(|_| corrupt_u16("site", 0)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&v| v != 0), "rule never tripped");
        assert!(first.contains(&0), "one-in-3 tripped every time");
        // Unmatched sites pass values through untouched.
        assert_eq!(corrupt_u16("other", 7), 7);
        clear();
    }

    #[test]
    fn panic_rules_panic_with_a_recognizable_payload() {
        let _g = test_lock();
        configure("boom:panic").unwrap();
        let err = std::panic::catch_unwind(|| hit("boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "payload: {msg}");
        assert_eq!(total_trips(), 1);
        hit("quiet"); // non-matching sites are free
        assert_eq!(total_trips(), 1);
        clear();
        hit("boom"); // disarmed
    }
}
