//! Shared helpers for the experiment suite.

use crate::harness::{run_load, LoadConfig, LoadOutcome};
use braid_relational::{Relation, Schema, Tuple, Value};
use braid_remote::Catalog;
use braid_sim::SpawnMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic binary relation `name(k, v)` with `rows` rows over
/// `distinct_keys` keys (values unique per row).
pub fn binary_relation(name: &str, rows: usize, distinct_keys: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::new(Schema::of_strs(name, &["k", "v"]));
    for i in 0..rows {
        let k = rng.gen_range(0..distinct_keys.max(1));
        r.insert(Tuple::new(vec![
            Value::str(format!("k{k}")),
            Value::str(format!("v{i}")),
        ]))
        .expect("arity 2");
    }
    r
}

/// A catalog holding one synthetic binary relation.
pub fn single_relation_catalog(
    name: &str,
    rows: usize,
    distinct_keys: usize,
    seed: u64,
) -> Catalog {
    let mut c = Catalog::new();
    c.install(binary_relation(name, rows, distinct_keys, seed));
    c
}

/// Format a duration in fractional milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a ratio like `3.4x`.
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", num / den)
    }
}

/// Run one load-harness lane (E18, E19) and hold it to the oracle: every
/// session digest matches the reference model and the server drained.
/// Non-quick runs fork real processes via self-exec (the report binary
/// installs the worker hook); quick runs and unit tests stay in-process
/// with thread workers, since a libtest binary cannot self-exec.
pub fn load_lane(quick: bool, cfg: LoadConfig) -> LoadOutcome {
    let spawn = if quick {
        SpawnMode::Thread
    } else {
        SpawnMode::Process(std::env::current_exe().expect("own binary path"))
    };
    let out = run_load(&LoadConfig { spawn, ..cfg }).expect("load harness runs");
    assert!(
        out.failed_sessions.is_empty(),
        "sessions diverged from the reference model: {:?}",
        out.failed_sessions
    );
    assert!(out.passed(), "load run failed: {out:?}");
    out
}
