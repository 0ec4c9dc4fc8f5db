//! Seeded inputs: the catalog, the knowledge base and every query text.
//!
//! The program under test only ever sees what this module generates. The
//! same seed gives byte-identical inputs; string widths are fixed so the
//! bytes a relation occupies do not depend on the seed.

use braid::{Catalog, KnowledgeBase};
use braid_relational::{Column, Relation, Schema, Tuple, Value, ValueType};

/// Distinct `fam` keys.
pub const FAM_KEYS: usize = 2_000;
/// `fam` rows per key (20,000 rows in all). A cold `look` costs one
/// remote scan of `fam`, ~100 ns a row: this size keeps a warm-up of a
/// thousand cold fetches under three seconds.
pub const FAM_ROWS_PER_KEY: usize = 10;
/// `scan` rows.
pub const SCAN_ROWS: usize = 100_000;
/// Distinct `scan.tag` values, mapped onto [`GROUPS`] by `dim`.
pub const TAGS: usize = 8;
/// Distinct `dim.grp` values (tags 0-2, 3-5, 6-7).
pub const GROUPS: usize = 3;
/// Generated `band_i` / `jband_i` rule pairs.
pub const BANDS: usize = 200;
/// Width of each band over `scan.v`, which is uniform in `0..SCAN_ROWS`:
/// a band holds ~400 rows, ~50 per tag.
pub const BAND_WIDTH: i64 = 400;

/// splitmix64: small, seedable, and good enough to shuffle and draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability ∝ 1/(rank+1) (Zipf, s = 1).
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Everything the program is given, plus the facts the workloads need
/// to phrase queries about it.
pub struct Dataset {
    pub catalog: Catalog,
    pub kb: KnowledgeBase,
    /// `[lo, lo + BAND_WIDTH)` of rule pair `i`.
    pub band_lo: Vec<i64>,
}

pub fn key_name(i: usize) -> String {
    format!("k{i:04}")
}

pub fn tag_name(i: usize) -> String {
    format!("tag{i}")
}

pub fn group_name(i: usize) -> String {
    format!("g{i}")
}

/// Which group `dim` maps a tag to.
pub fn group_of_tag(tag: usize) -> usize {
    (tag / 3).min(GROUPS - 1)
}

pub fn look_query(key: usize) -> String {
    format!("?- look({}, V).", key_name(key))
}

pub fn band_query(band: usize, tag: usize) -> String {
    format!("?- band_{band}({}, K, V).", tag_name(tag))
}

pub fn jband_query(band: usize, group: usize) -> String {
    format!("?- jband_{band}({}, K, V).", group_name(group))
}

pub const ALL_QUERY: &str = "?- all(K, V, T).";
pub const DIMALL_QUERY: &str = "?- dimall(T, G).";

fn schema(name: &str, cols: &[(&str, ValueType)]) -> Schema {
    Schema::new(
        name,
        cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
    )
    .expect("generated column names are distinct")
}

pub fn dataset(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed ^ 0xB4A1_D000);

    let mut fam = Vec::with_capacity(FAM_KEYS * FAM_ROWS_PER_KEY);
    for k in 0..FAM_KEYS {
        for j in 0..FAM_ROWS_PER_KEY {
            // The slot prefix keeps the ten values of a key distinct.
            let v = format!("v{j}{:06}", rng.below(1_000_000));
            fam.push(Tuple::new(vec![Value::str(key_name(k)), Value::str(v)]));
        }
    }
    rng.shuffle(&mut fam);

    let scan: Vec<Tuple> = (0..SCAN_ROWS)
        .map(|k| {
            Tuple::new(vec![
                Value::int(k as i64),
                Value::int(rng.below(SCAN_ROWS) as i64),
                Value::str(tag_name(rng.below(TAGS))),
            ])
        })
        .collect();

    let dim = (0..TAGS).map(|t| {
        Tuple::new(vec![
            Value::str(tag_name(t)),
            Value::str(group_name(group_of_tag(t))),
        ])
    });

    let str_t = ValueType::Str;
    let int_t = ValueType::Int;
    let mut catalog = Catalog::new();
    for rel in [
        Relation::from_tuples(schema("fam", &[("k", str_t), ("v", str_t)]), fam),
        Relation::from_tuples(
            schema("scan", &[("k", int_t), ("v", int_t), ("tag", str_t)]),
            scan,
        ),
        Relation::from_tuples(schema("dim", &[("tag", str_t), ("grp", str_t)]), dim),
    ] {
        catalog.install(rel.expect("generated tuples match their schema"));
    }

    let band_lo: Vec<i64> = (0..BANDS)
        .map(|_| rng.below(SCAN_ROWS - BAND_WIDTH as usize) as i64)
        .collect();
    let kb = knowledge_base(&band_lo, predicates());
    Dataset {
        catalog,
        kb,
        band_lo,
    }
}

/// Every predicate the knowledge base defines.
pub fn predicates() -> Vec<String> {
    ["look", "all", "dimall"]
        .into_iter()
        .map(String::from)
        .chain((0..BANDS).flat_map(|i| [format!("band_{i}"), format!("jband_{i}")]))
        .collect()
}

/// The one rule that defines `pred`.
fn rule(band_lo: &[i64], pred: &str) -> String {
    let band = |i: &str| {
        let lo = band_lo[i.parse::<usize>().expect("band index")];
        (lo, lo + BAND_WIDTH)
    };
    // In `jband` the comparisons stand before `dim`, so the oracle's
    // nested-loop evaluator filters `scan` before it joins; the IE
    // reorders the body by its own rules either way.
    match pred.split_once('_') {
        None if pred == "look" => "look(K, V) :- fam(K, V).".into(),
        None if pred == "all" => "all(K, V, T) :- scan(K, V, T).".into(),
        None if pred == "dimall" => "dimall(T, G) :- dim(T, G).".into(),
        Some(("band", i)) => {
            let (lo, hi) = band(i);
            format!("{pred}(T, K, V) :- scan(K, V, T), V >= {lo}, V < {hi}.")
        }
        Some(("jband", i)) => {
            let (lo, hi) = band(i);
            format!("{pred}(G, K, V) :- scan(K, V, T), V >= {lo}, V < {hi}, dim(T, G).")
        }
        _ => panic!("no rule defines `{pred}`"),
    }
}

/// The rules for `preds` over the three base relations. The program gets
/// every predicate; the oracle only those it re-solves, because it
/// materialises each rule's whole extension.
pub fn knowledge_base(band_lo: &[i64], preds: impl IntoIterator<Item = String>) -> KnowledgeBase {
    let program: Vec<String> = preds.into_iter().map(|p| rule(band_lo, &p)).collect();
    let mut kb = KnowledgeBase::new();
    kb.declare_base("fam", 2);
    kb.declare_base("scan", 3);
    kb.declare_base("dim", 2);
    kb.add_program(&program.join("\n"))
        .expect("generated rules are well formed");
    kb
}
