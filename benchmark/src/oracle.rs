//! The correctness gate: a seeded sample of the answers the program gave
//! is re-solved by `braid_sim::RefModel` — a naive bottom-up evaluator
//! that shares no machinery with the IE or the CMS — over the same
//! catalog and the same rules, and compared tuple for tuple.

use crate::drive::Asked;
use crate::gen::{self, Dataset, Rng};
use crate::rig;
use crate::workloads::Shape;
use braid_sim::RefModel;
use std::collections::BTreeSet;

/// Re-solve at least this many answers…
const MIN_SAMPLE: usize = 100;
/// …and at least this share of them.
const SAMPLE_SHARE: f64 = 0.05;
/// The model materialises the whole extension of every rule it is given
/// (~0.2 s per rule over `scan`), so it is given only the rules of the
/// sampled queries, and derivations are sampled from at most this many
/// rule pairs; the streams keep a pair's queries together so that ten
/// pairs still yield a hundred answers.
const MAX_PAIRS: usize = 10;

#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: usize,
    pub mismatches: Vec<String>,
}

/// Check every priming answer in `primed` and a seeded sample of `timed`.
/// Answers that already failed (errors, `Partial`) are not re-solved.
pub fn check(data: &Dataset, seed: u64, primed: &[Asked], timed: &[&Asked]) -> Verdict {
    let mut rng = Rng::new(seed ^ 0x04AC_1E00);
    let mut order: Vec<&Asked> = timed
        .iter()
        .copied()
        .filter(|a| a.problem.is_none())
        .collect();
    let target = MIN_SAMPLE
        .max((order.len() as f64 * SAMPLE_SHARE).ceil() as usize)
        .min(order.len());
    rng.shuffle(&mut order);

    let mut pairs = BTreeSet::new();
    let mut sample: Vec<&Asked> = primed
        .iter()
        .filter(|a| a.problem.is_none() && a.query.shape == Shape::Prime)
        .collect();
    let forced = sample.len();
    for asked in order {
        if sample.len() - forced == target {
            break;
        }
        if let Some(pair) = asked.query.pair() {
            if !pairs.contains(&pair) && pairs.len() == MAX_PAIRS {
                continue;
            }
            pairs.insert(pair);
        }
        sample.push(asked);
    }

    let predicates: BTreeSet<String> = sample
        .iter()
        .map(|a| a.query.predicate().to_string())
        .collect();
    let kb = gen::knowledge_base(&data.band_lo, predicates);
    let mut verdict = Verdict::default();
    let model = match RefModel::new(&data.catalog, &kb) {
        Ok(model) => model,
        Err(e) => {
            verdict
                .mismatches
                .push(format!("oracle did not build: {e}"));
            return verdict;
        }
    };
    for asked in sample {
        verdict.checked += 1;
        match model.solve_text(&asked.query.text) {
            Ok(expected) => {
                if expected.len() != asked.tuples || rig::digest(&expected) != asked.digest {
                    verdict.mismatches.push(format!(
                        "`{}`: program gave {} tuples, oracle {} (or same count, different tuples)",
                        asked.query.text,
                        asked.tuples,
                        expected.len()
                    ));
                }
            }
            Err(e) => verdict
                .mismatches
                .push(format!("`{}`: oracle failed: {e}", asked.query.text)),
        }
    }
    verdict
}
