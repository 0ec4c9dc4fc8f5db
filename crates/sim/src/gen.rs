//! Seeded scenario generation: one `u64` in, one replayable scenario out.
//!
//! Every draw goes through a self-contained SplitMix64 stream, so the
//! generator has no dependency on external RNG crates and the mapping
//! from seed to scenario is pinned by a snapshot test (seed-stability
//! guard): regression seeds recorded in tests stay meaningful across
//! refactors, or the snapshot fails loudly.

use crate::scenario::{Dataset, FaultSpec, SimScenario};
use braid::Strategy;

/// SplitMix64: tiny, fast, deterministic, good enough for scenario
/// composition (this is not a statistical-quality concern).
#[derive(Debug, Clone)]
pub struct SimRng(u64);

impl SimRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> SimRng {
        SimRng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `permille`/1000.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// A probe-able derived view: name, arity, and the constant domain each
/// argument position draws bound values from.
struct View {
    name: &'static str,
    arg_domains: Vec<usize>,
}

/// Views a query can probe, mirroring the workload's derived relations,
/// plus the constant domains their argument positions range over.
fn views(dataset: &Dataset) -> (Vec<View>, Vec<Vec<String>>) {
    match *dataset {
        Dataset::Genealogy {
            generations,
            branching,
            ..
        } => {
            let n = braid_workload::genealogy::person_count(generations, branching);
            let persons = (0..n).map(|i| format!("p{i}")).collect();
            let mk = |name, arity: usize| View {
                name,
                arg_domains: vec![0; arity],
            };
            (
                vec![
                    mk("grandparent", 2),
                    mk("sibling", 2),
                    mk("ancestor", 2),
                    mk("cousin", 2),
                    mk("uncle", 2),
                    mk("elder_parent", 2),
                    mk("adult", 1),
                ],
                vec![persons],
            )
        }
        Dataset::Suppliers {
            parts, suppliers, ..
        } => {
            let part_names = (0..parts).map(|i| format!("part{i}")).collect();
            let sup_names = (0..suppliers).map(|i| format!("sup{i}")).collect();
            (
                vec![
                    View {
                        name: "component",
                        arg_domains: vec![0, 0],
                    },
                    View {
                        name: "bulk_supplier",
                        arg_domains: vec![1, 0],
                    },
                    View {
                        name: "supplies_component",
                        arg_domains: vec![1, 0],
                    },
                    View {
                        name: "colocated",
                        arg_domains: vec![1, 1],
                    },
                ],
                vec![part_names, sup_names],
            )
        }
    }
}

/// One query: a derived-view probe with the first argument bound most of
/// the time (the paper's instance-query pattern), occasionally fully
/// unbound (whole-view scans that stress caching and generalization).
fn gen_query(rng: &mut SimRng, views: &[View], domains: &[Vec<String>]) -> String {
    let view = &views[rng.below(views.len() as u64) as usize];
    let vars = ["X", "Y", "Z"];
    // Decide per argument: bound to a domain constant, or free.
    let bind_first = rng.chance(700);
    let bind_rest = rng.chance(250);
    let args: Vec<String> = view
        .arg_domains
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let bound = if i == 0 { bind_first } else { bind_rest };
            if bound {
                rng.pick(&domains[d]).clone()
            } else {
                vars[i].to_string()
            }
        })
        .collect();
    format!("?- {}({}).", view.name, args.join(", "))
}

impl SimScenario {
    /// Generate the scenario for a seed — the whole point: query streams,
    /// session count, interleaving, knobs and faults all flow from this
    /// one number, so a failing seed *is* the repro.
    pub fn generate(seed: u64) -> SimScenario {
        let mut rng = SimRng::new(seed);

        let dataset = if rng.chance(700) {
            Dataset::Genealogy {
                generations: rng.range(2, 3) as u32,
                branching: 2,
                seed: rng.next_u64() % 10_000,
            }
        } else {
            Dataset::Suppliers {
                parts: rng.range(10, 18) as u32,
                fanout: 3,
                suppliers: rng.range(3, 6) as u32,
                cities: 4,
                seed: rng.next_u64() % 10_000,
            }
        };

        let strategy = match rng.below(6) {
            0 => Strategy::Interpreted,
            1 | 2 => Strategy::FullyCompiled,
            _ => Strategy::ConjunctionCompiled,
        };

        let (view_list, domains) = views(&dataset);
        let session_count = rng.range(1, 4) as usize;
        let sessions: Vec<Vec<String>> = (0..session_count)
            .map(|_| {
                (0..rng.range(2, 6))
                    .map(|_| gen_query(&mut rng, &view_list, &domains))
                    .collect()
            })
            .collect();

        // Interleave: repeatedly dispatch a random session that still has
        // pending queries. This fixes the step order for exact replay.
        let mut remaining: Vec<usize> = sessions.iter().map(Vec::len).collect();
        let mut schedule = Vec::with_capacity(remaining.iter().sum());
        while remaining.iter().any(|&r| r > 0) {
            let live: Vec<usize> = (0..remaining.len()).filter(|&s| remaining[s] > 0).collect();
            let s = *rng.pick(&live);
            remaining[s] -= 1;
            schedule.push(s);
        }

        let capacity_bytes = if rng.chance(300) {
            Some(rng.range(2_000, 24_000))
        } else {
            None
        };

        let faults = if rng.chance(400) {
            let mut spec = FaultSpec {
                seed: rng.next_u64(),
                transient_permille: if rng.chance(700) {
                    rng.range(5, 80) as u32
                } else {
                    0
                },
                timeout_permille: if rng.chance(300) {
                    rng.range(5, 40) as u32
                } else {
                    0
                },
                latency_spike_permille: if rng.chance(400) {
                    rng.range(10, 100) as u32
                } else {
                    0
                },
                latency_spike_units: 50,
                disconnect_permille: if rng.chance(300) {
                    rng.range(5, 40) as u32
                } else {
                    0
                },
                disconnect_after_tuples: rng.range(0, 6),
                outages: Vec::new(),
            };
            if rng.chance(300) {
                let start = rng.range(0, 20);
                spec.outages.push((start, start + rng.range(5, 30)));
            }
            Some(spec)
        } else {
            None
        };

        SimScenario {
            seed,
            dataset,
            strategy,
            sessions,
            schedule,
            capacity_bytes,
            shards: rng.range(1, 4) as u32,
            batch_size: *rng.pick(&[1u32, 7, 32, 256]),
            lazy: rng.chance(800),
            prefetch: rng.chance(800),
            generalization: rng.chance(800),
            subsumption: rng.chance(900),
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = SimScenario::generate(seed);
            let b = SimScenario::generate(seed);
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn generated_scenarios_validate_and_round_trip() {
        for seed in 0..200u64 {
            let sc = SimScenario::generate(seed);
            sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(sc.query_count() >= 2);
            let back = SimScenario::from_json(&sc.to_json())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, sc, "seed {seed} must survive the JSON round trip");
        }
    }

    #[test]
    fn seeds_diversify_the_space() {
        let mut with_faults = 0;
        let mut suppliers = 0;
        let mut capped = 0;
        let mut multi = 0;
        for seed in 0..100u64 {
            let sc = SimScenario::generate(seed);
            with_faults += usize::from(sc.faults_active());
            suppliers += usize::from(matches!(sc.dataset, Dataset::Suppliers { .. }));
            capped += usize::from(sc.capacity_bytes.is_some());
            multi += usize::from(sc.sessions.len() > 1);
        }
        assert!(with_faults > 10, "faults under-represented: {with_faults}");
        assert!(suppliers > 5, "suppliers under-represented: {suppliers}");
        assert!(capped > 5, "capacity pressure under-represented: {capped}");
        assert!(multi > 30, "multi-session under-represented: {multi}");
    }
}
