//! The four workloads: what each primes, how its cache is sized, and the
//! endless seeded query stream each connection draws from.
//!
//! Every stream is stationary — query `i` meets the same cache state
//! whether `i` is 10 or 10,000 — so a run may stop at a deadline or at a
//! count and measure the same thing.

use crate::gen::{self, Rng, Zipf, BANDS, FAM_KEYS, GROUPS, TAGS};

/// Bytes `SharedCache::used_bytes` charges for one cached `look` result
/// (ten two-string tuples) and for the cached `all` result (the whole of
/// `scan`). Capacities are pinned in bytes, as a user would set them;
/// these two only explain how the pinned numbers were chosen.
const LOOK_ELEMENT_BYTES: usize = 592;
const SCAN_ELEMENT_BYTES: usize = 5_200_192;

/// `warm_probe`: distinct keys cached before timing.
const WARM_POPULATION: usize = 1_000;
/// `cold_fetch`: the cache holds about a tenth of all `look` results.
const COLD_CAPACITY_BYTES: usize = FAM_KEYS / 10 * LOOK_ELEMENT_BYTES;
/// `shared_mix`: keys both connections keep hitting.
const MIX_HOT_KEYS: usize = 200;
/// `shared_mix`: cold results the cache has room for beside `scan` and
/// the hot set. A hot key is touched every ~290 queries and 400 cold
/// inserts take ~2,000, so it is all but never the least recently used;
/// a cold key (1,800 of them, walked in order) is always evicted before
/// its turn comes round again.
const MIX_COLD_SLOTS: usize = 400;
const MIX_CAPACITY_BYTES: usize =
    SCAN_ELEMENT_BYTES + (MIX_HOT_KEYS + MIX_COLD_SLOTS) * LOOK_ELEMENT_BYTES;
/// `shared_mix`: the second connection walks the cold range this many
/// slots behind the first, so their misses race on neighbouring keys.
const MIX_WALK_GAP: usize = 3;

/// What kind of work a query is meant to provoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `look(k, V)`; `fetches` when `k` lies outside the warmed set, so
    /// the cache cannot answer and the CMS goes to the remote engine.
    Look { fetches: bool },
    /// `all` / `dimall`: ships a whole base relation into the cache.
    Prime,
    /// σ over the cached `scan` element.
    Band { pair: usize, tag: usize },
    /// σ⋈ over the cached `scan` and `dim` elements.
    JBand { pair: usize, group: usize },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub shape: Shape,
}

impl Query {
    fn look(key: usize, fetches: bool) -> Query {
        Query {
            text: gen::look_query(key),
            shape: Shape::Look { fetches },
        }
    }

    fn prime(text: &str) -> Query {
        Query {
            text: text.into(),
            shape: Shape::Prime,
        }
    }

    fn band(pair: usize, tag: usize) -> Query {
        Query {
            text: gen::band_query(pair, tag),
            shape: Shape::Band { pair, tag },
        }
    }

    fn jband(pair: usize, group: usize) -> Query {
        Query {
            text: gen::jband_query(pair, group),
            shape: Shape::JBand { pair, group },
        }
    }

    /// The `band_i`/`jband_i` rule pair the query names, if any.
    pub fn pair(&self) -> Option<usize> {
        match self.shape {
            Shape::Band { pair, .. } | Shape::JBand { pair, .. } => Some(pair),
            Shape::Look { .. } | Shape::Prime => None,
        }
    }

    /// The predicate the goal names.
    pub fn predicate(&self) -> &str {
        let goal = self.text.trim_start_matches("?- ");
        goal.split('(').next().unwrap_or(goal)
    }

    /// Whether the query is meant to reach the remote engine.
    pub fn fetches(&self) -> bool {
        matches!(self.shape, Shape::Look { fetches: true } | Shape::Prime)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmProbe,
    ColdFetch,
    ScanDerive,
    SharedMix,
}

pub const ALL: [Workload; 4] = [
    Workload::WarmProbe,
    Workload::ColdFetch,
    Workload::ScanDerive,
    Workload::SharedMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmProbe => "warm_probe",
            Workload::ColdFetch => "cold_fetch",
            Workload::ScanDerive => "scan_derive",
            Workload::SharedMix => "shared_mix",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, each on its own thread: never more than the
    /// box has cores, never more than two.
    fn connections(self) -> usize {
        match self {
            Workload::SharedMix => std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(2),
            _ => 1,
        }
    }

    pub fn cache_capacity_bytes(self) -> usize {
        match self {
            Workload::WarmProbe | Workload::ScanDerive => usize::MAX,
            Workload::ColdFetch => COLD_CAPACITY_BYTES,
            Workload::SharedMix => MIX_CAPACITY_BYTES,
        }
    }

    /// Timed queries per connection of the full-size fixed-count run;
    /// `--smoke` runs a fiftieth.
    pub fn full_queries(self) -> usize {
        match self {
            Workload::WarmProbe => 15_000,
            Workload::ColdFetch => 5_000,
            Workload::ScanDerive => 2_000,
            Workload::SharedMix => 6_000,
        }
    }

    /// The layout of keys this seed gives the workload.
    pub fn plan(self, seed: u64, smoke: bool) -> Plan {
        let mut rng = Rng::new(seed ^ 0x9A7E_57A7);
        let mut keys: Vec<usize> = (0..FAM_KEYS).collect();
        rng.shuffle(&mut keys);
        let mut pairs: Vec<usize> = (0..BANDS).collect();
        rng.shuffle(&mut pairs);
        Plan {
            workload: self,
            // Counted now: once set-up pins the process to one core,
            // `available_parallelism` says one.
            connections: self.connections(),
            seed,
            // A smoke run warms a tenth of the population.
            shrink: if smoke { 10 } else { 1 },
            keys,
            pairs,
        }
    }
}

/// A workload bound to a seed: the priming queries and the streams.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub connections: usize,
    seed: u64,
    shrink: usize,
    /// All `fam` keys in this seed's order; workloads carve their hot,
    /// warm and cold ranges out of it.
    keys: Vec<usize>,
    /// All rule pairs in this seed's order.
    pairs: Vec<usize>,
}

impl Plan {
    /// Untimed queries that bring the cache to the workload's steady
    /// state. Their cost lands in `setup_s`.
    pub fn warmup(&self) -> Vec<Query> {
        match self.workload {
            Workload::WarmProbe => self.keys[..WARM_POPULATION / self.shrink]
                .iter()
                .map(|&k| Query::look(k, true))
                .collect(),
            // Fill the cache with the keys the walk reaches last, so the
            // first timed fetch already evicts.
            Workload::ColdFetch => {
                let fill = COLD_CAPACITY_BYTES / LOOK_ELEMENT_BYTES * 3 / 2 / self.shrink;
                self.keys[FAM_KEYS - fill..]
                    .iter()
                    .map(|&k| Query::look(k, true))
                    .collect()
            }
            Workload::ScanDerive => vec![
                Query::prime(gen::ALL_QUERY),
                Query::prime(gen::DIMALL_QUERY),
            ],
            // The cold keys the walk reaches last fill the cache first, so
            // the population is at its steady size from the first timed
            // query; the hot keys and `scan` go in last, the most recently
            // used.
            Workload::SharedMix => {
                let fill = MIX_COLD_SLOTS * 3 / 2 / self.shrink;
                self.keys[FAM_KEYS - fill..]
                    .iter()
                    .chain(&self.keys[..MIX_HOT_KEYS / self.shrink])
                    .map(|&k| Query::look(k, true))
                    .chain([Query::prime(gen::ALL_QUERY)])
                    .collect()
            }
        }
    }

    /// The endless query stream of connection `conn`. The same plan and
    /// connection always give the same stream.
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            plan: self,
            conn,
            rng: Rng::new(self.seed ^ 0x57EA_4000 ^ (conn as u64) << 32),
            zipf: match self.workload {
                Workload::WarmProbe => Some(Zipf::new(WARM_POPULATION / self.shrink)),
                _ => None,
            },
            pos: 0,
        }
    }
}

#[derive(Debug)]
pub struct Stream<'a> {
    plan: &'a Plan,
    conn: usize,
    rng: Rng,
    zipf: Option<Zipf>,
    /// Position in the workload's deterministic walk (cold keys, or
    /// derivation slots).
    pos: usize,
}

/// Derivation `slot` of the walk over rule pairs: each pair gets its
/// eight `band` tags and three `jband` groups, interleaved, before the
/// walk moves on — 2,200 distinct queries a lap, and a contiguous run of
/// queries touches few pairs, which is what keeps the oracle affordable.
fn derivation(pairs: &[usize], slot: usize) -> Query {
    const PER_PAIR: usize = TAGS + GROUPS;
    let pair = pairs[slot / PER_PAIR % pairs.len()];
    let step = slot % PER_PAIR;
    if step < 2 * GROUPS {
        if step.is_multiple_of(2) {
            Query::band(pair, step / 2)
        } else {
            Query::jband(pair, step / 2)
        }
    } else {
        Query::band(pair, step - GROUPS)
    }
}

impl Stream<'_> {
    pub fn next_query(&mut self) -> Query {
        let keys = &self.plan.keys;
        match self.plan.workload {
            Workload::WarmProbe => {
                let zipf = self.zipf.as_ref().expect("warm_probe draws Zipf ranks");
                Query::look(keys[zipf.draw(&mut self.rng)], false)
            }
            Workload::ColdFetch => {
                self.pos += 1;
                Query::look(keys[(self.pos - 1) % FAM_KEYS], true)
            }
            Workload::ScanDerive => {
                self.pos += 1;
                derivation(&self.plan.pairs, self.pos - 1)
            }
            Workload::SharedMix => {
                let hot = MIX_HOT_KEYS / self.plan.shrink;
                match self.rng.below(10) {
                    0..=6 => Query::look(keys[self.rng.below(hot)], false),
                    7..=8 => {
                        let cold = &keys[MIX_HOT_KEYS..];
                        self.pos += 1;
                        let at = self.pos - 1 + self.conn * MIX_WALK_GAP;
                        Query::look(cold[at % cold.len()], true)
                    }
                    _ => Query::band(self.plan.pairs[self.rng.below(BANDS)], self.rng.below(TAGS)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn take(plan: &Plan, conn: usize, n: usize) -> Vec<Query> {
        let mut s = plan.stream(conn);
        (0..n).map(|_| s.next_query()).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for w in ALL {
            let a = take(&w.plan(7, false), 0, 500);
            assert_eq!(a, take(&w.plan(7, false), 0, 500), "{}", w.name());
            assert_ne!(a, take(&w.plan(8, false), 0, 500), "{}", w.name());
        }
    }

    #[test]
    fn warm_probe_only_asks_for_warmed_keys() {
        let plan = Workload::WarmProbe.plan(3, false);
        let warmed: BTreeSet<String> = plan.warmup().into_iter().map(|q| q.text).collect();
        assert_eq!(warmed.len(), WARM_POPULATION);
        assert!(take(&plan, 0, 5_000)
            .iter()
            .all(|q| warmed.contains(&q.text)));
    }

    #[test]
    fn cold_fetch_never_revisits_a_key_within_the_cache_window() {
        let plan = Workload::ColdFetch.plan(3, false);
        let resident = COLD_CAPACITY_BYTES / LOOK_ELEMENT_BYTES;
        let mut recent: Vec<String> = plan.warmup().into_iter().map(|q| q.text).collect();
        for q in take(&plan, 0, 3 * FAM_KEYS) {
            let window = &recent[recent.len() - resident..];
            assert!(!window.contains(&q.text));
            recent.push(q.text);
        }
    }

    #[test]
    fn scan_derive_lap_has_no_repeats() {
        let plan = Workload::ScanDerive.plan(3, false);
        let lap = BANDS * (TAGS + GROUPS);
        let texts: BTreeSet<String> = take(&plan, 0, lap).into_iter().map(|q| q.text).collect();
        assert_eq!(texts.len(), lap);
    }

    #[test]
    fn shared_mix_connections_walk_the_same_cold_keys_a_few_slots_apart() {
        let plan = Workload::SharedMix.plan(3, false);
        let cold = |conn| -> Vec<String> {
            take(&plan, conn, 4_000)
                .into_iter()
                .filter(|q| q.fetches())
                .map(|q| q.text)
                .collect()
        };
        let (a, b) = (cold(0), cold(1));
        assert_eq!(a[MIX_WALK_GAP..MIX_WALK_GAP + 100], b[..100]);
        let share = a.len() as f64 / 4_000.0;
        assert!((0.17..0.23).contains(&share), "miss share {share}");
    }
}
