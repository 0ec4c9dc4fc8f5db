//! The scenario DSL: everything a simulation run needs, as plain data.
//!
//! A [`SimScenario`] is fully self-describing — dataset parameters (the
//! ground-truth database is rebuilt from them, never shipped), per-session
//! query streams, the step schedule that fixes the interleaving, cache /
//! executor knobs and an optional fault specification. Serialization is a
//! small hand-rolled JSON dialect (see [`crate::json`]) so failing
//! scenarios can be replayed byte-for-byte from a pasted string.

use crate::json::Json;
use braid::Strategy;
use braid::{Catalog, KnowledgeBase};
use braid_remote::FaultPlan;
use braid_workload::{genealogy, suppliers};

/// Which ground-truth database a scenario runs over. Parameters, not
/// data: both the system under test and the reference model rebuild the
/// catalog deterministically from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dataset {
    /// The family-tree workload (`braid_workload::genealogy`).
    Genealogy {
        /// Tree depth.
        generations: u32,
        /// Children per person.
        branching: u32,
        /// Data seed (sex/age assignment).
        seed: u64,
    },
    /// The parts/suppliers workload (`braid_workload::suppliers`).
    Suppliers {
        /// Number of parts.
        parts: u32,
        /// Sub-part fanout.
        fanout: u32,
        /// Number of suppliers.
        suppliers: u32,
        /// Number of cities.
        cities: u32,
        /// Data seed.
        seed: u64,
    },
}

impl Dataset {
    /// Build the catalog (deterministic in the parameters).
    pub fn catalog(&self) -> Catalog {
        match *self {
            Dataset::Genealogy {
                generations,
                branching,
                seed,
            } => genealogy::catalog(generations, branching, seed),
            Dataset::Suppliers {
                parts,
                fanout,
                suppliers: sup,
                cities,
                seed,
            } => suppliers::catalog(
                parts as usize,
                fanout as usize,
                sup as usize,
                cities as usize,
                seed,
            ),
        }
    }

    /// The matching rule set.
    pub fn knowledge_base(&self) -> KnowledgeBase {
        match self {
            Dataset::Genealogy { .. } => genealogy::knowledge_base(),
            Dataset::Suppliers { .. } => suppliers::knowledge_base(),
        }
    }

    /// Serialize as a JSON value (used by [`SimScenario::to_json`] and
    /// by the load harness's worker specs).
    pub fn to_json(&self) -> Json {
        match *self {
            Dataset::Genealogy {
                generations,
                branching,
                seed,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("genealogy".into())),
                ("generations".into(), Json::UInt(generations.into())),
                ("branching".into(), Json::UInt(branching.into())),
                ("seed".into(), Json::UInt(seed)),
            ]),
            Dataset::Suppliers {
                parts,
                fanout,
                suppliers: sup,
                cities,
                seed,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("suppliers".into())),
                ("parts".into(), Json::UInt(parts.into())),
                ("fanout".into(), Json::UInt(fanout.into())),
                ("suppliers".into(), Json::UInt(sup.into())),
                ("cities".into(), Json::UInt(cities.into())),
                ("seed".into(), Json::UInt(seed)),
            ]),
        }
    }

    /// Parse a dataset serialized by [`Dataset::to_json`].
    ///
    /// # Errors
    /// Missing fields, wrong types, or an unknown dataset kind.
    pub fn from_json(v: &Json) -> Result<Dataset, String> {
        let kind = v
            .req("kind")?
            .as_str()
            .ok_or("dataset kind must be a string")?;
        let u32_field = |key: &str| -> Result<u32, String> {
            v.req(key)?
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("dataset field `{key}` must be a u32"))
        };
        let seed = v
            .req("seed")?
            .as_u64()
            .ok_or("dataset seed must be a u64")?;
        match kind {
            "genealogy" => Ok(Dataset::Genealogy {
                generations: u32_field("generations")?,
                branching: u32_field("branching")?,
                seed,
            }),
            "suppliers" => Ok(Dataset::Suppliers {
                parts: u32_field("parts")?,
                fanout: u32_field("fanout")?,
                suppliers: u32_field("suppliers")?,
                cities: u32_field("cities")?,
                seed,
            }),
            other => Err(format!("unknown dataset kind `{other}`")),
        }
    }
}

/// Deterministic fault injection, as integers (per-mille probabilities
/// and unit counts) so the JSON round-trip is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fault-plan seed (independent of the scenario seed).
    pub seed: u64,
    /// Transient `Unavailable` probability, in ‰ per request.
    pub transient_permille: u32,
    /// Timeout probability, in ‰ per request.
    pub timeout_permille: u32,
    /// Latency-spike probability, in ‰ per request.
    pub latency_spike_permille: u32,
    /// Extra latency units added by a spike.
    pub latency_spike_units: u64,
    /// Mid-stream disconnect probability, in ‰ per request.
    pub disconnect_permille: u32,
    /// Tuples delivered before a disconnect fires.
    pub disconnect_after_tuples: u64,
    /// Hard outage windows `[start, end)` on the request clock.
    pub outages: Vec<(u64, u64)>,
}

impl FaultSpec {
    /// Lower to the remote layer's [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        let mut p = FaultPlan::seeded(self.seed)
            .with_transient_failures(self.transient_permille as f64 / 1000.0)
            .with_timeouts(self.timeout_permille as f64 / 1000.0)
            .with_latency_spikes(
                self.latency_spike_permille as f64 / 1000.0,
                self.latency_spike_units,
            )
            .with_disconnects(
                self.disconnect_permille as f64 / 1000.0,
                self.disconnect_after_tuples,
            );
        for &(start, end) in &self.outages {
            p = p.with_outage(start, end);
        }
        p
    }

    /// Does this spec inject anything at all?
    pub fn is_active(&self) -> bool {
        self.transient_permille > 0
            || self.timeout_permille > 0
            || self.latency_spike_permille > 0
            || self.disconnect_permille > 0
            || !self.outages.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::UInt(self.seed)),
            (
                "transient_permille".into(),
                Json::UInt(self.transient_permille.into()),
            ),
            (
                "timeout_permille".into(),
                Json::UInt(self.timeout_permille.into()),
            ),
            (
                "latency_spike_permille".into(),
                Json::UInt(self.latency_spike_permille.into()),
            ),
            (
                "latency_spike_units".into(),
                Json::UInt(self.latency_spike_units),
            ),
            (
                "disconnect_permille".into(),
                Json::UInt(self.disconnect_permille.into()),
            ),
            (
                "disconnect_after_tuples".into(),
                Json::UInt(self.disconnect_after_tuples),
            ),
            (
                "outages".into(),
                Json::Arr(
                    self.outages
                        .iter()
                        .map(|&(s, e)| Json::Arr(vec![Json::UInt(s), Json::UInt(e)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<FaultSpec, String> {
        let u64_field = |key: &str| -> Result<u64, String> {
            v.req(key)?
                .as_u64()
                .ok_or_else(|| format!("fault field `{key}` must be a u64"))
        };
        let permille = |key: &str| -> Result<u32, String> {
            u64_field(key)?
                .try_into()
                .map_err(|_| format!("fault field `{key}` out of range"))
        };
        let mut outages = Vec::new();
        for w in v
            .req("outages")?
            .as_arr()
            .ok_or("outages must be an array")?
        {
            let pair = w
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("outage must be a pair")?;
            let s = pair[0].as_u64().ok_or("outage start must be a u64")?;
            let e = pair[1].as_u64().ok_or("outage end must be a u64")?;
            outages.push((s, e));
        }
        Ok(FaultSpec {
            seed: u64_field("seed")?,
            transient_permille: permille("transient_permille")?,
            timeout_permille: permille("timeout_permille")?,
            latency_spike_permille: permille("latency_spike_permille")?,
            latency_spike_units: u64_field("latency_spike_units")?,
            disconnect_permille: permille("disconnect_permille")?,
            disconnect_after_tuples: u64_field("disconnect_after_tuples")?,
            outages,
        })
    }
}

/// One simulated run: data, queries, interleaving, knobs, faults.
#[derive(Debug, Clone, PartialEq)]
pub struct SimScenario {
    /// The seed this scenario was generated from (provenance only; the
    /// scenario is self-describing and replays without it).
    pub seed: u64,
    /// Ground-truth database parameters.
    pub dataset: Dataset,
    /// Inference strategy every session uses.
    pub strategy: Strategy,
    /// Query stream per session.
    pub sessions: Vec<Vec<String>>,
    /// Step schedule: `schedule[i]` is the session index that solves its
    /// next pending query at step `i`. Occurrence counts match session
    /// lengths, so interleavings replay exactly.
    pub schedule: Vec<usize>,
    /// Cache capacity in bytes (`None` ⇒ unbounded).
    pub capacity_bytes: Option<u64>,
    /// Shared-cache shard count.
    pub shards: u32,
    /// Executor batch size.
    pub batch_size: u32,
    /// Lazy cache-only answers.
    pub lazy: bool,
    /// Path-expression prefetching.
    pub prefetch: bool,
    /// Advice-driven generalization.
    pub generalization: bool,
    /// Subsumption reuse.
    pub subsumption: bool,
    /// Deterministic fault injection, if any.
    pub faults: Option<FaultSpec>,
}

impl SimScenario {
    /// Total number of queries across every session.
    pub fn query_count(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Are any faults actually injected?
    pub fn faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(FaultSpec::is_active)
    }

    /// Validate internal consistency: the schedule must dispatch each
    /// session exactly as many times as it has queries.
    ///
    /// # Errors
    /// A message naming the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let mut counts = vec![0usize; self.sessions.len()];
        for &s in &self.schedule {
            *counts.get_mut(s).ok_or_else(|| {
                format!("schedule names session {s} of {}", self.sessions.len())
            })? += 1;
        }
        for (i, (have, want)) in counts
            .iter()
            .zip(self.sessions.iter().map(Vec::len))
            .enumerate()
        {
            if *have != want {
                return Err(format!(
                    "session {i}: schedule dispatches it {have} times but it has {want} queries"
                ));
            }
        }
        if self.shards == 0 || self.batch_size == 0 {
            return Err("shards and batch_size must be ≥ 1".into());
        }
        Ok(())
    }

    /// Serialize to compact JSON (exact round-trip via
    /// [`SimScenario::from_json`]).
    pub fn to_json(&self) -> String {
        let strategy = match self.strategy {
            Strategy::Interpreted => "interpreted",
            Strategy::ConjunctionCompiled => "conjunction_compiled",
            Strategy::FullyCompiled => "fully_compiled",
        };
        Json::Obj(vec![
            ("seed".into(), Json::UInt(self.seed)),
            ("dataset".into(), self.dataset.to_json()),
            ("strategy".into(), Json::Str(strategy.into())),
            (
                "sessions".into(),
                Json::Arr(
                    self.sessions
                        .iter()
                        .map(|qs| Json::Arr(qs.iter().map(|q| Json::Str(q.clone())).collect()))
                        .collect(),
                ),
            ),
            (
                "schedule".into(),
                Json::Arr(
                    self.schedule
                        .iter()
                        .map(|&s| Json::UInt(s as u64))
                        .collect(),
                ),
            ),
            (
                "capacity_bytes".into(),
                self.capacity_bytes.map_or(Json::Null, Json::UInt),
            ),
            ("shards".into(), Json::UInt(self.shards.into())),
            ("batch_size".into(), Json::UInt(self.batch_size.into())),
            ("lazy".into(), Json::Bool(self.lazy)),
            ("prefetch".into(), Json::Bool(self.prefetch)),
            ("generalization".into(), Json::Bool(self.generalization)),
            ("subsumption".into(), Json::Bool(self.subsumption)),
            (
                "faults".into(),
                self.faults.as_ref().map_or(Json::Null, FaultSpec::to_json),
            ),
        ])
        .render()
    }

    /// Parse a scenario serialized by [`SimScenario::to_json`].
    ///
    /// # Errors
    /// JSON syntax errors, missing fields, or an inconsistent schedule.
    pub fn from_json(src: &str) -> Result<SimScenario, String> {
        let v = Json::parse(src)?;
        let strategy = match v
            .req("strategy")?
            .as_str()
            .ok_or("strategy must be a string")?
        {
            "interpreted" => Strategy::Interpreted,
            "conjunction_compiled" => Strategy::ConjunctionCompiled,
            "fully_compiled" => Strategy::FullyCompiled,
            other => return Err(format!("unknown strategy `{other}`")),
        };
        let mut sessions = Vec::new();
        for s in v
            .req("sessions")?
            .as_arr()
            .ok_or("sessions must be an array")?
        {
            let mut queries = Vec::new();
            for q in s.as_arr().ok_or("each session must be an array")? {
                queries.push(q.as_str().ok_or("queries must be strings")?.to_string());
            }
            sessions.push(queries);
        }
        let mut schedule = Vec::new();
        for s in v
            .req("schedule")?
            .as_arr()
            .ok_or("schedule must be an array")?
        {
            schedule.push(
                s.as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("schedule entries must be indices")?,
            );
        }
        let capacity_bytes = match v.req("capacity_bytes")? {
            Json::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or("capacity_bytes must be a u64 or null")?,
            ),
        };
        let faults = match v.req("faults")? {
            Json::Null => None,
            other => Some(FaultSpec::from_json(other)?),
        };
        let u32_field = |key: &str| -> Result<u32, String> {
            v.req(key)?
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("field `{key}` must be a u32"))
        };
        let bool_field = |key: &str| -> Result<bool, String> {
            v.req(key)?
                .as_bool()
                .ok_or_else(|| format!("field `{key}` must be a bool"))
        };
        let sc = SimScenario {
            seed: v.req("seed")?.as_u64().ok_or("seed must be a u64")?,
            dataset: Dataset::from_json(v.req("dataset")?)?,
            strategy,
            sessions,
            schedule,
            capacity_bytes,
            shards: u32_field("shards")?,
            batch_size: u32_field("batch_size")?,
            lazy: bool_field("lazy")?,
            prefetch: bool_field("prefetch")?,
            generalization: bool_field("generalization")?,
            subsumption: bool_field("subsumption")?,
            faults,
        };
        sc.validate()?;
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimScenario {
        SimScenario {
            seed: 7,
            dataset: Dataset::Genealogy {
                generations: 3,
                branching: 2,
                seed: 42,
            },
            strategy: Strategy::ConjunctionCompiled,
            sessions: vec![
                vec!["?- ancestor(p0, Y).".into(), "?- sibling(p3, Y).".into()],
                vec!["?- grandparent(X, Y).".into()],
            ],
            schedule: vec![0, 1, 0],
            capacity_bytes: Some(4096),
            shards: 2,
            batch_size: 7,
            lazy: true,
            prefetch: false,
            generalization: true,
            subsumption: true,
            faults: Some(FaultSpec {
                seed: 99,
                transient_permille: 50,
                timeout_permille: 0,
                latency_spike_permille: 10,
                latency_spike_units: 40,
                disconnect_permille: 5,
                disconnect_after_tuples: 3,
                outages: vec![(4, 9)],
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let sc = sample();
        let text = sc.to_json();
        let back = SimScenario::from_json(&text).expect("round trip parses");
        assert_eq!(back, sc);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validate_rejects_bad_schedules() {
        let mut sc = sample();
        sc.schedule = vec![0, 0, 0];
        assert!(sc.validate().is_err());
        sc.schedule = vec![0, 1, 5];
        assert!(sc.validate().is_err());
    }

    #[test]
    fn dataset_rebuilds_deterministically() {
        let d = Dataset::Genealogy {
            generations: 2,
            branching: 2,
            seed: 5,
        };
        let a = d.catalog();
        let b = d.catalog();
        assert_eq!(
            a.relation("parent").unwrap().sorted_tuples(),
            b.relation("parent").unwrap().sorted_tuples()
        );
    }
}
