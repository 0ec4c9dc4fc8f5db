//! What one client worker is told and what it answers, as plain data
//! with an exact JSON round trip (the scenario dialect): a worker gets a
//! [`ClientSpec`] on stdin and writes a [`ClientReport`] to stdout, or
//! the two travel by value when the workers are threads.

use crate::json::Json;
use crate::scenario::{strategy_from_json, strategy_to_json};
use braid::Strategy;
use braid_trace::HIST_BUCKETS;

/// A seeded Poisson arrival schedule: each session sleeps to its own
/// schedule (see [`crate::schedule`]) and is charged latency from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacing {
    /// Seed the per-session schedules derive from.
    pub seed: u64,
    /// Mean arrivals per second of each session.
    pub rate_per_sec: u32,
}

impl Pacing {
    /// The schedule seed of `session`: distinct per session so sessions
    /// do not arrive in lockstep, a pure function so a run replays.
    pub(crate) fn session_seed(&self, session: u32) -> u64 {
        self.seed ^ u64::from(session).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// One worker's orders: where the server listens and the sessions it
/// runs, each one connection issuing its queries in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// This worker's 0-based index.
    pub proc: u32,
    /// Inference strategy of every query.
    pub strategy: Strategy,
    /// `(session index, query stream)` for each session dealt to it.
    pub sessions: Vec<(u32, Vec<String>)>,
    /// Open-loop arrivals, or `None` for back-to-back queries.
    pub pacing: Option<Pacing>,
    /// Send query `i` of a session traced (`solve_explained`) iff
    /// `i % trace_one_in == 0`; `0` traces nothing.
    pub trace_one_in: u32,
}

fn u32_of(v: &Json, key: &str) -> Result<u32, String> {
    v.req(key)?
        .as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or(format!("`{key}` must be a u32"))
}

fn u64_of(v: &Json, key: &str) -> Result<u64, String> {
    v.req(key)?.as_u64().ok_or(format!("`{key}` must be a u64"))
}

fn arr_of<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.req(key)?
        .as_arr()
        .ok_or(format!("`{key}` must be an array"))
}

impl ClientSpec {
    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let sessions = self.sessions.iter().map(|(session, queries)| {
            Json::Obj(vec![
                ("session".into(), Json::UInt((*session).into())),
                (
                    "queries".into(),
                    Json::Arr(queries.iter().map(|q| Json::Str(q.clone())).collect()),
                ),
            ])
        });
        let pacing = self.pacing.map_or(Json::Null, |p| {
            Json::Obj(vec![
                ("seed".into(), Json::UInt(p.seed)),
                ("rate_per_sec".into(), Json::UInt(p.rate_per_sec.into())),
            ])
        });
        Json::Obj(vec![
            ("addr".into(), Json::Str(self.addr.clone())),
            ("proc".into(), Json::UInt(self.proc.into())),
            ("strategy".into(), strategy_to_json(self.strategy)),
            ("sessions".into(), Json::Arr(sessions.collect())),
            ("pacing".into(), pacing),
            ("trace_one_in".into(), Json::UInt(self.trace_one_in.into())),
        ])
        .render()
    }

    /// Parse a spec serialized by [`ClientSpec::to_json`].
    ///
    /// # Errors
    /// JSON syntax errors, missing fields, or out-of-range values.
    pub fn from_json(src: &str) -> Result<ClientSpec, String> {
        let v = Json::parse(src)?;
        let mut sessions = Vec::new();
        for s in arr_of(&v, "sessions")? {
            let queries = arr_of(s, "queries")?
                .iter()
                .map(|q| {
                    q.as_str()
                        .map(str::to_string)
                        .ok_or("queries must be strings")
                })
                .collect::<Result<_, _>>()?;
            sessions.push((u32_of(s, "session")?, queries));
        }
        let pacing = match v.req("pacing")? {
            Json::Null => None,
            p => Some(Pacing {
                seed: u64_of(p, "seed")?,
                rate_per_sec: u32_of(p, "rate_per_sec")?,
            }),
        };
        Ok(ClientSpec {
            addr: v
                .req("addr")?
                .as_str()
                .ok_or("`addr` must be a string")?
                .to_string(),
            proc: u32_of(&v, "proc")?,
            strategy: strategy_from_json(v.req("strategy")?)?,
            sessions,
            pacing,
            trace_one_in: u32_of(&v, "trace_one_in")?,
        })
    }
}

/// One session's outcome as its worker saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionDigest {
    /// The session's index in the run.
    pub session: u32,
    /// Queries answered.
    pub solves: u64,
    /// Typed errors (a failed solve ends its session).
    pub errors: u64,
    /// Answers tagged `Exact`.
    pub exact: u64,
    /// Every answer chained in stream order through
    /// [`digest_answer`](crate::digest_answer) from
    /// [`DIGEST_SEED`](crate::DIGEST_SEED).
    pub digest: u64,
}

/// One worker's outcome: a digest per session it ran, and one latency
/// histogram over all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// The worker's index.
    pub proc: u32,
    /// Per-session outcomes, in the spec's order.
    pub sessions: Vec<SessionDigest>,
    /// Log2 buckets of per-query latency in µs (the `braid-trace`
    /// layout), charged from the scheduled arrival when paced.
    pub latency_us: [u64; HIST_BUCKETS],
}

impl ClientReport {
    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let sessions = self.sessions.iter().map(|s| {
            Json::Obj(vec![
                ("session".into(), Json::UInt(s.session.into())),
                ("solves".into(), Json::UInt(s.solves)),
                ("errors".into(), Json::UInt(s.errors)),
                ("exact".into(), Json::UInt(s.exact)),
                ("digest".into(), Json::UInt(s.digest)),
            ])
        });
        Json::Obj(vec![
            ("proc".into(), Json::UInt(self.proc.into())),
            ("sessions".into(), Json::Arr(sessions.collect())),
            (
                "latency_us".into(),
                Json::Arr(self.latency_us.iter().map(|&b| Json::UInt(b)).collect()),
            ),
        ])
        .render()
    }

    /// Parse a report serialized by [`ClientReport::to_json`].
    ///
    /// # Errors
    /// JSON syntax errors, missing fields, or a histogram that is not
    /// exactly [`HIST_BUCKETS`] wide.
    pub fn from_json(src: &str) -> Result<ClientReport, String> {
        let v = Json::parse(src)?;
        let sessions = arr_of(&v, "sessions")?
            .iter()
            .map(|s| {
                Ok(SessionDigest {
                    session: u32_of(s, "session")?,
                    solves: u64_of(s, "solves")?,
                    errors: u64_of(s, "errors")?,
                    exact: u64_of(s, "exact")?,
                    digest: u64_of(s, "digest")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let buckets = arr_of(&v, "latency_us")?;
        if buckets.len() != HIST_BUCKETS {
            return Err(format!(
                "report carries {} histogram buckets, expected {HIST_BUCKETS}",
                buckets.len()
            ));
        }
        let mut latency_us = [0u64; HIST_BUCKETS];
        for (slot, b) in latency_us.iter_mut().zip(buckets) {
            *slot = b.as_u64().ok_or("histogram buckets must be u64s")?;
        }
        Ok(ClientReport {
            proc: u32_of(&v, "proc")?,
            sessions,
            latency_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_round_trip_is_exact() {
        for (pacing, trace_one_in) in [
            (None, 0),
            (
                Some(Pacing {
                    seed: u64::MAX,
                    rate_per_sec: 500,
                }),
                4,
            ),
        ] {
            let spec = ClientSpec {
                addr: "127.0.0.1:4321".into(),
                proc: 3,
                strategy: Strategy::FullyCompiled,
                sessions: vec![
                    (
                        3,
                        vec!["?- adult(X).".into(), "?- sibling(p1, \"q\").".into()],
                    ),
                    (7, Vec::new()),
                ],
                pacing,
                trace_one_in,
            };
            let text = spec.to_json();
            let back = ClientSpec::from_json(&text).expect("round trip parses");
            assert_eq!(back, spec);
            assert_eq!(back.to_json(), text);
        }
    }

    fn sample_report() -> ClientReport {
        let mut latency_us = [0u64; HIST_BUCKETS];
        latency_us[0] = 1;
        latency_us[HIST_BUCKETS - 1] = u64::MAX;
        ClientReport {
            proc: 1,
            sessions: vec![
                SessionDigest {
                    session: 4,
                    solves: 9,
                    errors: 1,
                    exact: 8,
                    digest: 0xdead_beef_cafe_f00d,
                },
                SessionDigest {
                    session: 7,
                    solves: 0,
                    errors: 0,
                    exact: 0,
                    digest: u64::MAX,
                },
            ],
            latency_us,
        }
    }

    #[test]
    fn report_json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json();
        let back = ClientReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn report_histogram_width_is_checked() {
        let text = sample_report().to_json();
        let short = text.replacen("[1,", "[", 1);
        assert!(
            ClientReport::from_json(&short)
                .unwrap_err()
                .contains("histogram buckets"),
            "a histogram of the wrong width is rejected"
        );
    }

    #[test]
    fn torn_report_is_an_error() {
        // A report torn anywhere (a worker dying mid-write) is an error,
        // never a shorter report.
        let text = sample_report().to_json();
        for cut in 0..text.len() {
            assert!(ClientReport::from_json(&text[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn schedule_seeds_differ_per_session() {
        let p = Pacing {
            seed: 99,
            rate_per_sec: 1,
        };
        assert_ne!(p.session_seed(0), p.session_seed(1));
        assert_eq!(p.session_seed(5), p.session_seed(5));
    }
}
