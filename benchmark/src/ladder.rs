//! The traced run: one seeded query list replayed at three entry points
//! (the rungs), plus timed calls into single layers (the leaves), all
//! recorded as spans by the benchmark itself and folded into the
//! per-layer metrics.
//!
//! A layer's self time is its rung minus the rung below, taken query by
//! query and then as a median: `core.frontdoor_us` = rung 0 − rung 1,
//! `ie.share_us` = rung 1 − rung 2, `cms.query_us` = rung 2. Medians of
//! differences need not add up to the median of rung 0; what is left
//! over is reported as `core.unattributed_us`.

use crate::drive::{Asked, Span};
use crate::gen::{self, Dataset};
use crate::rig::{CmsDirect, STRATEGY};
use crate::stats::{median, micros, percentile};
use crate::workloads::{Plan, Shape};
use braid::{
    Cms, CmsConfig, ConjunctiveQuery, CostModel, InferenceEngine, LatencyModel, RemoteDbms,
    RemoteTcpServer, TcpClientConfig, TcpServerConfig, TransportConfig, Tuple,
};
use braid_cms::CmsMetricsSnapshot;
use braid_net::{read_frame, write_frame, MAX_FRAME_BYTES};
use braid_relational::{
    CmpOp, ColumnarRelation, ExecConfig, Expr, PhysicalPlan, Relation, Schema, Value,
};
use braid_remote::clientproto::{self, kind, ClientQuery};
use braid_remote::metrics::MetricsSnapshot;
use braid_remote::proto::{decode_batch, encode_batch};
use braid_subsume::{SubsumptionEngine, ViewDef};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const RUNG0: &str = "rung0.client";
pub const RUNG1: &str = "rung1.session";
pub const RUNG2: &str = "rung2.cms";

/// Tuples per `BATCH` frame on the front door's answer stream
/// (`core/src/server.rs`).
const ANSWER_BATCH_TUPLES: usize = 256;
/// Fetches timed per transport for `remote.transport_us`.
const TRANSPORT_SAMPLE: usize = 48;

/// What the rung-0 rig counted while the traced and the untraced pass
/// ran on it.
pub struct Window {
    /// AI queries asked in the window, over all connections.
    pub queries: usize,
    pub cms: CmsMetricsSnapshot,
    pub remote: MetricsSnapshot,
    pub pool_connects: u64,
    pub pool_requests: u64,
    /// High-water mark of the run queue since the server started.
    pub queue_peak: u64,
    pub cache_elements: usize,
    pub traced_wall: Duration,
    pub untraced_wall: Duration,
    /// Every rung-0 latency of both passes.
    pub client_us: Vec<f64>,
    /// `VmHWM` of the process when the window closed.
    pub peak_rss_mb: f64,
}

struct Leaves {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Leaves {
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        query: usize,
        work: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed();
        let result = black_box(work());
        self.spans.push(Span {
            name,
            parent,
            conn: 0,
            query,
            start,
            end: self.epoch.elapsed(),
        });
        result
    }
}

pub struct LeafInput<'a> {
    pub data: &'a Dataset,
    pub plan: &'a Plan,
    pub engine: &'a InferenceEngine,
    /// Any session of the program's CMS: the source of catalog statistics.
    pub cms: &'a Cms,
    /// The first queries connection 0 asked at rung 0, with their answers.
    pub sample: &'a [Asked],
    pub answers: &'a [Vec<Tuple>],
    /// Cache elements resident at the end of the rung-0 passes.
    pub population: usize,
    pub epoch: Instant,
}

pub struct LeafOutput {
    pub spans: Vec<Span>,
    /// Wire bytes of each sampled query with its answer.
    pub frame_bytes: Vec<f64>,
    /// View definitions `subsume.find` searched.
    pub views: usize,
}

/// Time calls into single layers for the queries of `input.sample`.
pub fn leaves(input: &LeafInput<'_>) -> io::Result<LeafOutput> {
    let mut rec = Leaves {
        epoch: input.epoch,
        spans: Vec::new(),
    };
    let caql = |text: &str| {
        CmsDirect::caql_queries(input.engine, input.cms, text)
            .unwrap_or_else(|e| panic!("leaf probe: `{text}` does not prepare: {e}"))
    };
    let kb = input.engine.kb();
    let stats = input.cms.remote().catalog().stats_snapshot();
    // The advice and the CMS-level queries of each sampled AI query.
    let prepared: Vec<_> = input.sample.iter().map(|a| caql(&a.query.text)).collect();

    // caql, ie: what rung 1 does before it reaches the CMS.
    for (i, asked) in input.sample.iter().enumerate() {
        let text = &asked.query.text;
        let goal = rec.time("caql.parse", Some(RUNG1), i, || braid::parse_query(text));
        let goal = goal.expect("sample queries parse");
        let (translated, prepared) = rec.time("ie.translate", Some(RUNG1), i, || {
            let translated = braid_ie::translate::translate(kb, text);
            (translated, input.engine.prepare(&goal, STRATEGY, &stats))
        });
        translated.expect("sample queries translate");
        prepared.expect("sample queries prepare");
    }

    // net: the frames one query and its answer make, through the codec
    // and an in-memory pipe.
    let mut frame_bytes = Vec::new();
    for (i, (asked, answer)) in input.sample.iter().zip(input.answers).enumerate() {
        let query = ClientQuery::plain(
            clientproto::strategy::CONJUNCTION_COMPILED,
            &asked.query.text,
        );
        let bytes = rec.time("net.frame_roundtrip", Some(RUNG0), i, || {
            frame_roundtrip(&query, answer)
        });
        frame_bytes.push(bytes as f64);
    }

    // subsume: the searches the CMS runs per query, against as many view
    // definitions as the cache held.
    let mut views = SubsumptionEngine::new();
    let mut seen = BTreeSet::new();
    let mut stream = input.plan.stream(0);
    let cached = input
        .plan
        .warmup()
        .into_iter()
        .chain(std::iter::from_fn(|| Some(stream.next_query())).take(4 * gen::FAM_KEYS))
        .filter(|q| q.pair().is_none());
    for query in cached {
        if views.len() == input.population {
            break;
        }
        if seen.insert(query.text.clone()) {
            for cq in caql(&query.text).1 {
                let def = ViewDef::new(cq).expect("IE view queries are view definitions");
                views.insert(views.len() as u64, def);
            }
        }
    }
    for (i, (_, queries)) in prepared.iter().enumerate() {
        for cq in queries {
            rec.time("subsume.find", Some(RUNG2), i, || {
                (views.find_whole(cq), views.find_relevant(cq))
            });
        }
    }

    // relational: the plan each query's local part comes to, over rows
    // and over columns.
    let catalog = &input.data.catalog;
    let relation = |name: &str| Arc::clone(catalog.relation(name).expect("generated relation"));
    let (scan, dim) = (relation("scan"), relation("dim"));
    let scan_cols = Arc::new(ColumnarRelation::from_relation(&scan));
    let dim_cols = Arc::new(ColumnarRelation::from_relation(&dim));
    for (i, (asked, answer)) in input.sample.iter().zip(input.answers).enumerate() {
        let schema = Schema::positional("look", answer.first().map_or(0, Tuple::arity));
        let answer = Relation::from_tuples(schema, answer.iter().cloned()).expect("one arity");
        let plan = |scan, dim, cached_answer| match asked.query.pair() {
            Some(pair) => derivation(asked.query.shape, input.data.band_lo[pair], scan, dim),
            None => cached_answer,
        };
        let columns = plan(
            PhysicalPlan::scan_columnar(Arc::clone(&scan_cols)),
            PhysicalPlan::scan_columnar(Arc::clone(&dim_cols)),
            PhysicalPlan::scan_columnar(Arc::new(ColumnarRelation::from_relation(&answer))),
        );
        let rows = plan(
            PhysicalPlan::scan(Arc::clone(&scan)),
            PhysicalPlan::scan(Arc::clone(&dim)),
            PhysicalPlan::scan(Arc::new(answer)),
        );
        let by_rows = rec.time("relational.exec", Some(RUNG2), i, || {
            rows.materialize_with(ExecConfig::default())
        });
        let by_cols = rec.time("relational.exec_columnar", None, i, || {
            columns.materialize_with(ExecConfig::default())
        });
        let (by_rows, by_cols) = (
            by_rows.expect("row plan runs").0,
            by_cols.expect("columnar plan runs").0,
        );
        assert_eq!(
            by_rows.len(),
            asked.tuples,
            "`{}`: row plan",
            asked.query.text
        );
        assert_eq!(
            by_cols.len(),
            asked.tuples,
            "`{}`: columnar plan",
            asked.query.text
        );
    }

    // remote: the SQL the fetching queries provoke, on a private engine;
    // then the same fetches through a bare CMS over each transport.
    let mut distinct = BTreeSet::new();
    let fetching: Vec<usize> = (0..input.sample.len())
        .filter(|&i| {
            let query = &input.sample[i].query;
            query.fetches() && distinct.insert(&query.text)
        })
        .collect();
    let engine = RemoteDbms::new(catalog.clone(), CostModel::default(), LatencyModel::Counted);
    for &i in &fetching {
        for cq in &prepared[i].1 {
            let sql = remote_sql(cq);
            rec.time("remote.engine", Some(RUNG2), i, || engine.submit(&sql))
                .expect("remote engine answers");
        }
    }
    if !fetching.is_empty() {
        let mut listener = RemoteTcpServer::serve(engine.clone(), TcpServerConfig::default())?;
        let over_tcp = TransportConfig::Tcp(TcpClientConfig::to(listener.addr().to_string()));
        let mut in_process = Cms::new(engine.clone(), CmsConfig::braid());
        let mut tcp = Cms::new(engine.clone(), CmsConfig::braid().with_transport(over_tcp));
        for &i in fetching.iter().take(TRANSPORT_SAMPLE) {
            let (advice, queries) = &prepared[i];
            let mut lanes = [
                ("remote.fetch_in_process", &mut in_process),
                ("remote.fetch_tcp", &mut tcp),
            ];
            // Alternate which transport meets a key first.
            if i % 2 == 1 {
                lanes.reverse();
            }
            for (name, cms) in lanes {
                rec.time(name, Some(RUNG2), i, || {
                    cms.begin_session(advice.clone());
                    queries
                        .iter()
                        .map(|q| cms.query(q.clone()).map(|s| s.drain().len()))
                        .collect::<Result<Vec<_>, _>>()
                })
                .expect("bare CMS fetch succeeds");
            }
        }
        drop(tcp);
        listener.shutdown();
    }
    Ok(LeafOutput {
        spans: rec.spans,
        frame_bytes,
        views: views.len(),
    })
}

/// Encode one query and its answer as the front door would, push the
/// frames through a buffer, and decode them again. Returns wire bytes.
fn frame_roundtrip(query: &ClientQuery, answer: &[Tuple]) -> usize {
    let mut pipe = Vec::new();
    write_frame(&mut pipe, kind::QUERY, &clientproto::encode_query(query)).expect("in memory");
    for chunk in answer.chunks(ANSWER_BATCH_TUPLES) {
        write_frame(&mut pipe, kind::BATCH, &encode_batch(chunk)).expect("in memory");
    }
    write_frame(
        &mut pipe,
        kind::END,
        &clientproto::encode_answer_end(true, &[]),
    )
    .expect("in memory");
    let mut reader = pipe.as_slice();
    while let Some(frame) = read_frame(&mut reader, MAX_FRAME_BYTES).expect("well-formed frames") {
        match frame.kind {
            kind::QUERY => drop(black_box(clientproto::decode_query(&frame.payload))),
            kind::BATCH => drop(black_box(decode_batch(&frame.payload))),
            _ => drop(black_box(clientproto::decode_answer_end(&frame.payload))),
        }
    }
    pipe.len()
}

/// The executor plan a `band`/`jband` query's derivation comes to over
/// `scan(k, v, tag)` and `dim(tag, grp)`, answering `(k, v)`.
fn derivation(shape: Shape, lo: i64, scan: PhysicalPlan, dim: PhysicalPlan) -> PhysicalPlan {
    let banded = scan
        .filter(Expr::col_cmp(1, CmpOp::Ge, lo))
        .filter(Expr::col_cmp(1, CmpOp::Lt, lo + gen::BAND_WIDTH));
    match shape {
        Shape::Band { tag, .. } => banded
            .filter(Expr::col_cmp(2, CmpOp::Eq, Value::str(gen::tag_name(tag))))
            .project(&[0, 1]),
        Shape::JBand { group, .. } => dim
            .filter(Expr::col_cmp(
                1,
                CmpOp::Eq,
                Value::str(gen::group_name(group)),
            ))
            .hash_join(banded, &[(0, 2)])
            .project(&[2, 3]),
        Shape::Look { .. } | Shape::Prime => unreachable!("only derivations have a band"),
    }
    .expect("projection columns exist")
}

/// The DML the remote-DBMS interface ships for a whole-query miss.
fn remote_sql(cq: &ConjunctiveQuery) -> braid_remote::SqlQuery {
    let (atoms, cmps) = braid_cms::rdi::split_body(&cq.body).expect("SPJ body");
    let out: Vec<String> = cq
        .head
        .args
        .iter()
        .filter_map(|t| t.as_var().map(str::to_string))
        .collect();
    braid_cms::rdi::translate(&atoms, &cmps, &out)
        .expect("SPJ fragment")
        .sql
}

fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| micros(s.duration()))
        .collect()
}

/// Per-query `upper − lower`, in µs, over the queries both rungs ran.
fn paired_us(spans: &[Span], upper: &str, lower: &str) -> Vec<f64> {
    let below: HashMap<(usize, usize), Duration> = spans
        .iter()
        .filter(|s| s.name == lower)
        .map(|s| ((s.conn, s.query), s.duration()))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == upper)
        .filter_map(|s| {
            let lower = below.get(&(s.conn, s.query))?;
            Some(micros(s.duration()) - micros(*lower))
        })
        .collect()
}

/// Fold the spans and the rung-0 window into the per-layer metrics.
pub fn fold(
    spans: &[Span],
    leaf: &LeafOutput,
    w: &Window,
    failed_share: f64,
) -> Vec<(&'static str, f64)> {
    let mid = |name: &str| median(&durations_us(spans, name));
    let per_query = |count: u64| count as f64 / w.queries.max(1) as f64;
    let per_kilo = |count: u64| 1_000.0 * per_query(count);
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };

    let rung0 = mid(RUNG0);
    let frontdoor = median(&paired_us(spans, RUNG0, RUNG1)).max(0.0);
    let ie_share = median(&paired_us(spans, RUNG1, RUNG2)).max(0.0);
    let cms_query = mid(RUNG2);
    let transport = (mid("remote.fetch_tcp") - mid("remote.fetch_in_process")).max(0.0);
    let mean_frame_bytes =
        leaf.frame_bytes.iter().sum::<f64>() / leaf.frame_bytes.len().max(1) as f64;

    vec![
        ("remote_requests_per_query", per_query(w.remote.requests)),
        ("remote_bytes_per_query", per_query(w.remote.bytes_shipped)),
        ("failed_share", failed_share),
        ("peak_rss_mb", w.peak_rss_mb),
        ("net.frame_roundtrip_us", mid("net.frame_roundtrip")),
        ("net.bytes_per_query", mean_frame_bytes),
        ("core.client_us", rung0),
        ("core.session_us", mid(RUNG1)),
        ("core.frontdoor_us", frontdoor),
        (
            "core.unattributed_us",
            (rung0 - frontdoor - ie_share - cms_query).abs(),
        ),
        ("core.client_p99_us", percentile(&w.client_us, 0.99)),
        ("core.queue_peak", w.queue_peak as f64),
        ("core.parks_per_query", per_query(w.cms.sessions_parked)),
        ("core.steps_per_query", per_query(w.cms.steps_executed)),
        ("caql.parse_us", mid("caql.parse")),
        ("ie.share_us", ie_share),
        ("ie.translate_us", mid("ie.translate")),
        ("ie.cms_queries_per_query", per_query(w.cms.queries)),
        ("subsume.find_us", mid("subsume.find")),
        ("subsume.population", leaf.views as f64),
        ("cms.query_us", cms_query),
        (
            "cms.hit_ratio",
            ratio(w.cms.full_cache_answers, w.cms.queries),
        ),
        (
            "cms.partial_ratio",
            ratio(w.cms.partial_cache_answers, w.cms.queries),
        ),
        ("cms.cache_elements", w.cache_elements as f64),
        ("cms.evictions_per_query", per_query(w.cms.evictions)),
        ("cms.dedup_hits", per_kilo(w.cms.dedup_hits)),
        ("cms.flight_fetches", per_kilo(w.cms.flight_fetches)),
        ("cms.shard_lock_waits", per_kilo(w.cms.shard_lock_waits)),
        ("relational.exec_us", mid("relational.exec")),
        (
            "relational.exec_columnar_us",
            mid("relational.exec_columnar"),
        ),
        (
            "relational.tuples_per_query",
            per_query(w.cms.executor_tuples),
        ),
        (
            "relational.rows_pruned_per_query",
            per_query(w.cms.executor_rows_pruned),
        ),
        (
            "relational.local_ops_per_query",
            per_query(w.cms.local_tuple_ops),
        ),
        ("remote.engine_us", mid("remote.engine")),
        ("remote.transport_us", transport),
        (
            "remote.tuples_per_query",
            per_query(w.remote.tuples_shipped),
        ),
        (
            "remote.cost_units_per_query",
            per_query(w.remote.simulated_latency_units),
        ),
        ("remote.pool_connects", w.pool_connects as f64),
        (
            "remote.pool_reuse_ratio",
            1.0f64.min(ratio(
                w.pool_requests.saturating_sub(w.pool_connects),
                w.pool_requests,
            )),
        ),
        (
            "trace.overhead_ratio",
            w.traced_wall.as_secs_f64() / w.untraced_wall.as_secs_f64().max(f64::MIN_POSITIVE),
        ),
    ]
}
