//! A look inside the IE → CMS interface: the paper's Example 1 advice
//! (view specifications + path expression) generated from the rules, the
//! session protocol, and the effect of prefetching.
//!
//! ```sh
//! cargo run --example advice_session
//! ```

use braid::{BraidConfig, BraidSystem, Catalog, KnowledgeBase, Strategy};
use braid_ie::strategy::Strategy as IeStrategy;
use braid_relational::{tuple, Relation, Schema};

fn main() {
    // The paper's Example 1 knowledge base (§4.2.2).
    let mut kb = KnowledgeBase::new();
    kb.declare_base("b1", 2);
    kb.declare_base("b2", 2);
    kb.declare_base("b3", 3);
    kb.add_program(
        "k1(X, Y) :- b1(c1, Y), k2(X, Y).\n\
         k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).\n\
         k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).",
    )
    .expect("valid program");

    // Data for the three base relations.
    let mut db = Catalog::new();
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b1", &["a", "b"]),
            vec![tuple!["c1", "y1"], tuple!["c1", "y2"], tuple!["m9", "y7"]],
        )
        .expect("valid"),
    );
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b2", &["a", "b"]),
            vec![tuple!["x1", "z1"], tuple!["x2", "z2"]],
        )
        .expect("valid"),
    );
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b3", &["a", "b", "c"]),
            vec![
                tuple!["z1", "c2", "y1"],
                tuple!["z2", "c2", "y2"],
                tuple!["x5", "c3", "c1"],
            ],
        )
        .expect("valid"),
    );

    let mut braid = BraidSystem::new(db, kb, BraidConfig::default());

    // Show what the IE derives before any data flows: the paper's advice.
    let goal = braid::parse_query("?- k1(X, Y).").expect("parses");
    let stats = braid.cms().remote().catalog().stats_snapshot();
    let (graph, _, advice) = braid
        .engine()
        .prepare(&goal, IeStrategy::ConjunctionCompiled, &stats)
        .expect("advice pipeline");

    println!("=== problem graph (Figure 4: extractor output) ===");
    println!("{graph}");
    println!("=== advice (§4.2): view specifications ===");
    for v in &advice.view_specs {
        println!("    {v}");
    }
    println!("=== advice (§4.2.2): path expression ===");
    println!("    {}", advice.path.as_ref().expect("path generated"));

    // Now actually solve. The CMS receives this advice at session start,
    // tracks the query sequence against the path expression, prefetches
    // d3 instances, and generalizes where profitable.
    let sols = braid
        .solve_all("?- k1(X, Y).", Strategy::ConjunctionCompiled)
        .expect("solves");
    println!("\n=== solutions ===");
    for s in &sols {
        println!("    k1{s}");
    }

    let m = braid.metrics();
    println!("\n=== what the advice bought (§5.3 techniques) ===");
    println!("    generalized queries : {}", m.cms.generalized_queries);
    println!("    prefetched queries  : {}", m.cms.prefetched_queries);
    println!("    full cache answers  : {}", m.cms.full_cache_answers);
    println!("    remote requests     : {}", m.remote.requests);

    println!("\n=== cache model (the CMS's meta-relation, §5.3.2) ===");
    for row in braid.cms().cache_model() {
        println!(
            "    E{}: {} [{} tuples, {} hits, indexed on {:?}, sorted on {:?}]",
            row.id, row.def, row.cardinality, row.hits, row.indexed, row.sorted_on
        );
    }
}
