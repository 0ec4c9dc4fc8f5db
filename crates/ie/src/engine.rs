//! The inference engine facade: advice generation + query solving.
//!
//! Ties the Figure 4 pipeline together: translate → extract → shape →
//! specify → create path expression → submit advice → control inference.
//! "The IE interfaces with the CMS using a well defined interface
//! consisting of the Cache Query Language (CAQL) ... and the advice
//! language" (§3).

use crate::control::{ControlOptions, SolutionStream};
use crate::error::Result;
use crate::graph::ProblemGraph;
use crate::kb::KnowledgeBase;
use crate::pathexpr;
use crate::shape::{shape_graph, SchemaStats, ShapeOptions};
use crate::strategy::{solve_compiled, Strategy};
use crate::translate;
use crate::viewspec::{specify, SpecifiedGraph, SpecifyOptions};
use braid_advice::Advice;
use braid_caql::Atom;
use braid_cms::Cms;
use braid_relational::Tuple;
use braid_trace::TraceKind;

/// The inference engine.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    kb: KnowledgeBase,
}

/// Solutions of an AI query: a demand-driven stream (interpreted /
/// conjunction-compiled) or a precomputed set (fully compiled).
pub enum Solutions<'a> {
    /// Tuple-at-a-time, single-solution delivery.
    Stream(Box<SolutionStream<'a>>),
    /// All solutions, set-at-a-time.
    All(std::vec::IntoIter<Tuple>),
}

impl Iterator for Solutions<'_> {
    type Item = Result<Tuple>;
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Solutions::Stream(s) => s.next_solution(),
            Solutions::All(it) => it.next().map(Ok),
        }
    }
}

impl InferenceEngine {
    /// An engine over a knowledge base.
    pub fn new(kb: KnowledgeBase) -> InferenceEngine {
        InferenceEngine { kb }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Run the advice pipeline for `goal`: extract, shape (with the
    /// statistics the IE reads through the CMS, §3), specify at the
    /// strategy's granularity, and create the path expression.
    ///
    /// # Errors
    /// Propagates extraction errors.
    pub fn prepare(
        &self,
        goal: &Atom,
        strategy: Strategy,
        stats: &SchemaStats,
    ) -> Result<(ProblemGraph, SpecifiedGraph, Advice)> {
        let mut graph = ProblemGraph::extract(&self.kb, goal)?;
        shape_graph(&mut graph, &self.kb, stats, ShapeOptions::default());
        let spec = specify(
            &graph,
            SpecifyOptions {
                max_conj: strategy.max_conj(),
            },
            0,
        );
        let path = pathexpr::create(&graph, &self.kb, &spec);
        let advice = Advice {
            base_relations: graph
                .base_relation_fringe()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            view_specs: spec.specs.clone(),
            path: Some(path),
        };
        Ok((graph, spec, advice))
    }

    /// Solve an AI query through the CMS: begins a session (submitting
    /// the generated advice, §3), then runs the chosen strategy.
    ///
    /// # Errors
    /// Propagates translation, extraction and CMS errors.
    pub fn solve<'a>(
        &'a self,
        cms: &'a mut Cms,
        goal: &Atom,
        strategy: Strategy,
    ) -> Result<Solutions<'a>> {
        // Root of the query's span tree: every CMS/remote span below
        // nests under it. Closes when this call returns — streamed
        // strategies do their per-solution work under later `cms.query`
        // spans.
        let mut span = cms
            .tracer()
            .span_lazy(TraceKind::IeSolve, || goal.to_string());
        if span.is_live() {
            span.field("strategy", format!("{strategy:?}"));
        }
        let query = {
            let _t = cms
                .tracer()
                .span_lazy(TraceKind::Translate, || goal.to_string());
            translate::translate_atom(&self.kb, goal.clone())?
        };
        let stats = cms.remote().catalog().stats_snapshot();
        if query.kind == crate::kb::GoalKind::Base {
            // Direct base probe: a one-goal problem.
            let mut kb = self.kb.clone();
            let helper = format!("q_{}", goal.pred);
            let head = Atom::new(helper.clone(), goal.args.clone());
            kb.add_rule(
                "Rq",
                braid_caql::ConjunctiveQuery::new(
                    head.clone(),
                    vec![braid_caql::Literal::Atom(goal.clone())],
                ),
            )?;
            // Evaluate through the compiled path (a single base probe
            // gains nothing from interpretation).
            let sols = solve_compiled(&kb, cms, &head)?;
            let mut v: Vec<Tuple> = sols.to_vec();
            v.sort();
            return Ok(Solutions::All(v.into_iter()));
        }

        let (graph, spec, advice) = self.prepare(goal, strategy, &stats)?;
        let n_specs = advice.view_specs.len();
        let has_path = advice.path.is_some();
        cms.begin_session(advice);
        cms.tracer().event(
            TraceKind::AdviceInstalled,
            goal.to_string(),
            vec![
                ("view_specs", n_specs.to_string()),
                ("path", has_path.to_string()),
            ],
        );

        match strategy {
            Strategy::FullyCompiled => {
                let rel = solve_compiled(&self.kb, cms, goal)?;
                let mut v = rel.to_vec();
                v.sort();
                Ok(Solutions::All(v.into_iter()))
            }
            Strategy::Interpreted | Strategy::ConjunctionCompiled => {
                let opts = ControlOptions {
                    max_conj: strategy.max_conj(),
                    ..ControlOptions::default()
                };
                Ok(Solutions::Stream(Box::new(SolutionStream::new(
                    &self.kb,
                    cms,
                    graph,
                    spec,
                    goal.clone(),
                    opts,
                ))))
            }
        }
    }

    /// Convenience: solve and collect unique, sorted solutions.
    ///
    /// # Errors
    /// Propagates any error from the solution stream.
    pub fn solve_all(&self, cms: &mut Cms, goal: &Atom, strategy: Strategy) -> Result<Vec<Tuple>> {
        let sols = self.solve(cms, goal, strategy)?;
        let mut out = Vec::new();
        for s in sols {
            out.push(s?);
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_atom;
    use braid_cms::CmsConfig;
    use braid_relational::{tuple, Relation, Schema};
    use braid_remote::{Catalog, RemoteDbms};

    fn cms() -> Cms {
        let mut c = Catalog::new();
        c.install(
            Relation::from_tuples(
                Schema::of_strs("parent", &["p", "c"]),
                vec![
                    tuple!["ann", "bob"],
                    tuple!["bob", "cal"],
                    tuple!["cal", "dee"],
                ],
            )
            .unwrap(),
        );
        Cms::new(RemoteDbms::with_defaults(c), CmsConfig::braid())
    }

    fn engine() -> InferenceEngine {
        let mut kb = KnowledgeBase::new();
        kb.declare_base("parent", 2);
        kb.add_program(
            "gp(X, Y) :- parent(X, Z), parent(Z, Y).\n\
             anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).",
        )
        .unwrap();
        InferenceEngine::new(kb)
    }

    #[test]
    fn all_three_strategies_agree() {
        let e = engine();
        let goal = parse_atom("gp(X, Y)").unwrap();
        let mut answers = Vec::new();
        for strat in [
            Strategy::Interpreted,
            Strategy::ConjunctionCompiled,
            Strategy::FullyCompiled,
        ] {
            let mut cms = cms();
            answers.push(e.solve_all(&mut cms, &goal, strat).unwrap());
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
        assert_eq!(answers[0].len(), 2);
    }

    #[test]
    fn strategies_agree_on_recursion() {
        let e = engine();
        let goal = parse_atom("anc(ann, Y)").unwrap();
        let mut cms1 = cms();
        let interp = e
            .solve_all(&mut cms1, &goal, Strategy::ConjunctionCompiled)
            .unwrap();
        let mut cms2 = cms();
        let compiled = e
            .solve_all(&mut cms2, &goal, Strategy::FullyCompiled)
            .unwrap();
        assert_eq!(interp, compiled);
        assert_eq!(interp.len(), 3);
    }

    #[test]
    fn advice_submitted_to_cms() {
        let e = engine();
        let goal = parse_atom("gp(ann, Y)").unwrap();
        let mut cms = cms();
        let stats = cms.remote().catalog().stats_snapshot();
        let (_, _, advice) = e
            .prepare(&goal, Strategy::ConjunctionCompiled, &stats)
            .unwrap();
        assert_eq!(advice.base_relations, vec!["parent"]);
        assert_eq!(advice.view_specs.len(), 1);
        assert!(advice.path.is_some());
        // And end-to-end solving uses it.
        let sols = e
            .solve_all(&mut cms, &goal, Strategy::ConjunctionCompiled)
            .unwrap();
        assert_eq!(sols, vec![tuple!["ann", "cal"]]);
    }

    #[test]
    fn base_goal_direct_probe() {
        let e = engine();
        let mut cms = cms();
        let sols = e
            .solve_all(
                &mut cms,
                &parse_atom("parent(ann, Y)").unwrap(),
                Strategy::Interpreted,
            )
            .unwrap();
        assert_eq!(sols, vec![tuple!["ann", "bob"]]);
    }

    #[test]
    fn unknown_goal_rejected() {
        let e = engine();
        let mut cms = cms();
        assert!(e
            .solve(
                &mut cms,
                &parse_atom("nope(X)").unwrap(),
                Strategy::Interpreted
            )
            .is_err());
    }
}
