//! Query workload generation with a locality knob.
//!
//! Semantic caching pays off when later queries fall inside earlier
//! queries' extents; the `locality` parameter controls exactly that —
//! with probability `locality`, the next query's constant is re-drawn
//! from a recent window, otherwise uniformly from the whole domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A deterministic query-sequence generator.
#[derive(Debug)]
pub struct QueryWorkload {
    rng: StdRng,
    recent: VecDeque<String>,
}

/// How many recent constants are eligible for re-use.
const WINDOW: usize = 8;

impl QueryWorkload {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> QueryWorkload {
        QueryWorkload {
            rng: StdRng::seed_from_u64(seed),
            recent: VecDeque::new(),
        }
    }

    /// Draw the next constant from `domain` honouring `locality` ∈ \[0,1\].
    pub fn next_constant(&mut self, domain: &[String], locality: f64) -> String {
        let reuse = !self.recent.is_empty() && self.rng.gen_bool(locality.clamp(0.0, 1.0));
        let c = if reuse {
            let i = self.rng.gen_range(0..self.recent.len());
            self.recent[i].clone()
        } else {
            domain[self.rng.gen_range(0..domain.len())].clone()
        };
        self.recent.push_back(c.clone());
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        c
    }

    /// Generate `count` AI queries over binary `views`, each weighted by
    /// its integer weight, with the first argument bound to a constant and
    /// the second free: `?- view(c, Y).`
    pub fn generate(
        &mut self,
        views: &[(&str, u32)],
        domain: &[String],
        count: usize,
        locality: f64,
    ) -> Vec<String> {
        let total: u32 = views.iter().map(|(_, w)| w).sum();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut pick = self.rng.gen_range(0..total.max(1));
            let mut view = views[0].0;
            for (v, w) in views {
                if pick < *w {
                    view = v;
                    break;
                }
                pick -= w;
            }
            let c = self.next_constant(domain, locality);
            // Unary views probe existence; binary views bind the first arg.
            out.push(format!("?- {view}({c}, Y)."));
        }
        out
    }

    /// Generate fully-ground probe queries `?- view(c1, c2).`
    pub fn generate_ground(
        &mut self,
        view: &str,
        domain: &[String],
        count: usize,
        locality: f64,
    ) -> Vec<String> {
        (0..count)
            .map(|_| {
                let a = self.next_constant(domain, locality);
                let b = self.next_constant(domain, locality);
                format!("?- {view}({a}, {b}).")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Vec<String> {
        (0..100).map(|i| format!("p{i}")).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let d = domain();
        let mut a = QueryWorkload::new(5);
        let mut b = QueryWorkload::new(5);
        assert_eq!(
            a.generate(&[("anc", 1)], &d, 10, 0.5),
            b.generate(&[("anc", 1)], &d, 10, 0.5)
        );
    }

    #[test]
    fn high_locality_reuses_constants() {
        let d = domain();
        let mut wl = QueryWorkload::new(5);
        let qs = wl.generate(&[("anc", 1)], &d, 200, 0.95);
        let distinct: std::collections::HashSet<&String> = qs.iter().collect();
        // Heavy reuse ⇒ far fewer distinct queries than total.
        assert!(distinct.len() < 100, "distinct = {}", distinct.len());
    }

    #[test]
    fn zero_locality_spreads_out() {
        let d = domain();
        let mut wl = QueryWorkload::new(5);
        let qs = wl.generate(&[("anc", 1)], &d, 100, 0.0);
        let distinct: std::collections::HashSet<&String> = qs.iter().collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    fn weights_bias_view_choice() {
        let d = domain();
        let mut wl = QueryWorkload::new(9);
        let qs = wl.generate(&[("a", 9), ("b", 1)], &d, 200, 0.0);
        let a_count = qs.iter().filter(|q| q.contains("a(")).count();
        assert!(a_count > 120, "a chosen {a_count} of 200");
    }

    #[test]
    fn ground_queries_have_two_constants() {
        let d = domain();
        let mut wl = QueryWorkload::new(1);
        let qs = wl.generate_ground("anc", &d, 5, 0.0);
        assert!(qs.iter().all(|q| !q.contains(", Y")));
    }
}
