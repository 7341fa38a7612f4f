//! Correctness checks against each run's exact-MLE oracle, and the
//! failure tally every workload reports.
//!
//! Definition 2 bounds every joint query to `|log P~[x] - log P^[x]| <=
//! eps`, where `P^` is the exact MLE over the same stream. A posterior is a
//! ratio of two such joints, so each of its entries is within `2 eps` in
//! log space.

use crate::stats::median;
use dsbn_bayes::BayesianNetwork;
use dsbn_core::{
    AnyTracker, ClusterModel, CounterLayout, CounterReads, CptEvaluator, SnapshotServer,
};
use dsbn_datagen::{
    generate_classification_cases, generate_queries, ClassificationCase, QueryConfig,
};
use std::time::Instant;

/// The public query entry points shared by every model a workload ends
/// with, so one checker times and checks them all.
pub trait QueryApi {
    fn log_query(&self, x: &[usize]) -> f64;
    fn classify(&self, target: usize, x: &mut [usize]) -> usize;
    fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64>;
}

macro_rules! query_api {
    ($t:ty) => {
        impl QueryApi for $t {
            fn log_query(&self, x: &[usize]) -> f64 {
                <$t>::log_query(self, x)
            }
            fn classify(&self, target: usize, x: &mut [usize]) -> usize {
                <$t>::classify(self, target, x)
            }
            fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
                <$t>::posterior(self, target, x)
            }
        }
    };
}
query_api!(ClusterModel);
query_api!(AnyTracker);
query_api!(SnapshotServer);

impl<R: CounterReads + ?Sized> QueryApi for CptEvaluator<'_, R> {
    fn log_query(&self, x: &[usize]) -> f64 {
        CptEvaluator::log_query(self, x)
    }
    fn classify(&self, target: usize, x: &mut [usize]) -> usize {
        CptEvaluator::classify(self, target, x)
    }
    fn posterior(&self, target: usize, x: &mut [usize]) -> Vec<f64> {
        CptEvaluator::posterior(self, target, x)
    }
}

/// Definition 2's `eps` for every workload.
pub const EPS: f64 = 0.1;

/// Each check answers the whole mix this many times, timing every answer.
const ROUNDS: usize = 3;

/// Timed answers kept per query: the rounds of the first eight checks.
/// Later answers are still checked but not kept, so the benchmark's own
/// memory, and with it `peak_rss_mb`, does not grow with the number of
/// passes a fast run makes.
const KEPT_ANSWERS: usize = 8 * ROUNDS;

/// The queries a workload answers: the paper's test events (every CPD
/// factor at least 0.01 under the ground truth) and classification cases,
/// asked as a mix of a third each of joint queries, classifications and
/// posteriors.
pub struct QuerySet {
    joint: Vec<Vec<usize>>,
    cases: Vec<ClassificationCase>,
}

/// One query of the mix.
pub enum Query<'a> {
    Joint(&'a [usize]),
    Classify(&'a ClassificationCase),
    Posterior(&'a ClassificationCase),
}

/// The answer to one query.
#[derive(Debug)]
pub enum Answer {
    Log(f64),
    Class(usize),
    Posterior(Vec<f64>),
}

impl QuerySet {
    pub fn generate(net: &BayesianNetwork, seed: u64) -> Self {
        let joint = generate_queries(net, &QueryConfig::default(), seed);
        let cases = generate_classification_cases(net, 2 * joint.len(), seed ^ 0x5eed);
        QuerySet { joint, cases }
    }

    /// Queries in one pass over the mix.
    pub fn len(&self) -> usize {
        3 * self.joint.len()
    }

    /// Query `i` of the mix, cycling.
    pub fn get(&self, i: usize) -> Query<'_> {
        let i = i % self.len();
        let j = i / 3;
        match i % 3 {
            0 => Query::Joint(&self.joint[j]),
            1 => Query::Classify(&self.cases[2 * j]),
            _ => Query::Posterior(&self.cases[2 * j + 1]),
        }
    }
}

impl Query<'_> {
    /// Load the evidence a classification query overwrites into `x`, so
    /// the copy stays outside the timed call.
    pub fn prepare(&self, x: &mut Vec<usize>) {
        if let Query::Classify(c) | Query::Posterior(c) = self {
            x.clone_from(&c.x);
        }
    }

    /// Ask `model`; `x` must hold what [`Self::prepare`] loaded.
    pub fn ask(&self, model: &dyn QueryApi, x: &mut [usize]) -> Answer {
        match self {
            Query::Joint(q) => Answer::Log(model.log_query(q)),
            Query::Classify(c) => Answer::Class(model.classify(c.target, x)),
            Query::Posterior(c) => Answer::Posterior(model.posterior(c.target, x)),
        }
    }

    /// Whether `answer` is well formed: finite, a valid class, or a
    /// probability vector over `target`'s values.
    pub fn well_formed(&self, answer: &Answer, net: &BayesianNetwork) -> bool {
        match (self, answer) {
            (Query::Joint(_), Answer::Log(v)) => v.is_finite(),
            (Query::Classify(c), Answer::Class(k)) => *k < net.cardinality(c.target),
            (Query::Posterior(c), Answer::Posterior(p)) => {
                p.len() == net.cardinality(c.target) && posterior_ok(p)
            }
            _ => false,
        }
    }
}

/// Operations attempted and failed, with a note per failure kind.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; a failure is noted (first few per kind).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Accuracy diagnostics over the joint queries of one check.
#[derive(Default, Clone, Copy)]
pub struct Accuracy {
    /// Largest `|log P~ - log P^|`.
    pub max_log_gap: f64,
    /// Sum and count of `|P~ / P^ - 1|`.
    pub rel_err_sum: f64,
    pub n: u64,
}

impl Accuracy {
    pub fn mean_rel_err(&self) -> f64 {
        self.rel_err_sum / self.n.max(1) as f64
    }
}

/// Closed-loop query timings of a run: every timed answer, by the query's
/// place in the mix.
#[derive(Default)]
pub struct QueryTimes {
    answers_ns: Vec<Vec<f64>>,
}

impl QueryTimes {
    fn push(&mut self, query: usize, ns: f64) {
        if self.answers_ns.len() <= query {
            self.answers_ns.resize_with(query + 1, || Vec::with_capacity(KEPT_ANSWERS));
        }
        let kept = &mut self.answers_ns[query];
        if kept.len() < KEPT_ANSWERS {
            kept.push(ns);
        }
    }

    /// Each query's closed-loop latency in microseconds: the median of its
    /// kept answers over the run (every round of the first checks), so that an
    /// interrupt or a preempted time slice does not stand in for the
    /// query's cost.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.answers_ns.iter().filter(|a| !a.is_empty()).map(|a| median(a) * 1e-3).collect()
    }
}

/// Answer every query of `qs` through `model`'s public API, one call at a
/// time, [`ROUNDS`] times, timing each call, and check the answers against
/// `oracle`, which evaluates the exact counts with the model's own read
/// rules.
pub fn answer_and_check<R: CounterReads + ?Sized>(
    net: &BayesianNetwork,
    model: &dyn QueryApi,
    oracle: &CptEvaluator<'_, R>,
    qs: &QuerySet,
    times: &mut QueryTimes,
    acc: &mut Accuracy,
    tally: &mut Tally,
) {
    let mut x = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..qs.len() {
            let q = qs.get(i);
            q.prepare(&mut x);
            let t0 = Instant::now();
            let got = q.ask(model, &mut x);
            times.push(i, t0.elapsed().as_nanos() as f64);
            if round > 0 {
                continue;
            }
            // Definition 2 for joint queries, twice its band for each
            // posterior entry; classes and posteriors must be well formed.
            let in_band = match (&got, &q) {
                (Answer::Log(v), Query::Joint(point)) => {
                    let gap = (v - oracle.log_query(point)).abs();
                    if gap.is_finite() {
                        acc.max_log_gap = acc.max_log_gap.max(gap);
                        acc.rel_err_sum += gap.exp_m1();
                        acc.n += 1;
                    }
                    gap <= EPS
                }
                (Answer::Posterior(p), Query::Posterior(c)) => {
                    q.prepare(&mut x);
                    posterior_within(p, &oracle.posterior(c.target, &mut x), 2.0 * EPS)
                }
                _ => true,
            };
            let ok = in_band && q.well_formed(&got, net);
            tally.op(ok, || format!("answer {got:?} outside the exact-MLE band or malformed"));
        }
    }
}

/// Whether two answers are the same to the bit.
pub fn same_bits(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Log(a), Answer::Log(b)) => a.to_bits() == b.to_bits(),
        (Answer::Class(a), Answer::Class(b)) => a == b,
        (Answer::Posterior(a), Answer::Posterior(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    }
}

/// A served posterior is a finite probability vector.
pub fn posterior_ok(p: &[f64]) -> bool {
    !p.is_empty()
        && p.iter().all(|v| v.is_finite() && *v >= 0.0)
        && (p.iter().sum::<f64>() - 1.0).abs() < 1e-9
}

fn posterior_within(got: &[f64], want: &[f64], band: f64) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g.ln() - w.ln()).abs() <= band)
}

/// RMS of `(estimate - exact) / exact` over the family counters whose
/// exact count is at least 100, reading estimates through `est` and exact
/// counts through `exact`.
pub fn counter_rel_err_rms(
    layout: &CounterLayout,
    est: impl Fn(usize, usize, usize) -> f64,
    exact: impl Fn(usize, usize, usize) -> u64,
) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for i in 0..layout.n_vars() {
        for u in 0..layout.parent_configs(i) {
            for v in 0..layout.cardinality(i) {
                let e = exact(i, v, u);
                if e >= 100 {
                    let r = (est(i, v, u) - e as f64) / e as f64;
                    sum += r * r;
                    n += 1;
                }
            }
        }
    }
    (sum / n.max(1) as f64).sqrt()
}

/// Oracle reconciliation: for every variable `i`, the exact parent counts
/// `sum_u A_i(u)` equal the events fed. Returns the first variable that
/// disagrees, with its sum.
pub fn reconcile(
    layout: &CounterLayout,
    parent_count: impl Fn(usize, usize) -> u64,
    events: u64,
) -> Result<(), (usize, u64)> {
    for i in 0..layout.n_vars() {
        let sum: u64 = (0..layout.parent_configs(i)).map(|u| parent_count(i, u)).sum();
        if sum != events {
            return Err((i, sum));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_checks() {
        assert!(posterior_ok(&[0.25, 0.75]));
        assert!(!posterior_ok(&[0.25, f64::NAN]));
        assert!(!posterior_ok(&[0.3, 0.3]));
        assert!(posterior_within(&[0.5, 0.5], &[0.52, 0.48], 0.1));
        assert!(!posterior_within(&[0.5, 0.5], &[0.9, 0.1], 0.1));
    }

    #[test]
    fn query_latency_is_the_median_of_each_querys_answers() {
        let mut t = QueryTimes::default();
        for ns in [900.0, 1_000.0, 50_000.0] {
            t.push(0, ns);
        }
        for ns in [3_000.0, 2_000.0] {
            t.push(2, ns);
        }
        // Query 1 was never timed and yields no latency.
        assert_eq!(t.latencies_us(), vec![1.0, 2.5]);
        // Answers past the kept number are dropped.
        for _ in 0..KEPT_ANSWERS {
            t.push(2, 9_000.0);
        }
        assert_eq!(t.latencies_us(), vec![1.0, 9.0]);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        t.op(false, || "bad".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, vec!["bad".to_owned()]);
    }
}
