//! Seeded workload generation. Every input derives from the run's
//! `--seed` through `phom_graph::generate`; the program only ever sees
//! the generated instances and requests.

use crate::util::Fnv;
use phom_core::{OnHard, Precision};
use phom_graph::generate::{self, ProbProfile};
use phom_graph::{Graph, GraphBuilder, Label, ProbGraph};
use phom_net::wire::{self, WireBudget};
use phom_net::WireRequest;
use phom_num::Rational;
use phom_serve::Runtime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Stream operations hashed per connection for the determinism line.
pub const HASHED_OPS: usize = 4096;

/// Runtime settings; the same for every runtime a workload builds
/// (its measured stack and every replay stack of the traced run).
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub max_batch: usize,
    pub max_wait: Duration,
    pub workers: usize,
    pub queue_cap: usize,
    pub cache: usize,
}

impl Settings {
    pub fn runtime(&self) -> Runtime {
        Runtime::builder()
            .max_batch(self.max_batch)
            .max_wait(self.max_wait)
            .workers(self.workers)
            .queue_cap(self.queue_cap)
            .cache_capacity(self.cache)
            .build()
    }

    pub fn describe(&self) -> String {
        format!(
            "max_batch={} max_wait_us={} workers={} queue_cap={} cache_bound={}",
            self.max_batch,
            self.max_wait.as_micros(),
            self.workers,
            self.queue_cap,
            self.cache
        )
    }
}

/// How clients talk to the front door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Wire v2 (`MuxClient`): each connection keeps `depth` single
    /// submits in flight.
    V2,
    /// Wire v1 (`Client`): each connection submits a ticket batch of
    /// `depth` requests, then polls each ticket.
    V1,
}

/// The paper cell a pool item is meant to hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Prop36,
    Prop410,
    Prop411,
    Prop54,
    Hard,
    Count,
    Ucq,
}

/// What a correct answer looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Bit-identical to the in-process oracle.
    Exact,
    /// Within its certified relative bound of the exact value.
    Float,
    /// A confidence interval inside [0, 1] over exactly this many samples.
    Estimate { samples: u64 },
}

pub struct Item {
    pub inst: usize,
    pub req: WireRequest,
    pub family: Family,
    pub expect: Expect,
}

/// One operation of a connection's request stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read(usize),
    /// The `k`-th write of this connection: register a fresh version and
    /// read from it at once.
    Write(u64),
}

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub instances: Vec<ProbGraph>,
    pub pool: Vec<Item>,
    pub settings: Settings,
    pub proto: Proto,
    pub conns: usize,
    pub depth: usize,
    /// 0: one server; n: a router over n member servers.
    pub members: usize,
    /// Share of stream operations that are writes.
    pub write_share: f64,
    /// The instances a write re-weights into a fresh version.
    pub fresh_bases: Vec<usize>,
}

pub const WORKLOADS: [&str; 3] = ["hot_v2", "cold_exact", "router_churn"];

/// Instance *shapes* — the graphs and which of their edges are certain —
/// come from this fixed seed; the run's seed draws the uncertain
/// probabilities, the queries, the streams and the writes. One random
/// shape per family made most of the spread between seeds (which edges
/// are certain changes how much work a query takes), so the shapes are
/// part of the workload's definition.
const SHAPE_SEED: u64 = 0x2017_0514;

/// A shape with the default profile's certain edges.
fn shape(g: Graph, tag: u64) -> ProbGraph {
    generate::with_probabilities(g, ProbProfile::default(), &mut rng(SHAPE_SEED, tag))
}

/// The same shape with fresh k/16 probabilities on its uncertain edges.
fn reweigh(h: &ProbGraph, r: &mut SmallRng) -> ProbGraph {
    let probs = h
        .probs()
        .iter()
        .map(|p| {
            if p.is_one() {
                p.clone()
            } else {
                Rational::from_ratio(r.gen_range(1..16), 16)
            }
        })
        .collect();
    ProbGraph::new(h.graph().clone(), probs)
}

fn rng(seed: u64, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
}

fn query_key(inst: usize, req: &WireRequest) -> String {
    format!("{inst}:{}", req.encode())
}

/// Adds distinct items drawn from `draw(k)` until `want` are in, or the
/// attempt budget runs out; `k` counts the attempts, so draws can cycle
/// through query sizes (which keeps the cost of a pool steady from seed
/// to seed) without a size that has run out of new queries stalling.
fn fill(
    pool: &mut Vec<Item>,
    seen: &mut HashSet<String>,
    want: usize,
    mut draw: impl FnMut(usize) -> Option<Item>,
) {
    let start = pool.len();
    let mut attempts = 0;
    while pool.len() - start < want && attempts < want * 200 {
        attempts += 1;
        if let Some(item) = draw(attempts - 1) {
            if seen.insert(query_key(item.inst, &item.req)) {
                pool.push(item);
            }
        }
    }
}

fn exact(inst: usize, req: WireRequest, family: Family) -> Item {
    Item {
        inst,
        req,
        family,
        expect: Expect::Exact,
    }
}

/// A labeled path query along a random directed walk of the instance
/// (a DWT instance gets a true downward path).
fn planted(h: &ProbGraph, m: usize, r: &mut SmallRng) -> Option<Graph> {
    generate::planted_path_query(h.graph(), m, r)
}

/// The #P-hard cell: a 1-edge query on the 2-cycle.
pub fn two_cycle() -> ProbGraph {
    let mut b = GraphBuilder::with_vertices(2);
    b.edge(0, 1, Label(0));
    b.edge(1, 0, Label(0));
    ProbGraph::new(b.build(), vec![Rational::from_ratio(1, 2); 2])
}

/// `n` hard-cell estimate requests with distinct seeded sample budgets.
pub fn hard_items(seed: u64, inst: usize, n: usize) -> Vec<Item> {
    let mut r = rng(seed, 99);
    let q = Graph::one_way_path(&[Label(0)]);
    (0..n)
        .map(|i| {
            let samples = 1000 + 40 * i as u64 + r.gen_range(0..40u64);
            Item {
                inst,
                req: WireRequest::probability(q.clone())
                    .with_on_hard(OnHard::Estimate)
                    .with_budget(WireBudget {
                        samples: Some(samples),
                        ..WireBudget::default()
                    }),
                family: Family::Hard,
                expect: Expect::Estimate { samples },
            }
        })
        .collect()
}

const FLOAT: Precision = Precision::Float { max_rel_err: 1e-9 };

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "hot_v2" => Some(hot_v2(seed)),
            "cold_exact" => Some(cold_exact(seed)),
            "router_churn" => Some(router_churn(seed)),
            _ => None,
        }
    }

    /// The operation stream of connection `conn`.
    pub fn stream(&self, conn: usize) -> Stream {
        Stream {
            rng: rng(self.seed, 1000 + conn as u64),
            pool: self.pool.len(),
            write_share: self.write_share,
            writes: 0,
        }
    }

    /// The fresh version written by the `k`-th write of `conn`: a seeded
    /// re-weighting of a base instance, and the request read from it —
    /// a one-edge query, whose lineage spans every edge with its label,
    /// so the read pays a full cold plan.
    pub fn fresh(&self, conn: usize, k: u64) -> (ProbGraph, WireRequest) {
        let mut r = rng(self.seed, (2000 + conn as u64) << 32 | k);
        let base = self.fresh_bases[r.gen_range(0..self.fresh_bases.len())];
        let fresh = reweigh(&self.instances[base], &mut r);
        let req = WireRequest::probability(Graph::one_way_path(&[Label(0)]));
        (fresh, req)
    }

    /// Hash of the pool and of the first [`HASHED_OPS`] operations of
    /// every connection's stream, fresh versions included.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for (i, h_inst) in self.instances.iter().enumerate() {
            h.u64(i as u64);
            h.bytes(wire::encode_instance(h_inst).encode().as_bytes());
        }
        for item in &self.pool {
            h.bytes(query_key(item.inst, &item.req).as_bytes());
        }
        for conn in 0..self.conns {
            for op in self.stream(conn).take(HASHED_OPS) {
                match op {
                    Op::Read(i) => h.u64(i as u64),
                    Op::Write(k) => {
                        let (fresh, req) = self.fresh(conn, k);
                        h.bytes(wire::encode_instance(&fresh).encode().as_bytes());
                        h.bytes(req.encode().encode().as_bytes());
                    }
                }
            }
        }
        h.finish()
    }
}

pub struct Stream {
    rng: SmallRng,
    pool: usize,
    write_share: f64,
    writes: u64,
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.write_share > 0.0 && self.rng.gen_bool(self.write_share) {
            self.writes += 1;
            return Some(Op::Write(self.writes - 1));
        }
        Some(Op::Read(self.rng.gen_range(0..self.pool)))
    }
}

/// One ~512-edge 2WP and 32 distinct Prop 4.11 queries, all warmed:
/// every timed answer is a cache hit.
fn hot_v2(seed: u64) -> Workload {
    let mut r = rng(seed, 1);
    let h = reweigh(
        &shape(generate::two_way_path(512, 2, &mut rng(SHAPE_SEED, 1)), 11),
        &mut r,
    );
    let mut pool = Vec::new();
    let mut seen = HashSet::new();
    fill(&mut pool, &mut seen, 32, |k| {
        planted(&h, 3 + k % 4, &mut r)
            .map(|q| exact(0, WireRequest::probability(q), Family::Prop411))
    });
    let missing = 32 - pool.len();
    fill(&mut pool, &mut seen, missing, |k| {
        let q = generate::connected(3 + k % 3, 1, 2, &mut r);
        Some(exact(0, WireRequest::probability(q), Family::Prop411))
    });
    Workload {
        name: "hot_v2",
        seed,
        instances: vec![h],
        pool,
        settings: SETTINGS,
        proto: Proto::V2,
        conns: 2,
        depth: 8,
        members: 0,
        write_share: 0.0,
        fresh_bases: vec![0],
    }
}

const SETTINGS: Settings = Settings {
    max_batch: 16,
    max_wait: Duration::from_micros(250),
    workers: 2,
    queue_cap: 1024,
    cache: 64,
};

/// Pool items per tractable family of cold_exact; with ~10% hard items
/// on top the pool is far beyond 8× the cache bound.
const COLD_PER_FAMILY: usize = 240;
const COLD_HARD: usize = 106;

/// One instance per tractable family plus the 2-cycle hard cell; the
/// query pool is 16× the cache bound, so answers are compiled and
/// evaluated, not looked up.
fn cold_exact(seed: u64) -> Workload {
    let mut s = rng(SHAPE_SEED, 2);
    let shapes = [
        generate::union_of(6, &mut s, |r| generate::downward_tree(50, 1, r)),
        generate::downward_tree(300, 3, &mut s),
        generate::two_way_path(300, 2, &mut s),
        generate::polytree(300, 1, &mut s),
    ];
    let mut r = rng(seed, 2);
    let mut instances: Vec<ProbGraph> = shapes
        .into_iter()
        .zip(20..)
        .map(|(g, tag)| reweigh(&shape(g, tag), &mut r))
        .collect();
    instances.push(two_cycle());

    let mut pool = Vec::new();
    let mut seen = HashSet::new();
    // Prop 3.6: graded unlabeled queries on the ⊔DWT.
    fill(&mut pool, &mut seen, COLD_PER_FAMILY, |k| {
        let q = generate::graded_query(3 + k % 7, k % 3, 1 + (k % 4) as i64, &mut r);
        (q.n_edges() > 0).then(|| exact(0, WireRequest::probability(q), Family::Prop36))
    });
    // Prop 4.10: labeled 1WP queries on the DWT, half planted.
    fill(&mut pool, &mut seen, COLD_PER_FAMILY, |k| {
        let m = 2 + k / 2 % 5;
        let q = if k % 2 == 0 {
            planted(&instances[1], m, &mut r)?
        } else {
            generate::one_way_path(m, 3, &mut r)
        };
        Some(maybe_float(1, q, Family::Prop410, k % 8 >= 6))
    });
    // Prop 4.11: connected queries on the 2WP. They are oriented trees:
    // a chord can make a query with no level mapping, which every
    // polytree world answers 0 without reaching the Prop 4.11 route.
    fill(&mut pool, &mut seen, COLD_PER_FAMILY, |k| {
        let q = if k % 2 == 0 {
            planted(&instances[2], 2 + k / 2 % 3, &mut r)?
        } else {
            generate::connected(3 + k / 2 % 3, 0, 2, &mut r)
        };
        Some(maybe_float(2, q, Family::Prop411, k % 8 >= 6))
    });
    // Prop 5.4: unlabeled paths and ⊔DWT queries (collapsed by Prop 5.5)
    // on the polytree.
    fill(&mut pool, &mut seen, COLD_PER_FAMILY, |k| {
        let q = if k < 8 {
            Graph::directed_path(1 + k)
        } else {
            generate::union_of(1 + k % 3, &mut r, |r| {
                generate::downward_tree(2 + k % 6, 1, r)
            })
        };
        Some(exact(3, WireRequest::probability(q), Family::Prop54))
    });
    pool.extend(hard_items(seed, 4, COLD_HARD));
    Workload {
        name: "cold_exact",
        seed,
        instances,
        pool,
        settings: SETTINGS,
        proto: Proto::V2,
        conns: 2,
        depth: 2,
        members: 0,
        write_share: 0.0,
        fresh_bases: vec![2],
    }
}

/// A quarter of the circuit-route items ask for the float tier.
fn maybe_float(inst: usize, q: Graph, family: Family, float: bool) -> Item {
    if float {
        Item {
            inst,
            req: WireRequest::probability(q).with_precision(FLOAT),
            family,
            expect: Expect::Float,
        }
    } else {
        exact(inst, WireRequest::probability(q), family)
    }
}

/// Four ½-weighted 2WP versions behind a router over two one-worker
/// members; warm probability, counting and UCQ reads, and ~2% writes of
/// fresh re-weighted versions read at once.
fn router_churn(seed: u64) -> Workload {
    let mut shapes = rng(SHAPE_SEED, 3);
    let mut r = rng(seed, 3);
    // ½ or certain, so counting reads apply; the seed picks the queries.
    let half_or_certain = ProbProfile {
        certain_ratio: 0.25,
        denominator: 2,
    };
    let instances: Vec<ProbGraph> = (0..4)
        .map(|_| {
            let g = generate::two_way_path(96, 2, &mut shapes);
            generate::with_probabilities(g, half_or_certain, &mut shapes)
        })
        .collect();
    let mut pool = Vec::new();
    let mut seen = HashSet::new();
    for (i, h) in instances.iter().enumerate() {
        let mut queries = Vec::new();
        let mut qseen = HashSet::new();
        let mut attempts = 0;
        while queries.len() < 6 && attempts < 2000 {
            attempts += 1;
            let m = r.gen_range(2..=4);
            if let Some(q) = planted(h, m, &mut r) {
                if qseen.insert(wire::encode_query(&q).encode()) {
                    queries.push(q);
                }
            }
        }
        while queries.len() < 6 {
            let q = generate::connected(r.gen_range(2..=4), 0, 2, &mut r);
            if qseen.insert(wire::encode_query(&q).encode()) {
                queries.push(q);
            }
        }
        for q in &queries {
            fill(&mut pool, &mut seen, 1, |_| {
                Some(exact(
                    i,
                    WireRequest::probability(q.clone()),
                    Family::Prop411,
                ))
            });
        }
        for q in queries.iter().take(3) {
            fill(&mut pool, &mut seen, 1, |_| {
                Some(exact(i, WireRequest::counting(q.clone()), Family::Count))
            });
        }
        for d in 0..3 {
            let disjuncts = vec![queries[d].clone(), queries[d + 3].clone()];
            fill(&mut pool, &mut seen, 1, |_| {
                Some(exact(i, WireRequest::ucq(disjuncts.clone()), Family::Ucq))
            });
        }
    }
    Workload {
        name: "router_churn",
        seed,
        instances,
        pool,
        settings: Settings {
            workers: 1,
            ..SETTINGS
        },
        proto: Proto::V1,
        conns: 2,
        depth: 16,
        members: 2,
        write_share: 0.02,
        fresh_bases: (0..4).collect(),
    }
}
