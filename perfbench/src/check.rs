//! Answer checking after the timed phase, outside every timer, against
//! a fresh in-process `Engine::submit` oracle on the same instances.

use crate::drive::{Rec, Write};
use crate::gen::{Expect, Op, Workload, HASHED_OPS};
use phom_core::{Engine, Response, SolveError};
use phom_net::wire::encode_result;
use phom_net::{Json, WireRequest};
use std::collections::BTreeMap;

/// The oracle's exact answer for one pool item.
pub struct Oracle {
    pub result: Result<Response, SolveError>,
    pub encoded: Json,
}

/// Exact oracle answers for every pool item: float items are asked
/// exactly (their reply must lie within its bound of this), estimate
/// items as they are (for their route).
pub fn oracle_pool(w: &Workload) -> Vec<Oracle> {
    let mut out: Vec<Option<Oracle>> = (0..w.pool.len()).map(|_| None).collect();
    for (inst, h) in w.instances.iter().enumerate() {
        let engine = Engine::builder()
            .cache_capacity(w.pool.len().max(1))
            .build(h.clone());
        let idx: Vec<usize> = (0..w.pool.len())
            .filter(|&i| w.pool[i].inst == inst)
            .collect();
        let reqs: Vec<_> = idx
            .iter()
            .map(|&i| exact_request(&w.pool[i].req).to_request())
            .collect();
        for (i, result) in idx.into_iter().zip(engine.submit(&reqs)) {
            let encoded = encode_result(&result);
            out[i] = Some(Oracle { result, encoded });
        }
    }
    out.into_iter()
        .map(|o| o.expect("every pool item belongs to an instance"))
        .collect()
}

fn exact_request(req: &WireRequest) -> WireRequest {
    WireRequest {
        precision: None,
        ..req.clone()
    }
}

/// The outcome of checking a phase.
#[derive(Default)]
pub struct Verdict {
    pub ok: u64,
    pub failed: BTreeMap<String, u64>,
    /// The first few mismatches, for the log.
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, code: &str, n: u64, note: String) {
        *self.failed.entry(code.to_string()).or_default() += n;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// Checks every answer of the given connections' records; typed errors
/// and transport failures they recorded count as failed too.
pub fn check(w: &Workload, oracle: &[Oracle], recs: &[&Rec]) -> Verdict {
    let mut v = Verdict::default();
    for rec in recs {
        for (code, n) in &rec.errors {
            *v.failed.entry(code.clone()).or_default() += n;
        }
        for (&idx, replies) in &rec.answers {
            let item = &w.pool[idx];
            for (reply, n) in replies {
                match judge(item.expect, reply, &oracle[idx]) {
                    Ok(()) => v.ok += n,
                    Err(why) => v.fail(
                        "mismatch",
                        *n,
                        format!("{}: {why}: {reply}", item.req.encode()),
                    ),
                }
            }
        }
        for write in &rec.writes {
            match check_write(w, write) {
                Ok(()) => v.ok += 1,
                Err(why) => v.fail("mismatch", 1, format!("fresh version: {why}")),
            }
        }
    }
    v
}

fn check_write(w: &Workload, write: &Write) -> Result<(), String> {
    if crate::drive::error_code(&write.reply).is_some() {
        return Ok(()); // already counted as failed when it came in
    }
    let (instance, req) = w.fresh(write.conn, write.k);
    let result = Engine::new(instance)
        .submit(&[req.to_request()])
        .pop()
        .expect("one answer per request");
    let want = encode_result(&result);
    if want == write.reply {
        Ok(())
    } else {
        Err(format!("expected {want}, got {}", write.reply))
    }
}

fn field_f64(reply: &Json, key: &str) -> Option<f64> {
    reply.get(key)?.as_str()?.parse().ok()
}

fn judge(expect: Expect, reply: &Json, oracle: &Oracle) -> Result<(), String> {
    let kind = reply.get("type").and_then(Json::as_str);
    match expect {
        Expect::Exact => {
            if *reply == oracle.encoded {
                Ok(())
            } else {
                Err(format!("expected {}", oracle.encoded))
            }
        }
        // A float request on a route without a float tier answers exactly.
        Expect::Float if kind == Some("probability") => {
            if *reply == oracle.encoded {
                Ok(())
            } else {
                Err(format!("expected {}", oracle.encoded))
            }
        }
        Expect::Float => {
            let (Some(p), Some(bound)) = (field_f64(reply, "p"), field_f64(reply, "rel_err"))
            else {
                return Err("not an approximate answer".into());
            };
            let Ok(Response::Probability(sol)) = &oracle.result else {
                return Err(format!("oracle has no exact value: {}", oracle.encoded));
            };
            if reply.get("route") != oracle.encoded.get("route") {
                return Err(format!("route differs from {}", oracle.encoded));
            }
            let exact = sol.probability.to_f64();
            // `to_f64` rounds the exact value to nearest, so allow its
            // half-ulp on top of the certified bound.
            let slack = exact.abs() * f64::EPSILON;
            if p == exact || (p - exact).abs() <= bound * exact.abs() + slack {
                Ok(())
            } else {
                Err(format!("{p} is not within {bound} of {exact}"))
            }
        }
        Expect::Estimate { samples } => {
            let (Some(lo), Some(hi)) = (field_f64(reply, "lo"), field_f64(reply, "hi")) else {
                return Err("not an estimate".into());
            };
            let got = reply.get("samples").and_then(Json::as_u64);
            if kind == Some("estimate")
                && 0.0 <= lo
                && lo <= hi
                && hi <= 1.0
                && got == Some(samples)
            {
                Ok(())
            } else {
                Err(format!("bad interval or sample count (asked {samples})"))
            }
        }
    }
}

/// The route name of an oracle answer, without its fields.
pub fn route_name(oracle: &Oracle) -> String {
    let name = match &oracle.result {
        Ok(Response::Estimate { .. }) => return "estimate".into(),
        Ok(Response::Count { .. }) => return "count".into(),
        Ok(_) => oracle
            .encoded
            .get("route")
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_string(),
        Err(e) => format!("error:{}", e.wire_code()),
    };
    name.split([' ', '{']).next().unwrap_or("").to_string()
}

/// Per-route counts over the hashed prefix of every connection's
/// stream, keyed `family>route` (the cell a request was generated for,
/// and the route the oracle took): fixed by the seed, whatever the timed
/// phase reaches.
pub fn route_counts(w: &Workload, oracle: &[Oracle]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for conn in 0..w.conns {
        for op in w.stream(conn).take(HASHED_OPS) {
            let name = match op {
                Op::Read(i) => format!("{:?}>{}", w.pool[i].family, route_name(&oracle[i])),
                Op::Write(_) => "write".into(),
            };
            *counts.entry(name).or_default() += 1;
        }
    }
    counts
}
