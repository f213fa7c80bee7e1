//! The traced run: the per-layer cost ledger.
//!
//! The measured stack first runs the timed phase again with a span
//! around every request, which gives the tracing overhead. Then the
//! workload's request stream is replayed into each layer's public entry
//! point, each against its own freshly built stack with the workload's
//! settings, so no boundary warms another's cache:
//!
//! graph (`Runtime::register`) → lineage (`lineage_circuits` and
//! `FlatArena`) → core (`Engine::submit`) → serve (`Runtime::enqueue_to`
//! and `Ticket::wait`) → net (`Server` over the workload's protocol) →
//! fleet (`Router`, and the same calls sent straight to the owning
//! member).
//!
//! Spans are recorded by the benchmark around those calls, kept in
//! memory, and written out when the run ends.

use crate::check::{self, Oracle, Verdict};
use crate::drive::{self, Front, Live, Phase, Trace, REQUEST_TIMEOUT};
use crate::gen::{self, Expect, Family, Op, Proto, Workload};
use crate::util::{self, SpanLog};
use crate::{put, Metrics};
use phom_core::algo::lineage_circuits;
use phom_core::{instance_fingerprint, CacheHandle, Engine};
use phom_fleet::{owner_of, MemberSpec};
use phom_lineage::FlatArena;
use phom_net::wire::{encode_result, encode_version};
use phom_net::{Client, Json, WireKind};
use phom_num::Rational;
use phom_obs::{bucket_bounds, Histogram};
use phom_serve::{Runtime, RuntimeStats, Ticket};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What the untraced timed phase measured, for the ratios.
pub struct E2e {
    pub throughput: f64,
    pub latency_p50_us: f64,
    pub cache_hit_ratio: f64,
    /// The measured router's lazy registrations, when there is one.
    pub lazy_registers: Option<u64>,
}

/// Spans written out per span name; the statistics use every span.
const SPANS_WRITTEN_PER_NAME: usize = 20_000;

/// Hard-cell requests timed on workloads whose stream has none, so
/// `core.estimate_us_p50` is always a measurement.
const ESTIMATE_PROBES: usize = 64;

/// Requests per in-process replay at most: warm `Engine::submit` calls
/// take about a microsecond, and each keeps a span in memory.
const MAX_REPLAY_OPS: usize = 200_000;

fn p(log: &SpanLog, name: &str, q: f64) -> f64 {
    util::us(util::quantile(&log.durations(name), q))
}

/// Runs the traced phase and every layer replay, adds the per-layer
/// metrics, and returns the verdict on every answer they received.
pub fn run(
    w: &Workload,
    live: &mut Live,
    dur: Duration,
    e2e: &E2e,
    oracle: &[Oracle],
    m: &mut Metrics,
) -> Result<Verdict, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let slice = dur / 4;
    let mut verdicts = Vec::new();

    util::stage("traced phase");
    let traced = drive::run(
        w,
        &mut live.conns,
        &live.versions,
        dur,
        Some(Trace {
            name: "e2e.request",
            epoch,
        }),
    );
    let traced_verdict = check_phase(w, oracle, &traced);
    let traced_tput = traced.rate(dur) * crate::ratio(traced_verdict.ok, traced.answered());
    absorb(&mut log, &traced);
    verdicts.push(traced_verdict);

    util::stage("graph");
    graph(w, slice, &mut log);
    util::stage("lineage");
    let gates = lineage(w, slice, &mut log);
    util::stage("core");
    let est = core(w, slice, &mut log);
    util::stage("serve");
    let (serve_stats, serve_phase) = serve(w, slice, &mut log)?;
    util::stage("net");
    let (net_phase, prom, net_stats) = net(w, slice, &mut log)?;
    util::stage("fleet");
    let (fleet_phase, direct_phase, lazy) = fleet(w, slice, &mut log)?;
    for phase in [&serve_phase, &net_phase, &fleet_phase, &direct_phase] {
        verdicts.push(check_phase(w, oracle, phase));
    }
    util::stage("codec");
    let (codec_us, bytes) = codec(w, oracle, slice / 4, &mut log);

    let core50 = p(&log, "core.submit", 0.5);
    let serve50 = p(&log, "serve.request", 0.5);
    let net50 = p(&log, "net.request", 0.5);
    let fleet50 = p(&log, "fleet.request", 0.5);
    let direct50 = p(&log, "fleet.direct", 0.5);
    let queue_wait = median_us(&merged_queue(&serve_stats));

    put(
        m,
        "graph.register_us_p50",
        p(&log, "graph.register", 0.5),
        "us",
    );
    put(
        m,
        "lineage.compile_us_p50",
        p(&log, "lineage.compile", 0.5),
        "us",
    );
    put(m, "lineage.eval_us_p50", p(&log, "lineage.eval", 0.5), "us");
    put(m, "lineage.gates_mean", util::mean(&gates), "count");
    put(m, "core.submit_us_p50", core50, "us");
    put(m, "core.submit_us_p99", p(&log, "core.submit", 0.99), "us");
    put(
        m,
        "core.estimate_us_p50",
        util::us(util::quantile(&est, 0.5)),
        "us",
    );
    put(m, "core.cache_hit_ratio", e2e.cache_hit_ratio, "ratio");
    put(m, "serve.request_us_p50", serve50, "us");
    put(
        m,
        "serve.request_us_p99",
        p(&log, "serve.request", 0.99),
        "us",
    );
    put(m, "serve.handoff_us_p50", serve50 - core50, "us");
    put(
        m,
        "serve.batch_size_mean",
        serve_stats.mean_tick_requests(),
        "count",
    );
    put(m, "serve.queue_wait_us_p50", queue_wait, "us");
    put(
        m,
        "serve.overloaded_total",
        serve_stats.rejected as f64,
        "count",
    );
    put(m, "net.request_us_p50", net50, "us");
    put(m, "net.request_us_p99", p(&log, "net.request", 0.99), "us");
    put(m, "net.wire_us_p50", net50 - serve50, "us");
    put(m, "net.codec_us_per_request", codec_us, "us");
    put(m, "net.bytes_per_request", bytes, "bytes");
    put(m, "fleet.request_us_p50", fleet50, "us");
    put(
        m,
        "fleet.request_us_p99",
        p(&log, "fleet.request", 0.99),
        "us",
    );
    put(m, "fleet.hop_us_p50", fleet50 - direct50, "us");
    let lazy = e2e.lazy_registers.unwrap_or(lazy);
    put(m, "fleet.lazy_registers_total", lazy as f64, "count");
    put(
        m,
        "bench.trace_overhead_frac",
        traced_tput / e2e.throughput,
        "ratio",
    );

    // The shares telescope to the top replay's median: behind a router
    // the wire share is the direct call to the owning member (the same
    // member layout as the routed call), so the hop adds only the router.
    let mut shares = vec![("core", core50), ("serve.handoff", serve50 - core50)];
    if w.members > 0 {
        shares.push(("net.wire", direct50 - serve50));
        shares.push(("fleet.hop", fleet50 - direct50));
    } else {
        shares.push(("net.wire", net50 - serve50));
    }
    reconcile(w, e2e, &shares);
    // The benchmark's span-derived shares against the program's own
    // stage histograms (serve replay), and the wire exposition of those
    // histograms against `Runtime::stats()` on one stack (net replay; the
    // exposition reports the histogram's own bucket-bound quantiles).
    let serve_stage = median_us(&serve_stats.plan_ns) + median_us(&serve_stats.eval_ns);
    let stage_us =
        |s: &RuntimeStats| util::us(s.plan_ns.quantile(0.5)) + util::us(s.eval_ns.quantile(0.5));
    let net_queue = util::us(merged_queue(&net_stats).quantile(0.5));
    println!(
        "crosscheck {}: serve.handoff_us_p50 / program queue p50 = {:.1} / {:.1} = {:.3}; \
         core.submit_us_p50 / program plan+eval p50 = {:.1} / {:.1} = {:.3}; \
         metrics-op / Runtime::stats (net replay): queue p50 {:.3}, plan+eval p50 {:.3}",
        w.name,
        serve50 - core50,
        queue_wait,
        (serve50 - core50) / queue_wait,
        core50,
        serve_stage,
        core50 / serve_stage,
        prom.queue_us / net_queue,
        (prom.plan_us + prom.eval_us) / stage_us(&net_stats),
    );

    let path = std::path::Path::new(".bench_build")
        .join("perfbench")
        .join(format!("spans-{}.jsonl", w.name));
    let written = log
        .write_jsonl(&path, SPANS_WRITTEN_PER_NAME)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "spans: {} recorded, {written} written to {}",
        log.spans.len(),
        path.display()
    );

    let mut verdict = Verdict::default();
    for v in verdicts {
        verdict.ok += v.ok;
        for (k, n) in v.failed {
            *verdict.failed.entry(k).or_default() += n;
        }
        verdict.notes.extend(v.notes);
    }
    Ok(verdict)
}

fn check_phase(w: &Workload, oracle: &[Oracle], phase: &Phase) -> Verdict {
    let recs: Vec<&drive::Rec> = phase.recs.iter().collect();
    check::check(w, oracle, &recs)
}

fn absorb(log: &mut SpanLog, phase: &Phase) {
    for rec in &phase.recs {
        log.spans.extend_from_slice(&rec.spans);
    }
}

/// The bound `BENCHMARK.json` fixes for `latency_p50_us`: how far two
/// measurements of the same stack may differ from run-to-run noise.
const LATENCY_BOUND: f64 = 0.25;

/// Each layer's derived share of the end-to-end median, and whether
/// their sum stays within it. The shares telescope to the top replay's
/// median, a separate traced measurement of the same stack shape, so the
/// sum may exceed the end-to-end median by noise; the verdict says
/// whether it stays within the metric's own run-to-run bound.
fn reconcile(w: &Workload, e2e: &E2e, parts: &[(&str, f64)]) {
    let total = e2e.latency_p50_us;
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let shares: Vec<String> = parts
        .iter()
        .map(|(k, v)| format!("{k}={v:.1}us ({:.1}%)", 100.0 * v / total))
        .collect();
    let verdict = if sum <= total {
        "<= end-to-end: ok"
    } else if sum <= total * (1.0 + LATENCY_BOUND) {
        "exceeds end-to-end within the run-to-run bound of latency_p50_us"
    } else {
        "EXCEEDS end-to-end beyond the run-to-run bound of latency_p50_us"
    };
    println!(
        "reconcile {}: latency_p50_us={total:.1} {} sum={sum:.1}us ({:.1}%) {verdict}",
        w.name,
        shares.join(" "),
        100.0 * sum / total,
    );
}

/// `Runtime::register`: fingerprint plus instance preprocessing, for the
/// workload's instances and the fresh versions its writes create.
fn graph(w: &Workload, slice: Duration, log: &mut SpanLog) {
    let rt = w.settings.runtime();
    let end = Instant::now() + slice;
    let mut k = 0u64;
    while Instant::now() < end {
        let h = if k.is_multiple_of(2) {
            w.instances[(k / 2) as usize % w.instances.len()].clone()
        } else {
            w.fresh(0, k / 2).0
        };
        let t = Instant::now();
        let version = rt.register(h);
        log.record("graph.register", 0, k, t, Instant::now());
        rt.deregister(version);
        util::progress();
        k += 1;
    }
}

/// Compiles each Prop 4.10/4.11 probability read of the stream into its
/// lineage circuit and flat slab, then evaluates it exactly; returns the
/// gate counts.
fn lineage(w: &Workload, slice: Duration, log: &mut SpanLog) -> Vec<f64> {
    let probs: Vec<Vec<Rational>> = w.instances.iter().map(|h| h.probs().to_vec()).collect();
    let mut gates = Vec::new();
    let mut values = Vec::new();
    let end = Instant::now() + slice;
    for (n, op) in w.stream(0).enumerate().take(MAX_REPLAY_OPS) {
        if Instant::now() >= end {
            break;
        }
        let Op::Read(i) = op else { continue };
        let item = &w.pool[i];
        let (WireKind::Probability(q), Expect::Exact) = (&item.req.kind, item.expect) else {
            continue;
        };
        let g = w.instances[item.inst].graph();
        let id = log.reserve();
        let t0 = Instant::now();
        let compiled = match item.family {
            Family::Prop410 => lineage_circuits::fail_circuit_dwt(q, g),
            Family::Prop411 => lineage_circuits::match_circuit_2wp(q, g),
            _ => continue,
        };
        let Some((circuit, root)) = compiled else {
            continue;
        };
        let flat = FlatArena::compile(&circuit, &[root]);
        let t1 = Instant::now();
        std::hint::black_box(flat.eval_many::<Rational>(&probs[item.inst], &mut values));
        let t2 = Instant::now();
        log.record("lineage.compile", id, n as u64, t0, t1);
        log.record("lineage.eval", id, n as u64, t1, t2);
        log.record_as(id, "lineage.query", n as u64, t0, t2);
        gates.push(circuit.n_gates() as f64);
        util::progress();
    }
    gates
}

/// `Engine::submit`, one request at a time, on fresh engines sharing one
/// cache with the workload's bound, warmed like the measured stack;
/// returns the hard-cell estimate times.
fn core(w: &Workload, slice: Duration, log: &mut SpanLog) -> Vec<u64> {
    let cache = CacheHandle::with_capacity(w.settings.cache);
    let engines: Vec<Engine> = w
        .instances
        .iter()
        .map(|h| {
            Engine::builder()
                .shared_cache(cache.clone())
                .build(h.clone())
        })
        .collect();
    for i in drive::warm_set(w) {
        let item = &w.pool[i];
        engines[item.inst].submit(&[item.req.to_request()]);
    }
    let mut est = Vec::new();
    let end = Instant::now() + slice;
    for (n, op) in w.stream(0).enumerate().take(MAX_REPLAY_OPS) {
        if Instant::now() >= end {
            break;
        }
        let Op::Read(i) = op else { continue };
        let item = &w.pool[i];
        let req = item.req.to_request();
        let t = Instant::now();
        std::hint::black_box(engines[item.inst].submit(std::slice::from_ref(&req)));
        let done = Instant::now();
        log.record("core.submit", 0, n as u64, t, done);
        if item.family == Family::Hard {
            est.push((done - t).as_nanos() as u64);
        }
        util::progress();
    }
    if est.is_empty() {
        let engine = Engine::new(gen::two_cycle());
        for (n, item) in gen::hard_items(w.seed, 0, ESTIMATE_PROBES)
            .iter()
            .enumerate()
        {
            let req = item.req.to_request();
            let t = Instant::now();
            std::hint::black_box(engine.submit(std::slice::from_ref(&req)));
            let done = Instant::now();
            log.record("core.estimate_probe", 0, n as u64, t, done);
            est.push((done - t).as_nanos() as u64);
        }
    }
    est
}

/// `Runtime::enqueue_to` + `Ticket::wait` with the workload's closed-loop
/// shape and no socket; returns the runtime's own stats and the phase.
fn serve(
    w: &Workload,
    slice: Duration,
    log: &mut SpanLog,
) -> Result<(RuntimeStats, Phase), String> {
    let rt = w.settings.runtime();
    let versions: Vec<u64> = w.instances.iter().map(|h| rt.register(h.clone())).collect();
    for i in drive::warm_set(w) {
        let item = &w.pool[i];
        rt.enqueue_to(versions[item.inst], item.req.to_request())
            .and_then(|t| t.wait())
            .map_err(|e| format!("serve warm: {e}"))?;
    }
    let t0 = Instant::now();
    let recs: Vec<drive::Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.conns)
            .map(|ci| {
                let (rt, versions) = (&rt, &versions);
                let log = SpanLog::new(log.epoch());
                s.spawn(move || serve_conn(w, rt, versions, ci, t0 + slice, log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve replay thread panicked"))
            .collect()
    });
    let phase = Phase {
        start: t0,
        elapsed: t0.elapsed(),
        recs,
    };
    absorb(log, &phase);
    Ok((rt.stats(), phase))
}

fn serve_conn(
    w: &Workload,
    rt: &Runtime,
    versions: &[u64],
    ci: usize,
    end: Instant,
    mut log: SpanLog,
) -> drive::Rec {
    let mut rec = drive::Rec::default();
    let mut stream = w.stream(ci);
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let mut n = 0u64;
    loop {
        // v2 keeps `depth` in flight; v1 sends a batch of `depth`, then
        // waits for all of it.
        let refill = w.proto == Proto::V2 || inflight.is_empty();
        while refill && inflight.len() < w.depth && Instant::now() < end {
            let Some(Op::Read(i)) = stream.next() else {
                continue; // writes are timed by the graph and fleet replays
            };
            let item = &w.pool[i];
            let req = item.req.to_request();
            rec.sent += 1;
            let t = Instant::now();
            match rt.enqueue_to(versions[item.inst], req) {
                Ok(ticket) => inflight.push_back((i, t, ticket)),
                Err(e) => rec.fail(e.wire_code().to_string()),
            }
        }
        let Some((i, t, ticket)) = inflight.pop_front() else {
            break;
        };
        match ticket.wait_timeout(REQUEST_TIMEOUT) {
            Some(result) => {
                let done = Instant::now();
                log.record("serve.request", 0, (ci as u64) << 40 | n, t, done);
                rec.answer(i, encode_result(&result), t, done);
            }
            None => rec.fail("timeout".into()),
        }
        n += 1;
    }
    rec.spans = log.spans;
    rec
}

/// The program's own stage histograms, read through the `metrics` op.
struct Prom {
    queue_us: f64,
    plan_us: f64,
    eval_us: f64,
}

fn prom_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|v| v.trim().parse().ok())
}

/// The `Server` with the workload's own protocol, one member, no router.
fn net(
    w: &Workload,
    slice: Duration,
    log: &mut SpanLog,
) -> Result<(Phase, Prom, RuntimeStats), String> {
    let mut live = drive::setup_on(w, 0, w.proto)?;
    let phase = drive::run(
        w,
        &mut live.conns,
        &live.versions,
        slice,
        Some(Trace {
            name: "net.request",
            epoch: log.epoch(),
        }),
    );
    absorb(log, &phase);
    let text = live.conns[0]
        .metrics()
        .map_err(|e| format!("metrics op: {e}"))?;
    let ns = |prefix: &str| prom_value(&text, prefix).unwrap_or(0.0) / 1e3;
    let prom = Prom {
        queue_us: ns("phom_queue_latency_ns_p50{lane=\"fast\"}"),
        plan_us: ns("phom_stage_latency_ns_p50{stage=\"plan\"}"),
        eval_us: ns("phom_stage_latency_ns_p50{stage=\"eval\"}"),
    };
    let stats = live.stack.runtimes[0].stats();
    live.shutdown();
    Ok((phase, prom, stats))
}

/// A `Router` over two member servers with v1 clients (the router speaks
/// v1 only), then the same calls sent straight to each version's owning
/// member. Returns both phases and the router's lazy registrations.
fn fleet(w: &Workload, slice: Duration, log: &mut SpanLog) -> Result<(Phase, Phase, u64), String> {
    let mut live = drive::setup_on(w, 2, Proto::V1)?;
    let routed = drive::run(
        w,
        &mut live.conns,
        &live.versions,
        slice,
        Some(Trace {
            name: "fleet.request",
            epoch: log.epoch(),
        }),
    );
    absorb(log, &routed);
    let router = live
        .stack
        .router
        .as_ref()
        .expect("a fleet stack has a router");
    let lazy = router.stats().lazy_registers;
    let members = router.members().to_vec();
    let addrs = live.stack.member_addrs.clone();
    let t0 = Instant::now();
    let recs: Vec<Result<drive::Rec, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.conns)
            .map(|ci| {
                let (members, addrs) = (&members, &addrs);
                let log = SpanLog::new(log.epoch());
                s.spawn(move || direct_conn(w, members, addrs, ci, t0 + slice, log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("direct replay thread panicked"))
            .collect()
    });
    let direct = Phase {
        start: t0,
        elapsed: t0.elapsed(),
        recs: recs.into_iter().collect::<Result<_, _>>()?,
    };
    absorb(log, &direct);
    live.shutdown();
    Ok((routed, direct, lazy))
}

/// The fleet replay's stream sent over v1 straight to the member that
/// owns each version, with the same batch shape.
fn direct_conn(
    w: &Workload,
    members: &[MemberSpec],
    addrs: &[SocketAddr],
    ci: usize,
    end: Instant,
    mut log: SpanLog,
) -> Result<drive::Rec, String> {
    let mut clients = addrs
        .iter()
        .map(|a| Client::connect(a).map_err(|e| format!("connect member: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let versions: Vec<u64> = w.instances.iter().map(instance_fingerprint).collect();
    let owner: Vec<usize> = versions.iter().map(|&v| owner_of(v, members)).collect();
    for (h, &o) in w.instances.iter().zip(&owner) {
        Front::register(&mut clients[o], h).map_err(|e| format!("register on member: {e}"))?;
    }
    let mut rec = drive::Rec::default();
    let mut stream = w.stream(ci);
    let mut n = 0u64;
    while Instant::now() < end {
        let mut batch = Vec::with_capacity(w.depth);
        while batch.len() < w.depth {
            match stream.next().expect("streams are endless") {
                Op::Read(i) => {
                    let item = &w.pool[i];
                    let o = owner[item.inst];
                    rec.sent += 1;
                    let t = Instant::now();
                    match clients[o].submit(versions[item.inst], &item.req) {
                        Ok(ticket) => batch.push((i, o, t, ticket)),
                        Err(e) => rec.fail(drive::code(&e)),
                    }
                }
                Op::Write(k) => {
                    rec.sent += 1;
                    let o = owner_of(instance_fingerprint(&w.fresh(ci, k).0), members);
                    drive::write_once(&mut clients[o], w, ci, k, &mut rec);
                }
            }
        }
        for (i, o, t, ticket) in batch {
            match clients[o].wait_deadline(ticket, REQUEST_TIMEOUT) {
                Ok(Some(reply)) => {
                    let done = Instant::now();
                    log.record("fleet.direct", 0, (ci as u64) << 40 | n, t, done);
                    rec.answer(i, reply, t, done);
                }
                Ok(None) => rec.fail("timeout".into()),
                Err(e) => rec.fail(drive::code(&e)),
            }
            n += 1;
        }
    }
    rec.spans = log.spans;
    Ok(rec)
}

/// `Json::encode` plus `Json::parse` of the frames one request puts on
/// the wire in the workload's protocol (v2: submit, ack, push; v1:
/// submit, ack, poll, poll reply), built from the stream's requests and
/// their checked answers. Returns (µs per request, bytes per request).
fn codec(w: &Workload, oracle: &[Oracle], slice: Duration, log: &mut SpanLog) -> (f64, f64) {
    let versions: Vec<u64> = w.instances.iter().map(instance_fingerprint).collect();
    let reads: Vec<usize> = w
        .stream(0)
        .filter_map(|op| match op {
            Op::Read(i) => Some(i),
            Op::Write(_) => None,
        })
        .take(256)
        .collect();
    let frames: Vec<Json> = reads
        .iter()
        .enumerate()
        .flat_map(|(n, &i)| {
            let item = &w.pool[i];
            let (id, ticket) = (Json::u64(n as u64 + 1), Json::u64(n as u64 + 1));
            let submit = vec![
                ("op", Json::str("submit")),
                ("version", encode_version(versions[item.inst])),
                ("request", item.req.encode()),
            ];
            let ack = Json::obj(vec![
                ("ticket", ticket.clone()),
                ("trace", encode_version(n as u64)),
            ]);
            let result = oracle[i].encoded.clone();
            match w.proto {
                Proto::V2 => vec![
                    Json::obj([vec![("id", id.clone())], submit].concat()),
                    Json::obj(vec![("id", id.clone()), ("ok", ack)]),
                    Json::obj(vec![
                        ("push", Json::str("result")),
                        ("id", id),
                        ("ticket", ticket),
                        ("result", result),
                    ]),
                ],
                Proto::V1 => vec![
                    Json::obj(submit),
                    Json::obj(vec![("ok", ack)]),
                    Json::obj(vec![
                        ("op", Json::str("poll")),
                        ("ticket", ticket),
                        ("wait_ms", Json::u64(REQUEST_TIMEOUT.as_millis() as u64)),
                    ]),
                    Json::obj(vec![(
                        "ok",
                        Json::obj(vec![("done", Json::Bool(true)), ("result", result)]),
                    )]),
                ],
            }
        })
        .collect();
    // Four length-prefix bytes per frame.
    let bytes: usize = frames.iter().map(|f| f.encode().len() + 4).sum();
    let end = Instant::now() + slice;
    let (mut passes, mut busy) = (0u64, Duration::ZERO);
    while passes < 3 || Instant::now() < end {
        let t = Instant::now();
        for f in &frames {
            let text = f.encode();
            std::hint::black_box(Json::parse(&text).expect("own encoding parses"));
        }
        let done = Instant::now();
        log.record("net.codec", 0, passes, t, done);
        busy += done - t;
        passes += 1;
        util::progress();
    }
    let per_request = util::us(busy.as_nanos() as u64) / (passes as f64 * reads.len() as f64);
    (per_request, bytes as f64 / reads.len() as f64)
}

/// The median of a program histogram in µs, interpolated within its
/// bucket. `Histogram::quantile` reports the bucket's upper bound, which
/// reads the same from run to run whenever the median stays in a bucket.
fn median_us(h: &Histogram) -> f64 {
    let rank = h.count() as f64 / 2.0;
    let mut seen = 0u64;
    for (idx, c) in h.nonzero_buckets() {
        if (seen + c) as f64 >= rank {
            let (lo, hi) = bucket_bounds(idx);
            let within = (rank - seen as f64) / c as f64 * (hi + 1 - lo) as f64;
            return (lo as f64 + within).min(h.max() as f64) / 1e3;
        }
        seen += c;
    }
    0.0
}

fn merged_queue(stats: &RuntimeStats) -> Histogram {
    let mut h = stats.queue_ns_fast.clone();
    h.merge(&stats.queue_ns_slow);
    h
}
