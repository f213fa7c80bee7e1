//! Standing the real stack up through its public APIs and driving the
//! closed-loop request streams over loopback TCP.

use crate::gen::{Op, Proto, Settings, Workload};
use crate::util::{self, SpanLog};
use phom_fleet::{MemberSpec, Router};
use phom_graph::ProbGraph;
use phom_net::{Client, Json, MuxClient, MuxTicket, NetError, Server, WireRequest};
use phom_serve::Runtime;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Windows per timed phase; at 15 seconds each holds over a thousand
/// reads on every workload, so its p99 has ten samples beyond it.
pub const WINDOWS: usize = 5;

/// The longest a single request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// One serving stack: a runtime behind a server, or a router over
/// member servers, each member with its own runtime.
pub struct Stack {
    pub runtimes: Vec<Arc<Runtime>>,
    servers: Vec<Server>,
    pub router: Option<Router>,
    /// Member addresses (the single server's when there is no router).
    pub member_addrs: Vec<SocketAddr>,
    /// The front door clients connect to.
    pub addr: SocketAddr,
}

impl Stack {
    pub fn bind(settings: &Settings, members: usize) -> Result<Stack, String> {
        let mut runtimes = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..members.max(1) {
            let runtime = Arc::new(settings.runtime());
            let server = Server::bind("127.0.0.1:0", Arc::clone(&runtime))
                .map_err(|e| format!("bind server: {e}"))?;
            runtimes.push(runtime);
            servers.push(server);
        }
        let member_addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
        let router = if members > 0 {
            let specs = member_addrs
                .iter()
                .enumerate()
                .map(|(i, a)| MemberSpec {
                    name: format!("m{i}"),
                    addr: a.to_string(),
                    weight: 1.0,
                })
                .collect();
            Some(Router::bind("127.0.0.1:0", specs).map_err(|e| format!("bind router: {e}"))?)
        } else {
            None
        };
        let addr = router.as_ref().map_or(member_addrs[0], Router::local_addr);
        Ok(Stack {
            runtimes,
            servers,
            router,
            member_addrs,
            addr,
        })
    }

    /// Summed answer-cache (hits, lookups) over every runtime.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.runtimes.iter().fold((0, 0), |(h, n), rt| {
            let c = rt.stats().cache;
            (h + c.hits, n + c.hits + c.misses)
        })
    }

    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown(Duration::from_secs(2));
        }
        for server in self.servers {
            server.shutdown(Duration::from_secs(2));
        }
    }
}

/// A client connection speaking the workload's protocol.
pub enum Conn {
    Mux(MuxClient),
    V1(Client),
}

impl Conn {
    /// A v2 connection asks for the library's default window; the
    /// workload's own `depth` bounds what it keeps in flight.
    pub fn connect(addr: SocketAddr, proto: Proto) -> Result<Conn, String> {
        match proto {
            Proto::V2 => MuxClient::connect(addr)
                .map(Conn::Mux)
                .map_err(|e| format!("connect v2: {e}")),
            Proto::V1 => Client::connect(addr)
                .map(Conn::V1)
                .map_err(|e| format!("connect v1: {e}")),
        }
    }

    /// Submits every request (pipelined on v2), then waits for each.
    pub fn call_many(&mut self, reqs: &[(u64, &WireRequest)]) -> Vec<Result<Json, NetError>> {
        match self {
            Conn::Mux(c) => {
                let tickets: Vec<_> = reqs.iter().map(|(v, r)| c.submit(*v, r)).collect();
                tickets
                    .into_iter()
                    .map(|t| {
                        t?.wait_deadline(REQUEST_TIMEOUT)?
                            .ok_or_else(|| NetError::Protocol("timeout".into()))
                    })
                    .collect()
            }
            Conn::V1(_) => reqs.iter().map(|(v, r)| self.call(*v, r)).collect(),
        }
    }

    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self {
            Conn::Mux(c) => c.metrics(),
            Conn::V1(c) => c.metrics(),
        }
    }
}

/// Register and single-request calls, over either protocol.
pub trait Front {
    fn register(&mut self, h: &ProbGraph) -> Result<u64, NetError>;
    /// Submits and waits for one request.
    fn call(&mut self, version: u64, req: &WireRequest) -> Result<Json, NetError>;
}

impl Front for Client {
    fn register(&mut self, h: &ProbGraph) -> Result<u64, NetError> {
        Client::register(self, h)
    }

    fn call(&mut self, version: u64, req: &WireRequest) -> Result<Json, NetError> {
        let ticket = self.submit(version, req)?;
        self.wait_deadline(ticket, REQUEST_TIMEOUT)?
            .ok_or_else(|| NetError::Protocol("timeout".into()))
    }
}

impl Front for Conn {
    fn register(&mut self, h: &ProbGraph) -> Result<u64, NetError> {
        match self {
            Conn::Mux(c) => c.register(h),
            Conn::V1(c) => c.register(h),
        }
    }

    fn call(&mut self, version: u64, req: &WireRequest) -> Result<Json, NetError> {
        match self {
            Conn::Mux(c) => c
                .submit(version, req)?
                .wait_deadline(REQUEST_TIMEOUT)?
                .ok_or_else(|| NetError::Protocol("timeout".into())),
            Conn::V1(c) => Front::call(c, version, req),
        }
    }
}

/// The `k`-th write of connection `conn`: registers a fresh version and
/// reads from it at once, timing the wait a user has before new data is
/// queryable.
pub fn write_once(front: &mut impl Front, w: &Workload, conn: usize, k: u64, rec: &mut Rec) {
    let (instance, req) = w.fresh(conn, k);
    let t0 = Instant::now();
    match front.register(&instance).and_then(|v| front.call(v, &req)) {
        Ok(reply) => {
            let done = Instant::now();
            util::progress();
            match error_code(&reply) {
                Some(code) => rec.fail(code),
                None => rec.w2a.push((util::stamp(done), util::ns32(done - t0))),
            }
            rec.writes.push(Write { conn, k, reply });
        }
        Err(e) => rec.fail(code(&e)),
    }
}

/// The writes `ks` outside the timed phase, for workloads that write
/// nothing while timed.
pub fn write_probe(w: &Workload, conn: &mut Conn, ks: std::ops::Range<u64>, rec: &mut Rec) {
    for k in ks {
        rec.sent += 1;
        write_once(conn, w, 0, k, rec);
    }
}

/// The typed error code an operation failed with.
pub fn code(e: &NetError) -> String {
    match e {
        NetError::Server { code, .. } => code.clone(),
        NetError::Unavailable { .. } => "member_unavailable".into(),
        NetError::Io(_) => "io".into(),
        NetError::Protocol(msg) if msg == "timeout" => "timeout".into(),
        NetError::Protocol(_) => "protocol".into(),
    }
}

/// A stood-up, registered and warmed stack with its client connections.
pub struct Live {
    pub stack: Stack,
    pub conns: Vec<Conn>,
    pub versions: Vec<u64>,
}

impl Live {
    pub fn shutdown(self) {
        drop(self.conns);
        self.stack.shutdown();
    }
}

/// Binds the workload's stack, connects, registers every instance over
/// the wire and warms: the whole pool when it fits the cache, else one
/// request per instance (instance-side preprocessing only).
pub fn setup(w: &Workload) -> Result<Live, String> {
    setup_on(w, w.members, w.proto)
}

/// As [`setup`], with `members` member servers behind a router (0: one
/// server, no router) and clients speaking `proto`.
pub fn setup_on(w: &Workload, members: usize, proto: Proto) -> Result<Live, String> {
    let stack = Stack::bind(&w.settings, members)?;
    let mut conns = (0..w.conns)
        .map(|_| Conn::connect(stack.addr, proto))
        .collect::<Result<Vec<_>, _>>()?;
    let versions = w
        .instances
        .iter()
        .map(|h| Front::register(&mut conns[0], h).map_err(|e| format!("register: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    warm(w, &mut conns[0], &versions)?;
    Ok(Live {
        stack,
        conns,
        versions,
    })
}

/// The pool indices warming touches.
pub fn warm_set(w: &Workload) -> Vec<usize> {
    if w.pool.len() <= w.settings.cache {
        (0..w.pool.len()).collect()
    } else {
        (0..w.instances.len())
            .filter_map(|i| w.pool.iter().position(|it| it.inst == i))
            .collect()
    }
}

fn warm(w: &Workload, conn: &mut Conn, versions: &[u64]) -> Result<(), String> {
    let reqs: Vec<(u64, &WireRequest)> = warm_set(w)
        .into_iter()
        .map(|i| (versions[w.pool[i].inst], &w.pool[i].req))
        .collect();
    for (r, (_, req)) in conn.call_many(&reqs).into_iter().zip(&reqs) {
        let reply = r.map_err(|e| format!("warm: {e}"))?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("warm request {} answered {reply}", req.encode()));
        }
        util::progress();
    }
    Ok(())
}

/// A write, kept as the stream position its fresh version is generated
/// from (which keeps the versions themselves out of `peak_rss_mb`), and
/// the reply.
pub struct Write {
    pub conn: usize,
    pub k: u64,
    pub reply: Json,
}

/// Read latencies kept per connection: a uniform sample, so the
/// benchmark's own memory, which `peak_rss_mb` includes, does not grow
/// with throughput.
const LAT_SAMPLES: usize = 1 << 16;

/// What one connection saw in a timed phase.
#[derive(Default)]
pub struct Rec {
    /// Read requests answered `ok`.
    pub reads_ok: u64,
    /// Reads answered `ok` per millisecond since the process's first stamp.
    per_ms: Vec<u32>,
    /// (answered at, submit → answer ns) of a uniform sample of at most
    /// [`LAT_SAMPLES`] of the reads answered `ok` (reservoir sampling).
    lat: Vec<(u32, u32)>,
    /// State of the reservoir's random draws; the same on every run.
    draws: u64,
    /// Operations started: read requests plus writes.
    pub sent: u64,
    /// Failed operations by typed error code.
    pub errors: BTreeMap<String, u64>,
    /// Distinct `ok` replies per pool index, with how often each came.
    pub answers: HashMap<usize, Vec<(Json, u64)>>,
    pub writes: Vec<Write>,
    /// (answered at, register → first answer ns), per fresh version.
    pub w2a: Vec<(u32, u32)>,
    pub spans: Vec<util::Span>,
    pub last_done: Option<Instant>,
}

impl Rec {
    pub fn fail(&mut self, code: String) {
        *self.errors.entry(code).or_default() += 1;
    }

    pub fn answer(&mut self, idx: usize, reply: Json, submitted: Instant, done: Instant) {
        self.last_done = Some(done);
        util::progress();
        if let Some(code) = error_code(&reply) {
            self.fail(code);
            return;
        }
        let at = util::stamp(done);
        let ms = (at / 1000) as usize;
        if self.per_ms.len() <= ms {
            self.per_ms.resize(ms + 1, 0);
        }
        self.per_ms[ms] += 1;
        self.reads_ok += 1;
        let sample = (at, util::ns32(done - submitted));
        if self.lat.len() < LAT_SAMPLES {
            self.lat.push(sample);
        } else {
            // Knuth's MMIX LCG; its high bits pick the slot.
            self.draws = self
                .draws
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (((self.draws >> 32) * self.reads_ok) >> 32) as usize;
            if j < LAT_SAMPLES {
                self.lat[j] = sample;
            }
        }
        let seen = self.answers.entry(idx).or_default();
        match seen.iter_mut().find(|(r, _)| *r == reply) {
            Some((_, n)) => *n += 1,
            None => seen.push((reply, 1)),
        }
    }
}

/// The code of a typed error result (`status: "error"`), if it is one.
pub fn error_code(reply: &Json) -> Option<String> {
    if reply.get("status").and_then(Json::as_str) == Some("ok") {
        None
    } else {
        Some(
            reply
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("malformed")
                .to_string(),
        )
    }
}

/// A timed closed-loop phase across every connection.
pub struct Phase {
    pub recs: Vec<Rec>,
    pub start: Instant,
    pub elapsed: Duration,
}

impl Phase {
    /// Read latencies kept: every one up to [`LAT_SAMPLES`] per
    /// connection, a uniform sample beyond.
    pub fn lat_samples(&self) -> usize {
        self.recs.iter().map(|r| r.lat.len()).sum()
    }

    /// Answers (reads and writes) and read latencies in each of
    /// [`WINDOWS`] equal windows of the first `dur` of the phase. Medians
    /// over windows keep a stall of the host during part of a run from
    /// moving its figures.
    fn windows(&self, dur: Duration) -> (Duration, Vec<(u64, Vec<u64>)>) {
        let n = WINDOWS;
        let win = dur / n as u32;
        let mut out = vec![(0u64, Vec::new()); n];
        let start = util::stamp(self.start);
        let slot = |t: u32| {
            let i = (u128::from(t.saturating_sub(start)) * 1000 / win.as_nanos()) as usize;
            (i < n).then_some(i)
        };
        for rec in &self.recs {
            for (ms, &n) in rec.per_ms.iter().enumerate() {
                if let Some(i) = slot(ms as u32 * 1000) {
                    out[i].0 += u64::from(n);
                }
            }
            for &(t, ns) in &rec.lat {
                if let Some(i) = slot(t) {
                    out[i].1.push(u64::from(ns));
                }
            }
            for &(t, _) in &rec.w2a {
                if let Some(i) = slot(t) {
                    out[i].0 += 1;
                }
            }
        }
        (win, out)
    }

    /// Median over windows of the answers per second.
    pub fn rate(&self, dur: Duration) -> f64 {
        let (win, w) = self.windows(dur);
        let rates: Vec<f64> = w
            .iter()
            .map(|(n, _)| *n as f64 / win.as_secs_f64())
            .collect();
        util::median_f64(&rates)
    }

    /// Median over windows of each window's read-latency quantile `q`.
    pub fn windowed_quantile_ns(&self, dur: Duration, q: f64) -> f64 {
        let (_, w) = self.windows(dur);
        let per: Vec<f64> = w
            .iter()
            .filter(|(_, lat)| !lat.is_empty())
            .map(|(_, lat)| util::quantile(lat, q) as f64)
            .collect();
        util::median_f64(&per)
    }

    /// Answers `ok` before checking: reads and writes.
    pub fn answered(&self) -> u64 {
        self.recs
            .iter()
            .map(|r| r.reads_ok + r.w2a.len() as u64)
            .sum()
    }
}

/// Spans to record per request in a traced phase: the span name and the
/// epoch span times are measured from.
#[derive(Clone, Copy)]
pub struct Trace {
    pub name: &'static str,
    pub epoch: Instant,
}

/// Runs every connection's stream closed-loop for `dur`: no new request
/// starts after `dur`, and the phase ends when the last answer is in.
pub fn run(
    w: &Workload,
    conns: &mut [Conn],
    versions: &[u64],
    dur: Duration,
    trace: Option<Trace>,
) -> Phase {
    let barrier = Barrier::new(conns.len());
    let start = std::sync::OnceLock::new();
    let recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(ci, conn)| {
                let barrier = &barrier;
                let start = &start;
                s.spawn(move || {
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    let mut log = trace.map(|t| (t.name, SpanLog::new(t.epoch)));
                    let rec = match conn {
                        Conn::Mux(c) => run_v2(w, c, ci, versions, t0 + dur, &mut log),
                        Conn::V1(c) => run_v1(w, c, ci, versions, t0 + dur, &mut log),
                    };
                    Rec {
                        spans: log.map(|(_, l)| l.spans).unwrap_or_default(),
                        ..rec
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let t0 = *start.get().expect("phase started");
    let end = recs.iter().filter_map(|r| r.last_done).max().unwrap_or(t0);
    Phase {
        recs,
        start: t0,
        elapsed: end - t0,
    }
}

fn span(log: &mut Option<(&'static str, SpanLog)>, trace: u64, t: Instant, done: Instant) {
    if let Some((name, log)) = log {
        log.record(name, 0, trace, t, done);
    }
}

fn run_v2(
    w: &Workload,
    c: &MuxClient,
    ci: usize,
    versions: &[u64],
    end: Instant,
    log: &mut Option<(&'static str, SpanLog)>,
) -> Rec {
    let mut rec = Rec::default();
    let mut stream = w.stream(ci);
    let mut inflight: VecDeque<(usize, Instant, MuxTicket)> = VecDeque::new();
    let mut n = 0u64;
    loop {
        while inflight.len() < w.depth && Instant::now() < end {
            let Some(Op::Read(i)) = stream.next() else {
                continue; // v2 workloads write only outside the timed phase
            };
            let item = &w.pool[i];
            rec.sent += 1;
            let t = Instant::now();
            match c.submit(versions[item.inst], &item.req) {
                Ok(ticket) => inflight.push_back((i, t, ticket)),
                Err(e) => rec.fail(code(&e)),
            }
        }
        let Some((i, t, ticket)) = inflight.pop_front() else {
            break;
        };
        match ticket.wait_deadline(REQUEST_TIMEOUT) {
            Ok(Some(reply)) => {
                let done = Instant::now();
                span(log, (ci as u64) << 40 | n, t, done);
                rec.answer(i, reply, t, done);
            }
            Ok(None) => rec.fail("timeout".into()),
            Err(e) => rec.fail(code(&e)),
        }
        n += 1;
    }
    rec
}

fn run_v1(
    w: &Workload,
    c: &mut Client,
    ci: usize,
    versions: &[u64],
    end: Instant,
    log: &mut Option<(&'static str, SpanLog)>,
) -> Rec {
    let mut rec = Rec::default();
    let mut stream = w.stream(ci);
    let mut n = 0u64;
    while Instant::now() < end {
        let mut batch = Vec::with_capacity(w.depth);
        while batch.len() < w.depth {
            match stream.next().expect("streams are endless") {
                Op::Read(i) => {
                    let item = &w.pool[i];
                    rec.sent += 1;
                    let t = Instant::now();
                    match c.submit(versions[item.inst], &item.req) {
                        Ok(ticket) => batch.push((i, t, ticket)),
                        Err(e) => rec.fail(code(&e)),
                    }
                }
                Op::Write(k) => {
                    rec.sent += 1;
                    write_once(c, w, ci, k, &mut rec);
                }
            }
        }
        for (i, t, ticket) in batch {
            match c.wait_deadline(ticket, REQUEST_TIMEOUT) {
                Ok(Some(reply)) => {
                    let done = Instant::now();
                    span(log, (ci as u64) << 40 | n, t, done);
                    rec.answer(i, reply, t, done);
                }
                Ok(None) => rec.fail("timeout".into()),
                Err(e) => rec.fail(code(&e)),
            }
            n += 1;
        }
    }
    rec
}
