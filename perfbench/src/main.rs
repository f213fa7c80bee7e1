//! The repository benchmark: one seeded, single-process program that
//! stands up the real serving stack through its public APIs, drives a
//! closed-loop workload over loopback TCP, checks every answer, and
//! prints each metric by name and unit. The last stdout line is the
//! machine-readable result. See README.md.
//!
//! Usage: perfbench --workload <hot_v2|cold_exact|router_churn>
//!                  --seed <n> --seconds <s> --trace <0|1>

mod check;
mod drive;
mod gen;
mod layers;
mod util;

use gen::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use util::Watchdog;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Writes measured on each set-up's stack, after its set-up timer stops,
/// on workloads that do not write while timed. Spread over every set-up,
/// a short stall of the host moves few of them.
const WRITE_PROBES_PER_SETUP: u64 = 16;

const USAGE: &str =
    "usage: perfbench --workload <hot_v2|cold_exact|router_churn> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    util::stamp(Instant::now());
    let watchdog = Watchdog::start(Duration::from_secs(30), Duration::from_secs(170));
    let code = match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            1
        }
    };
    watchdog.stop();
    std::process::exit(code);
}

/// A metric in the result line.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    println!("metric {name} = {value:.4} {unit}");
    m.insert(name, Metric { value, unit });
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_env(w: &Workload, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "env: nproc={nproc} commit={} rustc=\"{}\"",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"])
    );
    println!(
        "workload {}: seed={} seconds={} trace={} protocol={} conns={} depth={} members={} \
         instances={} pool={} write_share={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        match w.proto {
            gen::Proto::V2 => "v2",
            gen::Proto::V1 => "v1",
        },
        w.conns,
        w.depth,
        w.members,
        w.instances.len(),
        w.pool.len(),
        w.write_share
    );
    println!("runtime settings: {}", w.settings.describe());
}

/// One set-up: generates the workload and stands up, registers and
/// warms its stack, timing that into `setups`; then, on a workload that
/// does not write while timed, makes the set-up's write probes.
fn set_up(
    args: &Args,
    rep: usize,
    setups: &mut Vec<f64>,
    probe: &mut drive::Rec,
) -> Result<(Workload, drive::Live), String> {
    util::stage("setup");
    let t0 = Instant::now();
    let w = Workload::new(&args.workload, args.seed).expect("workload name was checked");
    let mut live = drive::setup(&w)?;
    setups.push(t0.elapsed().as_secs_f64());
    if w.write_share == 0.0 {
        util::stage("write probe");
        let first = rep as u64 * WRITE_PROBES_PER_SETUP;
        let ks = first..first + WRITE_PROBES_PER_SETUP;
        drive::write_probe(&w, &mut live.conns[0], ks, probe);
    }
    Ok((w, live))
}

fn run(args: &Args) -> Result<i32, String> {
    let mut setups = Vec::new();
    let mut probe = drive::Rec::default();
    let (w, mut live) = set_up(args, 0, &mut setups, &mut probe)?;
    print_env(&w, args);
    // The traced run fits its untraced phase, its traced phase and the
    // layer replays into about twice `--seconds`.
    let dur = Duration::from_secs_f64(args.seconds) / if args.trace { 2 } else { 1 };

    util::stage("timed phase");
    let cache_before = live.stack.cache_counts();
    let phase = drive::run(&w, &mut live.conns, &live.versions, dur, None);
    let cache_after = live.stack.cache_counts();
    // Before the other set-ups and the oracle, so the high-water mark
    // covers one stack's set-up and timed phase.
    let peak_rss_mb = util::peak_rss_mb();
    for rep in 1..SETUP_REPS {
        set_up(args, rep, &mut setups, &mut probe)?.1.shutdown();
    }

    util::stage("check");
    let oracle = check::oracle_pool(&w);
    let recs: Vec<&drive::Rec> = phase.recs.iter().chain([&probe]).collect();
    let verdict = check::check(&w, &oracle, &recs);
    println!("stream hash: {:016x}", w.stream_hash());
    let routes = check::route_counts(&w, &oracle);
    println!(
        "route counts over the first {} ops per connection: {}",
        gen::HASHED_OPS,
        routes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let sent: u64 = recs.iter().map(|r| r.sent).sum();
    let mut failed = verdict.failed;
    println!(
        "requests {}: sent={sent} ok={} failed={} {}",
        w.name,
        verdict.ok,
        failed.values().sum::<u64>(),
        failed
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for note in &verdict.notes {
        println!("mismatch: {note}");
    }

    let w2a: Vec<u64> = recs
        .iter()
        .flat_map(|r| r.w2a.iter().map(|s| u64::from(s.1)))
        .collect();
    // Only answers that checked out count.
    let answered: u64 = recs.iter().map(|r| r.reads_ok + r.w2a.len() as u64).sum();
    let throughput = phase.rate(dur) * ratio(verdict.ok, answered);
    let latency_p50_us = phase.windowed_quantile_ns(dur, 0.5) / 1e3;
    let latency_p99_us = phase.windowed_quantile_ns(dur, 0.99) / 1e3;
    println!(
        "samples: latency={} (quantiles over {} kept) write_to_answer={} elapsed_s={:.3} \
         (throughput and latency quantiles are medians over {} windows)",
        recs.iter().map(|r| r.reads_ok).sum::<u64>(),
        phase.lat_samples(),
        w2a.len(),
        phase.elapsed.as_secs_f64(),
        drive::WINDOWS
    );
    let hit_ratio = ratio(
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    let mut metrics = Metrics::new();
    if args.trace {
        let e2e = layers::E2e {
            throughput,
            latency_p50_us,
            cache_hit_ratio: hit_ratio,
            lazy_registers: live.stack.router.as_ref().map(|r| r.stats().lazy_registers),
        };
        let traced = layers::run(&w, &mut live, dur, &e2e, &oracle, &mut metrics)?;
        println!(
            "traced run {}: ok={} failed={}",
            w.name,
            traced.ok,
            traced.failed_total()
        );
        for (k, n) in traced.failed {
            *failed.entry(k).or_default() += n;
        }
        for note in &traced.notes {
            println!("mismatch: {note}");
        }
    } else {
        put(&mut metrics, "throughput_rps", throughput, "1/s");
        put(&mut metrics, "latency_p50_us", latency_p50_us, "us");
        put(&mut metrics, "latency_p99_us", latency_p99_us, "us");
        put(
            &mut metrics,
            "write_to_answer_p50_us",
            util::us(util::quantile(&w2a, 0.5)),
            "us",
        );
        put(&mut metrics, "setup_s", util::median_f64(&setups), "s");
        put(&mut metrics, "peak_rss_mb", peak_rss_mb, "MiB");
    }
    util::stage("shutdown");
    live.shutdown();

    let failed_total: u64 = failed.values().sum();
    let correct = failed_total == 0;
    println!("{}", result_line(correct, sent, failed_total, &metrics));
    Ok(if correct { 0 } else { 1 })
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
