//! Runs one workload and prints its metrics.
//!
//! ```sh
//! perfbench --workload dashboard --seed 7 --seconds 10 --trace 0 [--dump spans.jsonl]
//! ```
//!
//! A human-readable report goes to stderr; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones of a traced phase that follows
//! an untraced phase of the same length. The exit code is non-zero when
//! any correctness or bypass check failed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use timecrypt::wire::messages::ServiceStatsWire;
use timecrypt_perfbench::layers::{self, percentile, Recorder};
use timecrypt_perfbench::workloads::{sum_shards, Archive, Dashboard, Ingest, Phase, Workload};

/// Set-ups per untraced run, each in its own process; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 3;
/// Spans written to the dump at most (all of them feed the metrics).
const DUMP_LIMIT: usize = 200_000;
/// Host probe repetitions at the start and at the end of a run.
const PROBES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    dump: Option<std::path::PathBuf>,
    /// Generate and set up once, print `setup_s <seconds>`, and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut dump) = (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            "--dump" => dump = Some(value.clone().into()),
            "--setup-only" => setup_only = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        dump,
        setup_only,
    })
}

/// Fixed reference CPU work (a SplitMix64 chain), timed in µs: shows host
/// speed drift beside the results.
fn probe_us() -> f64 {
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..2_000_000u64 {
        x = timecrypt_perfbench::gen::mix(x ^ i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hypervisor steal ticks and all ticks of the host so far (`/proc/stat`).
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time the hypervisor took from this host between two
/// [`cpu_ticks`] readings.
fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// `.p50` and `.p99` of ns samples, in µs.
fn us_pair(out: &mut Vec<Metric>, name: &str, mut ns: Vec<u64>) {
    let n = ns.len();
    for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
        let v = percentile(&mut ns, q) as f64 / 1e3;
        out.push(metric(format!("{name}.{suffix}"), v, "us", n));
    }
}

/// A host CPU tick reading taken during a phase: (recorder ns, ticks).
type Tick = (u64, (u64, u64));

/// Runs one phase while sampling host CPU ticks every 50 ms.
fn run_phase(w: &mut dyn Workload, rec: &Recorder, dur: Duration) -> (Phase, Vec<Tick>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut ticks = vec![(rec.now(), cpu_ticks())];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                ticks.push((rec.now(), cpu_ticks()));
            }
            ticks
        });
        let p = w.phase(rec, dur);
        stop.store(true, Ordering::Relaxed);
        (p, sampler.join().expect("tick sampler"))
    })
}

/// Intervals in which the hypervisor stole more than this share of the
/// host's CPU time are left out of the figures.
const STEAL_LIMIT: f64 = 0.005;

/// Throughput, p50 and p95 of a phase, over its 1 s intervals in which
/// the hypervisor stole at most [`STEAL_LIMIT`] of the host's CPU time (at
/// least the quietest third of the intervals are always kept): on a shared
/// host a neighbour's burst then moves no result unless it covers more
/// than two thirds of the run. Operations completing after the phase's
/// nominal end are left out.
struct Figures {
    throughput: f64,
    p50_ms: f64,
    p95_ms: f64,
    /// Reported on stderr only: hypervisor steal moves it too much to
    /// gate on (see README).
    p99_ms: f64,
    /// Operations in the intervals used.
    samples: usize,
    /// Intervals used.
    intervals: usize,
}

fn figures(p: &Phase, ticks: &[Tick], dur: Duration) -> Figures {
    let k = dur.as_secs().max(1) as usize;
    let len_ns = dur.as_nanos() as u64 / k as u64;
    let steal: Vec<f64> = (0..k as u64)
        .map(|i| {
            let (a, b) = (p.start_ns + i * len_ns, p.start_ns + (i + 1) * len_ns);
            let first = ticks.iter().rev().find(|t| t.0 <= a).unwrap_or(&ticks[0]);
            let last = ticks
                .iter()
                .find(|t| t.0 >= b)
                .unwrap_or(&ticks[ticks.len() - 1]);
            steal_share(first.1, last.1)
        })
        .collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let keep = order
        .iter()
        .filter(|&&i| steal[i] <= STEAL_LIMIT)
        .count()
        .max(k.div_ceil(3));
    let mut kept = vec![false; k];
    for &i in &order[..keep] {
        kept[i] = true;
    }
    let mut weight = 0;
    let mut lat: Vec<u64> = Vec::with_capacity(p.samples.len());
    for s in &p.samples {
        let i = (s.end_ns.saturating_sub(p.start_ns) / len_ns) as usize;
        if kept.get(i) == Some(&true) {
            weight += s.weight;
            lat.push(s.lat_ns);
        }
    }
    Figures {
        throughput: weight as f64 * 1e9 / (keep as u64 * len_ns) as f64,
        p50_ms: percentile(&mut lat, 0.5) as f64 / 1e6,
        p95_ms: percentile(&mut lat, 0.95) as f64 / 1e6,
        p99_ms: percentile(&mut lat, 0.99) as f64 / 1e6,
        samples: lat.len(),
        intervals: keep,
    }
}

fn end_to_end(
    w: &dyn Workload,
    setup_s: &[f64],
    rss_mb: f64,
    f: &Figures,
    p: &Phase,
    before: &ServiceStatsWire,
    after: &ServiceStatsWire,
) -> Vec<Metric> {
    // Bytes written per data point: over the phase's records where it
    // ingested, else over the seeded history.
    let (bytes, records) = if p.records > 0 {
        (
            after.store_bytes_written - before.store_bytes_written,
            p.records,
        )
    } else {
        (after.store_bytes_written, w.seeded_records())
    };
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("throughput_s", f.throughput, "1/s", f.samples),
        metric("p50_ms", f.p50_ms, "ms", f.samples),
        metric("p95_ms", f.p95_ms, "ms", f.samples),
        metric(
            "store_bytes_per_record",
            bytes as f64 / records.max(1) as f64,
            "B",
            records as usize,
        ),
        metric("rss_peak_mb", rss_mb, "MiB", 1),
    ]
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    untraced_fig: &Figures,
    traced_fig: &Figures,
    traced: &Phase,
    spans: &[layers::Span],
    before: &ServiceStatsWire,
    after: &ServiceStatsWire,
    queue_depth_max: u64,
    probes: &[f64],
) -> Vec<Metric> {
    let layer = layers::derive(spans, (traced.wall_s * 1e9) as u64);
    let mut out = Vec::new();
    for (name, ns) in layer.timings {
        us_pair(&mut out, name, ns);
    }
    for (name, v) in layer.values {
        let unit =
            if name.ends_with("bytes") || name.ends_with("per_query") && name.contains("bytes") {
                "B"
            } else if name.ends_with("share") {
                "ratio"
            } else {
                "count"
            };
        out.push(metric(name, v, unit, spans.len()));
    }
    let delta = |f: fn(&timecrypt::wire::messages::ShardStatsWire) -> u64| {
        sum_shards(after, f) - sum_shards(before, f)
    };
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.push(metric(
        "service.legs_per_query",
        per(delta(|s| s.queries), traced.queries),
        "count",
        traced.queries as usize,
    ));
    out.push(metric(
        "service.queue_depth_max",
        queue_depth_max as f64,
        "count",
        1,
    ));
    out.push(metric(
        "service.errors",
        (delta(|s| s.ingest_errors) + delta(|s| s.query_errors)) as f64,
        "count",
        1,
    ));
    out.push(metric(
        "server.hydrations",
        sum_shards(after, |s| s.hydrations) as f64,
        "count",
        1,
    ));
    out.push(metric(
        "server.resident_streams",
        sum_shards(after, |s| s.resident_streams) as f64,
        "count",
        1,
    ));
    out.push(metric(
        "store.puts_per_chunk",
        per(after.store_puts - before.store_puts, traced.chunks),
        "count",
        traced.chunks as usize,
    ));
    let probe_ns: Vec<u64> = probes.iter().map(|us| (us * 1e3) as u64).collect();
    us_pair(&mut out, "host.probe_us", probe_ns);
    out.push(metric(
        "trace.overhead_ratio",
        traced_fig.throughput / untraced_fig.throughput,
        "ratio",
        2,
    ));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs generation and one set-up in a child process and returns its
/// set-up time: every set-up starts from a fresh process, and this
/// process's peak memory holds one deployment only.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
    {
        Some(v) if out.status.success() => v.parse().map_err(|e| format!("set-up child: {e}")),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    if !args.trace && !args.setup_only {
        for _ in 1..SETUP_REPEATS {
            setup_s.push(setup_in_child(args)?);
        }
    }
    let mut probes: Vec<f64> = (0..PROBES).map(|_| probe_us()).collect();
    let gen = Instant::now();
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "ingest" => Box::new(Ingest::new(args.seed)),
        "dashboard" => Box::new(Dashboard::new(args.seed)),
        "archive" => Box::new(Archive::new(args.seed)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (ingest, dashboard, archive)"
            ))
        }
    };
    eprintln!("inputs generated in {:.2} s", gen.elapsed().as_secs_f64());
    let rec = Recorder::new();
    let t = Instant::now();
    w.setup(&rec)?;
    setup_s.push(t.elapsed().as_secs_f64());
    if args.setup_only {
        println!("setup_s {}", setup_s[0]);
        return Ok(true);
    }
    eprintln!("set-up times (s): {setup_s:?}");
    // Memory is read before the timed phase: set-up fixes the data set,
    // while ingest's store keeps growing with its own throughput.
    let rss_mb = rss_peak_mb();
    let dur = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    let before = w.rig().svc.stats();
    let (untraced, ticks) = run_phase(w.as_mut(), &rec, dur);
    let after = w.rig().svc.stats();
    if let Err(e) = w.bypass(&before, &after, &untraced) {
        problems.push(e);
    }
    let untraced_fig = figures(&untraced, &ticks, dur);
    let mut failed = untraced.failed;
    let mut attempted = untraced.attempted;
    let metrics = if !args.trace {
        probes.extend((0..PROBES).map(|_| probe_us()));
        end_to_end(
            w.as_ref(),
            &setup_s,
            rss_mb,
            &untraced_fig,
            &untraced,
            &before,
            &after,
        )
    } else {
        rec.set(true);
        let before = w.rig().svc.stats();
        let stop = AtomicBool::new(false);
        let depth_max = AtomicU64::new(0);
        let svc = w.rig().svc.clone();
        let (traced, ticks) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let depth = sum_shards(&svc.stats(), |sh| sh.queue_depth);
                    depth_max.fetch_max(depth, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let out = run_phase(w.as_mut(), &rec, dur);
            stop.store(true, Ordering::Relaxed);
            out
        });
        rec.set(false);
        let after = w.rig().svc.stats();
        if let Err(e) = w.bypass(&before, &after, &traced) {
            problems.push(e);
        }
        failed += traced.failed;
        attempted += traced.attempted;
        let spans = rec.take();
        if let Some(path) = &args.dump {
            let n =
                layers::dump(&spans, DUMP_LIMIT, path).map_err(|e| format!("span dump: {e}"))?;
            eprintln!("wrote {n} of {} spans to {}", spans.len(), path.display());
        }
        probes.extend((0..PROBES).map(|_| probe_us()));
        per_layer(
            &untraced_fig,
            &figures(&traced, &ticks, dur),
            &traced,
            &spans,
            &before,
            &after,
            depth_max.load(Ordering::Relaxed),
            &probes,
        )
    };
    if let Err(e) = w.finish() {
        problems.push(e);
    }
    eprintln!(
        "{}: seed {} {} s, {} ops attempted, {} failed, error_ratio {}",
        args.workload,
        args.seed,
        args.seconds,
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64
    );
    eprintln!(
        "  host probe: median {:.0} us over {} runs; steal {:.1} % in the untraced phase; {} of {} intervals reported",
        median(&probes),
        probes.len(),
        steal_share(ticks[0].1, ticks[ticks.len() - 1].1) * 100.0,
        untraced_fig.intervals,
        args.seconds
    );
    eprintln!("  p99 latency (not gated): {:.4} ms", untraced_fig.p99_ms);
    if !untraced.writer_late.is_zero() {
        eprintln!(
            "  the archive writer finished {:.0} ms behind its schedule",
            untraced.writer_late.as_secs_f64() * 1e3
        );
    }
    if untraced.records > 0 {
        eprintln!(
            "  records acknowledged: {} ({:.0} records/s)",
            untraced.records,
            untraced.records as f64 / untraced.wall_s
        );
    }
    for m in &metrics {
        eprintln!(
            "  {:<34} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
