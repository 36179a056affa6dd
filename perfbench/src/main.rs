//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf --seed 42 --seconds 12 --trace 0
//! ```
//!
//! Every run makes its inputs from the seed, sets up the code host
//! several times (`setup_s` is their median), then times one user
//! journey: the `build` chain, the `crawl` daemon path and read-only
//! `serve`. Workloads differ only in the serving traffic. Outputs are
//! checked before any number is printed; the last stdout line is the
//! JSON result. `--trace 1` runs the journey once untraced and once with
//! spans around every layer and prints the per-layer metrics instead
//! (see `perfbench/README.md`).

mod host;
mod input;
mod phases;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gittables_corpus::Corpus;
use gittables_serve::QueryEngine;

use crate::serve::{Population, Traffic, KINDS};
use crate::stats::{better_half, median, quantile};

/// Host set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of the timed phase; each runs one build, one crawl,
/// [`BOOTS_PER_ROUND`] boots and a serving session.
const ROUNDS: usize = 6;
/// Idle passes after each crawl converges.
const IDLE_PASSES: usize = 6;
/// Server boots per round; the last one serves the round's session for
/// `--seconds` / [`ROUNDS`].
const BOOTS_PER_ROUND: usize = 5;

struct Workload {
    name: &'static str,
    traffic: Traffic,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "zipf",
        traffic: Traffic::Zipf,
    },
    Workload {
        name: "scan",
        traffic: Traffic::Scan,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload <zipf|scan>")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (zipf or scan)"))?;
    let num = |key: &str, default: u64| -> Result<u64, String> {
        get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {key} `{v}`"))
        })
    };
    Ok(Args {
        workload,
        seed: num("--seed", 42)?,
        seconds: num("--seconds", 12)?.max(1),
        trace: num("--trace", 0)? == 1,
    })
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operations attempted and failed across the journey.
#[derive(Default)]
struct Ops {
    attempted: usize,
    failed: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    std::fs::remove_dir_all(&work).ok();
    // Removes `.perfbench` itself unless traces are kept there.
    std::fs::remove_dir(".perfbench").ok();
    match result {
        Ok((metrics, ops)) => {
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                ops.attempted,
                ops.failed,
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn header(args: &Args) {
    eprintln!(
        "perfbench: workload {}, seed {}, nproc {}; content seed {}, {} topics x {} repos, sql share {}",
        args.workload.name,
        args.seed,
        threads(),
        input::CONTENT_SEED,
        input::TOPICS,
        input::REPOS_PER_TOPIC,
        input::SQL_SHARE
    );
}

/// Prints the outcome of the known-defect probe: `build_sidecars` on a
/// crawled store. The probe is not one of the run's operations, so its
/// expected failure shows here and in the per-layer
/// `index.crawl_failed`, not in `failed`.
fn note_index(crawled: &phases::Crawled) {
    match &crawled.index {
        Err(e) => println!("known defect: index on crawled store failed: {e}"),
        Ok(()) => println!("known defect: index on crawled store succeeded"),
    }
}

/// Keep-alive client connections in the closed loop. One client keeps
/// two threads busy — the client and the server thread answering it —
/// so on a 2-core host the latencies measure the server rather than
/// run-queue waits.
const CLIENTS: usize = 1;

/// The serving setup shared by both modes: the target population and
/// each client's request sequence.
fn traffic(
    args: &Args,
    corpus: &Corpus,
    store: &Path,
) -> Result<(Population, Vec<Vec<u32>>), String> {
    let lazy = QueryEngine::load(store).map_err(|e| format!("engine load: {e}"))?;
    let pop = serve::population(corpus, &lazy, args.seed);
    let seqs = serve::sequences(&pop, args.workload.traffic, CLIENTS, args.seed);
    Ok((pop, seqs))
}

/// Every distinct served body must equal the in-process engine's.
fn check_bodies(
    corpus: &Corpus,
    pop: &Population,
    bodies: &HashMap<u32, Option<u64>>,
) -> Result<(), String> {
    let reference = QueryEngine::from_corpus(corpus.clone());
    let checked = serve::check_bodies(&reference, pop, bodies)?;
    eprintln!("serve: {checked} distinct responses match the in-process engine");
    Ok(())
}

fn untraced(args: &Args, work: &Path) -> Result<(Metrics, Ops), String> {
    header(args);
    let config = input::config();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let started = Instant::now();
        let s = input::set_up(&config, args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    eprintln!(
        "setup: {} files, {:.1} MB; median {:.2} s of {:?}",
        setup.files,
        setup.mb,
        median(&setup_s),
        setup_s
    );
    let rss_reset = stats::reset_peak_rss();
    let mut ops = Ops::default();

    // The timed phase runs in rounds of build, crawl, boots and a serving
    // session. Outside load on a shared host comes in stretches of tens
    // of seconds that slow every round they overlap, by up to several
    // times for tail latencies; the less disturbed rounds measure the
    // program, so each timed metric is the mean of the better half of
    // its per-round values (a round's idle passes and boots enter as
    // their median). Written
    // stores are checked after the timed phase, so the reloads stay out
    // of `peak_rss_mb`.
    let mut stores = Vec::new();
    let mut corpus: Option<Corpus> = None;
    let mut pop_seqs = None;
    let mut cursors = vec![0; CLIENTS];
    let (mut build_s, mut crawl_s, mut idle_ms, mut boot_ms) = (vec![], vec![], vec![], vec![]);
    let (mut rps, mut bodies, mut cache_hits) = (vec![], std::collections::HashMap::new(), 0);
    let mut latency: Vec<[Vec<f64>; 2]> = vec![[vec![], vec![]]; KINDS.len()];
    for round in 0..ROUNDS {
        let built = phases::build_chain(
            &config,
            &setup.host,
            &work.join(format!("build-{round}")),
            false,
        )?;
        if let Some(first) = &corpus {
            phases::same_corpus("repeated build", &built.corpus, first)?;
        }
        build_s.push(built.build_s);
        ops.attempted += 1;
        stores.push(("build store", built.store_dir.clone()));
        let store = built.store_dir;
        let corpus = corpus.get_or_insert(built.corpus);

        let dir = work.join(format!("crawl-{round}"));
        let crawled = phases::crawl_phase(&config, &setup.host, &dir, IDLE_PASSES)?;
        stores.push(("crawled store vs build", dir));
        crawl_s.push(crawled.crawl_s);
        idle_ms.push(median(&crawled.idle_pass_ms));
        ops.attempted += crawled.passes;
        note_index(&crawled);

        if pop_seqs.is_none() {
            pop_seqs = Some(traffic(args, corpus, &store)?);
        }
        let (pop, seqs) = pop_seqs.as_ref().expect("traffic is set");
        let mut last: Option<serve::Booted> = None;
        let mut round_boot_ms = Vec::with_capacity(BOOTS_PER_ROUND);
        for _ in 0..BOOTS_PER_ROUND {
            if let Some(b) = last.take() {
                b.handle.shutdown();
            }
            let booted = serve::boot(&store, threads(), &pop.targets[0])?;
            round_boot_ms.push(booted.boot_ms);
            ops.attempted += 1;
            last = Some(booted);
        }
        let booted = last.expect("at least one boot per round");
        boot_ms.push(median(&round_boot_ms));
        let session = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
        let out = serve::closed_loop(booted.handle, pop, seqs, &mut cursors, session);
        ops.attempted += out.requests;
        ops.failed += out.failed;
        rps.push(out.requests as f64 / out.wall_s);
        for (k, l) in out.latency_us.iter().enumerate() {
            latency[k][0].push(quantile(l, 0.5));
            latency[k][1].push(quantile(l, 0.99));
        }
        cache_hits += out.server.cache.hits;
        serve::merge_bodies(&mut bodies, out.bodies);
    }
    let peak_rss = stats::peak_rss_mb().filter(|_| rss_reset);
    let corpus = corpus.expect("at least one round");
    for (what, dir) in &stores {
        phases::check_store(what, dir, &corpus)?;
    }
    let (pop, _) = pop_seqs.expect("traffic is set");
    check_bodies(&corpus, &pop, &bodies)?;
    eprintln!("build: {} tables; {build_s:?} s", corpus.len());
    eprintln!("crawl: {crawl_s:?} s; idle passes {idle_ms:?} ms");
    eprintln!("serve: boot {boot_ms:?} ms; {rps:?} requests/s; {cache_hits} cache hits");
    for (k, name) in KINDS.iter().enumerate() {
        eprintln!(
            "serve: {name} p50 {:?} p99 {:?}",
            latency[k][0], latency[k][1]
        );
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("build_s", better_half(&build_s, true), "s");
    m.put("crawl_s", better_half(&crawl_s, true), "s");
    m.put("idle_pass_ms", better_half(&idle_ms, true), "ms");
    m.put("boot_ms", better_half(&boot_ms, true), "ms");
    m.put("query_rps", better_half(&rps, false), "1/s");
    for (k, name) in [(0, "search"), (1, "complete"), (3, "table")] {
        m.put(
            &format!("{name}_p50_us"),
            better_half(&latency[k][0], true),
            "us",
        );
        m.put(
            &format!("{name}_p99_us"),
            better_half(&latency[k][1], true),
            "us",
        );
    }
    m.put("peak_rss_mb", peak_rss.ok_or("peak RSS unavailable")?, "MB");
    Ok((m, ops))
}

/// Wall time of `f`, in seconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

fn traced(args: &Args, work: &Path) -> Result<(Metrics, Ops), String> {
    header(args);
    let config = input::config();
    trace::set_enabled(true);
    let setup = input::set_up(&config, args.seed);
    trace::set_enabled(false);
    let mut m = Metrics::default();
    let mut ops = Ops::default();
    m.put("synth.s", setup.synth_s, "s");
    m.put("synth.mb", setup.mb, "MB");
    m.put("githost.index_s", setup.index_s, "s");
    m.put("githost.index_files", setup.files as f64, "count");

    // Untraced baseline: the real `run` and `crawl`, whose host
    // counters give the githost numbers and whose corpus gates the
    // replay.
    let (plain_build_s, plain) =
        timed(|| phases::build_chain(&config, &setup.host, &work.join("plain-build"), false));
    let plain = plain?;
    phases::check_store("build store", &plain.store_dir, &plain.corpus)?;
    let (plain_crawl_s, plain_crawl) =
        timed(|| phases::crawl_phase(&config, &setup.host, &work.join("plain-crawl"), IDLE_PASSES));
    let plain_crawl = plain_crawl?;
    phases::check_store(
        "crawled store vs build",
        &work.join("plain-crawl"),
        &plain.corpus,
    )?;
    let plain_store = plain.store_dir.clone();
    let (pop, seqs) = traffic(args, &plain.corpus, &plain_store)?;
    let (plain_boot_s, booted) = timed(|| serve::boot(&plain_store, threads(), &pop.targets[0]));
    booted?.handle.shutdown();
    let plain_s = plain_build_s + plain_crawl_s + plain_boot_s;
    std::fs::remove_dir_all(work.join("plain-crawl")).ok();

    for (scope, h) in [("build", plain.host), ("crawl", plain_crawl.host)] {
        m.put(
            &format!("{scope}.githost.search_calls"),
            h.search_calls as f64,
            "count",
        );
        m.put(&format!("{scope}.githost.search_s"), h.search_s, "s");
        m.put(
            &format!("{scope}.githost.fetch_calls"),
            h.fetch_calls as f64,
            "count",
        );
        m.put(&format!("{scope}.githost.fetch_s"), h.fetch_s, "s");
        m.put(&format!("{scope}.githost.fetch_mb"), h.fetch_mb, "MB");
    }
    m.put(
        "pool.operations",
        plain_crawl.pool.operations as f64,
        "count",
    );
    m.put(
        "pool.budget_waits",
        plain_crawl.pool.budget_waits as f64,
        "count",
    );
    let ann = &plain_crawl.annotate;
    m.put("crawl.annotate.hits", ann.hits as f64, "count");
    m.put("crawl.annotate.misses", ann.misses as f64, "count");
    m.put("crawl.annotate.hit_rate", ann.hit_rate(), "fraction");

    // The traced journey.
    trace::set_enabled(true);
    let traced_started = Instant::now();
    let build = phases::build_chain(&config, &setup.host, &work.join("build"), true)?;
    let crawl = phases::crawl_phase(&config, &setup.host, &work.join("crawl"), IDLE_PASSES)?;
    let store = build.store_dir.clone();
    let booted = serve::boot(&store, threads(), &pop.targets[0])?;
    let traced_s = traced_started.elapsed().as_secs_f64();
    let mut cursors = vec![0; CLIENTS];
    let out = {
        let _span = trace::span("phase.serve");
        let _layer = trace::span("http.closed_loop");
        let session = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
        serve::closed_loop(booted.handle, &pop, &seqs, &mut cursors, session)
    };
    trace::set_enabled(false);

    phases::same_corpus(
        "traced replay vs untraced run",
        &build.corpus,
        &plain.corpus,
    )?;
    phases::check_store("traced build store", &build.store_dir, &plain.corpus)?;
    phases::check_store(
        "traced crawled store vs build",
        &work.join("crawl"),
        &plain.corpus,
    )?;
    check_bodies(&plain.corpus, &pop, &out.bodies)?;
    ops.attempted += 2 + plain_crawl.passes + crawl.passes + 2 + out.requests;
    ops.failed += out.failed;
    note_index(&plain_crawl);
    note_index(&crawl);

    let spans = trace::spans();
    let by_phase = phase_self_times(&spans);
    let layer = |phase: &str, name: &str| {
        by_phase
            .get(&(phase.to_string(), name.to_string()))
            .map_or(0.0, |v| v.0)
    };
    let counts = build.replay.as_ref().expect("traced build replays");

    // Layer self times, in seconds, by (metric, phase, span).
    for (metric, phase, span) in [
        ("pipeline.new_s", "phase.build", "pipeline.new"),
        ("extract.s", "phase.build", "extract"),
        ("parse.csv_s", "phase.build", "parse.csv"),
        ("parse.sql_s", "phase.build", "parse.sql"),
        ("curate.s", "phase.build", "curate"),
        ("annotate.s", "phase.build", "annotate"),
        ("annotate.miss_s", "phase.build", "annotate.miss"),
        ("anonymize.s", "phase.build", "anonymize"),
        ("persist.save_s", "phase.build", "persist.save"),
        ("persist.load_s", "phase.build", "persist.load"),
        ("store.write_s", "phase.build", "store.write"),
        ("index.s", "phase.build", "index"),
        ("trace.replay_setup_s", "phase.build", "replay.annotators"),
        ("crawl.pipeline_new_s", "phase.crawl", "pipeline.new"),
        ("crawl.pass_s", "phase.crawl", "crawl.pass"),
        ("crawl.idle_pass_s", "phase.crawl", "crawl.idle_pass"),
    ] {
        m.put(metric, layer(phase, span), "s");
    }
    for (metric, span) in [
        ("boot.load_ms", "boot.load"),
        ("boot.start_ms", "boot.start"),
        ("boot.first_query_ms", "boot.first_query"),
    ] {
        m.put(metric, layer("phase.boot", span) * 1e3, "ms");
    }
    let lookups = (counts.annotate_hits + counts.annotate_misses).max(1) as f64;
    for (metric, value, unit) in [
        ("extract.files", counts.files as f64, "count"),
        ("extract.queries", counts.queries as f64, "count"),
        ("parse.csv_mb", counts.csv_bytes as f64 / 1e6, "MB"),
        ("parse.csv_failed", counts.csv_failed as f64, "count"),
        ("parse.sql_mb", counts.sql_bytes as f64 / 1e6, "MB"),
        ("parse.sql_failed", counts.sql_failed as f64, "count"),
        ("curate.filtered", counts.filtered as f64, "count"),
        ("annotate.hits", counts.annotate_hits as f64, "count"),
        ("annotate.misses", counts.annotate_misses as f64, "count"),
        (
            "annotate.hit_rate",
            counts.annotate_hits as f64 / lookups,
            "fraction",
        ),
        (
            "anonymize.columns",
            counts.anonymized_columns as f64,
            "count",
        ),
        ("persist.mb", build.persist_mb, "MB"),
        ("store.mb_written", build.store_mb, "MB"),
        ("store.shards", build.store_shards as f64, "count"),
        ("index.mb", build.index_mb, "MB"),
        ("crawl.passes", crawl.passes as f64, "count"),
        ("crawl.store.mb_written", crawl.store_mb, "MB"),
        ("crawl.store.shards", crawl.store_shards as f64, "count"),
        ("store.loads", crawl.passes as f64, "count"),
        ("index.crawl_s", crawl.index_s, "s"),
        (
            "index.crawl_failed",
            f64::from(u8::from(crawl.index.is_err())),
            "count",
        ),
    ] {
        m.put(metric, value, unit);
    }
    m.put(
        "store.load_s",
        phases::store_load_s(&work.join("crawl"), 3)?,
        "s",
    );
    m.put("boot.sidecar", 1.0, "count");

    let engine = QueryEngine::load(&store).map_err(|e| format!("engine load: {e}"))?;
    let replayed = serve::engine_replay(&engine, &pop, &seqs[0][..cursors[0].min(seqs[0].len())]);
    for (k, name) in KINDS.iter().enumerate() {
        let engine_p50 = quantile(&replayed[k], 0.5);
        m.put(&format!("engine.{name}_us"), engine_p50, "us");
        m.put(
            &format!("http.{name}_overhead_us"),
            quantile(&out.latency_us[k], 0.5) - engine_p50,
            "us",
        );
    }
    // The server's own percentiles are histogram bucket bounds, which
    // repeat exactly from run to run; they are printed, not reported.
    eprintln!(
        "http: server p50 {} us, p99 {} us (MetricsSnapshot bucket bounds)",
        out.server.p50_us, out.server.p99_us
    );
    let cache = &out.server.cache;
    m.put("cache.hits", cache.hits as f64, "count");
    m.put("cache.misses", cache.misses as f64, "count");
    m.put(
        "cache.hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "fraction",
    );

    // Accounting: a phase span's self time is time no layer span covers.
    let (mut phase_total, mut phase_self) = (0.0, 0.0);
    for s in spans
        .iter()
        .filter(|s| s.name.starts_with("phase.") && s.name != "phase.serve")
    {
        phase_total += (s.end_ns - s.start_ns) as f64 / 1e9;
        phase_self += s.self_ns as f64 / 1e9;
    }
    m.put(
        "trace.unaccounted_frac",
        phase_self / phase_total.max(1e-9),
        "fraction",
    );
    m.put("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");

    print_layers(&spans, &by_phase, setup.synth_s + setup.index_s);
    let traces = PathBuf::from(".perfbench").join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let file = traces.join(format!("{}-{}.json", args.workload.name, args.seed));
    std::fs::write(&file, trace::chrome_json(&spans)).map_err(|e| e.to_string())?;
    eprintln!("trace: {} spans written to {}", spans.len(), file.display());
    Ok((m, ops))
}

/// Self time and count per (phase, span name); spans outside any phase
/// (the set-up) are filed under `setup`.
fn phase_self_times(spans: &[trace::Span]) -> BTreeMap<(String, String), (f64, usize)> {
    let mut out: BTreeMap<(String, String), (f64, usize)> = BTreeMap::new();
    for s in spans {
        let mut root = s;
        while let Some(p) = root.parent {
            root = &spans[p];
        }
        let phase = if root.name.starts_with("phase.") {
            root.name
        } else {
            "setup"
        };
        let e = out
            .entry((phase.to_string(), s.name.to_string()))
            .or_default();
        e.0 += s.self_ns as f64 / 1e9;
        e.1 += 1;
    }
    out
}

/// Prints each layer's self time and its share of its phase's wall time.
fn print_layers(
    spans: &[trace::Span],
    by_phase: &BTreeMap<(String, String), (f64, usize)>,
    setup_s: f64,
) {
    let mut phase_s: BTreeMap<&str, f64> = BTreeMap::from([("setup", setup_s)]);
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("phase."))
    {
        *phase_s.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
    }
    eprintln!(
        "{:<12} {:<22} {:>8} {:>12} {:>8}",
        "phase", "layer (self time)", "spans", "ms", "share"
    );
    for ((phase, name), (secs, n)) in by_phase {
        let share = 100.0 * secs / phase_s.get(phase.as_str()).copied().unwrap_or(f64::NAN);
        eprintln!(
            "{phase:<12} {name:<22} {n:>8} {:>12.2} {share:>7.1}%",
            secs * 1e3
        );
    }
}
