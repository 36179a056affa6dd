//! The pipeline phases of the journey: the `build` chain (what
//! `gittables build` + `save` + `index` do) and the `crawl` daemon path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gittables_annotate::CacheStats;
use gittables_core::{crawl, CrawlOptions, Pipeline, PipelineConfig};
use gittables_corpus::{persist, table_fingerprints, Corpus, CorpusStore, StoreFormat};
use gittables_githost::{FaultSpec, FlakyHost, GitHost, HostPool, PoolPolicy, PoolStats};

use crate::host::{HostCounters, HostTotals, TimedHost};
use crate::replay::{self, Counts};
use crate::stats::{dir_mb, median};
use crate::trace;

/// Tables per store shard, the `gittables save` default.
const TABLES_PER_SHARD: usize = 256;

/// One run of the build chain.
pub struct Built {
    pub corpus: Corpus,
    pub store_dir: PathBuf,
    /// `Pipeline::new` to committed store with sidecars.
    pub build_s: f64,
    pub host: HostTotals,
    pub persist_mb: f64,
    pub store_mb: f64,
    pub store_shards: usize,
    pub index_mb: f64,
    /// Set on the traced run: the replay's work counts.
    pub replay: Option<Counts>,
}

/// `Pipeline::new` → `run` (or, traced, the stage replay) →
/// `persist::save_corpus` → `persist::load_corpus` → `save_store_as(..,
/// ColV1)` → `build_sidecars`, writing under `dir`. After the clock
/// stops, the JSON reload must equal the in-memory corpus; the store is
/// checked by [`check_store`].
pub fn build_chain(
    config: &PipelineConfig,
    host: &GitHost,
    dir: &Path,
    traced: bool,
) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let counters = HostCounters::default();
    let timed = TimedHost::new(host, &counters);
    let json = dir.join("corpus.json");
    let store_dir = dir.join("store");
    let started = Instant::now();
    let phase = trace::span("phase.build");
    let pipeline = {
        let _span = trace::span("pipeline.new");
        Pipeline::new(config.clone())
    };
    let (corpus, replay) = if traced {
        let (corpus, counts) = replay::replay_run(&pipeline, &timed);
        (corpus, Some(counts))
    } else {
        (pipeline.run(&timed).0, None)
    };
    {
        let _span = trace::span("persist.save");
        persist::save_corpus(&corpus, &json).map_err(|e| format!("save_corpus: {e}"))?;
    }
    let loaded = {
        let _span = trace::span("persist.load");
        persist::load_corpus(&json).map_err(|e| format!("load_corpus: {e}"))?
    };
    let store = {
        let _span = trace::span("store.write");
        gittables_corpus::save_store_as(&loaded, &store_dir, TABLES_PER_SHARD, StoreFormat::ColV1)
            .map_err(|e| format!("save_store_as: {e}"))?
    };
    let index = {
        let _span = trace::span("index");
        gittables_serve::build_sidecars(&store_dir).map_err(|e| format!("build_sidecars: {e}"))?
    };
    let build_s = started.elapsed().as_secs_f64();
    drop(phase);
    same_corpus("JSON reload", &loaded, &corpus)?;
    drop(loaded);
    let persist_mb = std::fs::metadata(&json).map_or(0.0, |m| m.len() as f64 / 1e6);
    std::fs::remove_file(&json).map_err(|e| e.to_string())?;
    Ok(Built {
        corpus,
        build_s,
        host: counters.totals(),
        persist_mb,
        store_mb: dir_mb(&store_dir) - index.bytes as f64 / 1e6,
        store_dir,
        store_shards: store.num_shards(),
        index_mb: index.bytes as f64 / 1e6,
        replay,
    })
}

/// A written store's output check: it loads equal to `corpus` (for the
/// build chain's store, the in-memory corpus; for a crawled store, the
/// build corpus — the crawl == build oracle).
pub fn check_store(what: &str, dir: &Path, corpus: &Corpus) -> Result<(), String> {
    let reloaded =
        gittables_corpus::load_store(dir).map_err(|e| format!("{what}: load_store: {e}"))?;
    same_corpus(what, &reloaded, corpus)
}

/// Fails unless `got` equals `want` fingerprint for fingerprint (and in
/// every annotation).
pub fn same_corpus(what: &str, got: &Corpus, want: &Corpus) -> Result<(), String> {
    let (g, w) = (table_fingerprints(got), table_fingerprints(want));
    if g.len() != w.len() {
        return Err(format!("{what}: {} tables, expected {}", g.len(), w.len()));
    }
    if let Some(i) = g.iter().zip(&w).position(|(a, b)| a != b) {
        return Err(format!("{what}: table {i} fingerprint differs"));
    }
    if got != want {
        return Err(format!("{what}: annotations or names differ"));
    }
    Ok(())
}

/// Shards each crawl pass may add.
pub const SHARDS_PER_PASS: usize = 40;

/// One crawl to convergence, its idle passes and the index attempt.
pub struct Crawled {
    /// First pass to the end of the first pass that wrote nothing.
    pub crawl_s: f64,
    pub passes: usize,
    pub idle_pass_ms: Vec<f64>,
    pub host: HostTotals,
    pub pool: PoolStats,
    pub annotate: CacheStats,
    pub store_mb: f64,
    pub store_shards: usize,
    /// The `build_sidecars` attempt on the crawled store.
    pub index: Result<(), String>,
    pub index_s: f64,
}

/// `gittables crawl` over a one-replica `HostPool` with the CLI's
/// default policy, into an empty colv1 store under `dir`: passes of
/// [`SHARDS_PER_PASS`] new shards with no interval until a pass writes
/// nothing, then `idle` more passes, then `build_sidecars` on the
/// crawled store.
pub fn crawl_phase(
    config: &PipelineConfig,
    host: &GitHost,
    dir: &Path,
    idle: usize,
) -> Result<Crawled, String> {
    let counters = HostCounters::default();
    let replica = FlakyHost::new(
        TimedHost::new(host, &counters),
        FaultSpec {
            seed: 1,
            corrupt_seed: Some(1),
            ..FaultSpec::default()
        },
    );
    let pool = HostPool::new(
        vec![replica],
        PoolPolicy {
            seed: 1,
            ..PoolPolicy::default()
        },
    );
    let phase = trace::span("phase.crawl");
    let pipeline = {
        let _span = trace::span("pipeline.new");
        Pipeline::new(config.clone())
    };
    let store =
        CorpusStore::open_or_create_with_format(dir, pipeline.corpus_name(), StoreFormat::ColV1)
            .map_err(|e| format!("creating crawl store: {e}"))?;
    let options = CrawlOptions {
        passes: None,
        interval: Duration::ZERO,
        max_shards_per_pass: Some(SHARDS_PER_PASS),
        drain_every: 2,
        cooldown_base_passes: 1,
    };
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut last = started;
    let mut last_ns = trace::now_ns();
    let mut crawl_s = None;
    let mut idle_pass_ms = Vec::new();
    let mut passes = 0usize;
    crawl(&pipeline, &pool, &store, &options, &stop, |p| {
        let now = Instant::now();
        let now_ns = trace::now_ns();
        passes += 1;
        let wrote = p.run.shards_written > 0;
        trace::record(
            if wrote {
                "crawl.pass"
            } else {
                "crawl.idle_pass"
            },
            last_ns,
            now_ns,
        );
        if crawl_s.is_some() {
            idle_pass_ms.push((now - last).as_secs_f64() * 1e3);
        } else if !wrote {
            crawl_s = Some((now - started).as_secs_f64());
        }
        if idle_pass_ms.len() >= idle {
            stop.store(true, Ordering::Relaxed);
        }
        (last, last_ns) = (now, now_ns);
    })
    .map_err(|e| format!("crawl: {e}"))?;
    let crawl_s = crawl_s.ok_or("crawl stopped before a pass wrote nothing")?;

    let index_started = Instant::now();
    let index = {
        let _span = trace::span("index.crawl");
        gittables_serve::build_sidecars(dir)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    let index_s = index_started.elapsed().as_secs_f64();
    drop(phase);
    Ok(Crawled {
        crawl_s,
        passes,
        idle_pass_ms,
        host: counters.totals(),
        pool: pool.stats(),
        annotate: pipeline.annotation_cache_stats(),
        store_mb: dir_mb(dir),
        store_shards: store.num_shards(),
        index,
        index_s,
    })
}

/// Times whole-store loads of `dir`, the reload each crawl pass makes.
pub fn store_load_s(dir: &Path, times: usize) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(times);
    for _ in 0..times {
        let started = Instant::now();
        let store = CorpusStore::open(dir).map_err(|e| e.to_string())?;
        let corpus = store.load_corpus().map_err(|e| e.to_string())?;
        secs.push(started.elapsed().as_secs_f64());
        drop(corpus);
    }
    Ok(median(&secs))
}
