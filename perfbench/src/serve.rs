//! The serving phase: boot a server over the built store, then drive it
//! with a closed loop of keep-alive clients and check every distinct
//! response against the in-process engine.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use gittables_corpus::Corpus;
use gittables_serve::{
    HttpClient, MetricsSnapshot, QueryEngine, ReloadSpec, Server, ServerConfig, ServerHandle,
    ShardSet,
};

use crate::stats::{fnv, SplitMix};
use crate::trace;

/// Response-cache capacity, the `gittables serve` default.
pub const CACHE_CAPACITY: usize = 1024;

/// Endpoint kinds, in metric order.
pub const KINDS: [&str; 4] = ["search", "complete", "type_tables", "table"];

/// How clients pick their next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf-skewed ranks within each endpoint's targets: hot targets
    /// repeat, so the response cache answers a large share.
    Zipf,
    /// Every client walks one seeded permutation of all targets; a
    /// target recurs only after every other one, so the FIFO cache
    /// (smaller than the population) never holds it.
    Scan,
}

/// The request targets one run draws from.
pub struct Population {
    pub targets: Vec<String>,
    pub kind: Vec<usize>,
}

fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '&' | '?' | '#' | '%' | '+' | '/' | ',' => out.push_str(&format!("%{:02X}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(b) = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Search targets this many times the cache capacity, and half as many
/// completion targets; every type label and every table id as well.
const SEARCH_TARGETS: usize = 2 * CACHE_CAPACITY;
const COMPLETE_TARGETS: usize = CACHE_CAPACITY;

/// Builds the seeded target population over `corpus`.
pub fn population(corpus: &Corpus, engine: &QueryEngine, seed: u64) -> Population {
    let mut rng = SplitMix::new(seed ^ 0x5e4e_0000);
    let mut words: Vec<String> = Vec::new();
    for at in &corpus.tables {
        for attr in at.table.schema().iter() {
            for w in attr
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| w.len() > 1)
            {
                words.push(w.to_lowercase());
            }
        }
    }
    words.sort();
    words.dedup();
    assert!(words.len() > 8, "corpus has too few attribute words");
    let mut targets = Vec::new();
    let mut kind = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut push = |t: String, k: usize, targets: &mut Vec<String>, kind: &mut Vec<usize>| {
        if seen.insert(t.clone()) {
            targets.push(t);
            kind.push(k);
            true
        } else {
            false
        }
    };
    let mut n = 0;
    for _ in 0..SEARCH_TARGETS * 8 {
        let a = &words[rng.below(words.len())];
        let b = &words[rng.below(words.len())];
        let t = format!("/search?q={}%20{}&k=10", encode(a), encode(b));
        n += usize::from(push(t, 0, &mut targets, &mut kind));
        if n == SEARCH_TARGETS {
            break;
        }
    }
    let schemas: Vec<Vec<String>> = corpus
        .tables
        .iter()
        .map(|at| at.table.schema().iter().map(|s| s.to_string()).collect())
        .filter(|s: &Vec<String>| !s.is_empty())
        .collect();
    n = 0;
    for _ in 0..COMPLETE_TARGETS * 8 {
        let s = &schemas[rng.below(schemas.len())];
        let from = rng.below(s.len());
        let len = 1 + rng.below(2.min(s.len() - from));
        let prefix: Vec<String> = s[from..from + len].iter().map(|a| encode(a)).collect();
        let t = format!("/complete?prefix={}&k=5", prefix.join(","));
        n += usize::from(push(t, 1, &mut targets, &mut kind));
        if n == COMPLETE_TARGETS {
            break;
        }
    }
    for label in engine.type_index().labels() {
        push(
            format!("/types/{}/tables", encode(label)),
            2,
            &mut targets,
            &mut kind,
        );
    }
    for id in 0..corpus.len() {
        push(format!("/tables/{id}"), 3, &mut targets, &mut kind);
    }
    Population { targets, kind }
}

/// The in-process answer the server must reproduce byte for byte.
pub fn answer(engine: &QueryEngine, target: &str) -> String {
    let json = |v: Result<String, serde_json::Error>| v.expect("serialize answer");
    if let Some(rest) = target.strip_prefix("/search?q=") {
        let (q, k) = rest.split_once("&k=").expect("search target shape");
        json(serde_json::to_string(
            &engine.search(&decode(q), k.parse().expect("k")),
        ))
    } else if let Some(rest) = target.strip_prefix("/complete?prefix=") {
        let (p, k) = rest.split_once("&k=").expect("complete target shape");
        let prefix = decode(p);
        let attrs: Vec<&str> = prefix.split(',').map(str::trim).collect();
        json(serde_json::to_string(
            &engine.complete(&attrs, k.parse().expect("k")),
        ))
    } else if let Some(rest) = target.strip_prefix("/types/") {
        let label = decode(rest.strip_suffix("/tables").expect("types target shape"));
        json(serde_json::to_string(
            &engine.type_tables(&label).expect("label is indexed"),
        ))
    } else if let Some(id) = target.strip_prefix("/tables/") {
        let id = id.parse().expect("table id");
        json(serde_json::to_string(
            &engine.table_summary(id).expect("table exists"),
        ))
    } else {
        panic!("unknown target {target}");
    }
}

/// Draws per client for [`Traffic::Zipf`]; a client that sends more
/// starts over.
const ZIPF_DRAWS: usize = 1 << 17;

/// Each client's request sequence (indices into the population), sent
/// cyclically.
pub fn sequences(pop: &Population, traffic: Traffic, clients: usize, seed: u64) -> Vec<Vec<u32>> {
    let n = pop.targets.len();
    match traffic {
        Traffic::Scan => {
            // Client `c` takes positions c, c + clients, ... of the
            // permutation, so together the clients walk it in order.
            let mut order: Vec<u32> = (0..n as u32).collect();
            SplitMix::new(seed ^ 0x5ca0).shuffle(&mut order);
            (0..clients)
                .map(|c| (0..n).map(|i| order[(c + i * clients) % n]).collect())
                .collect()
        }
        Traffic::Zipf => {
            let mut rng = SplitMix::new(seed ^ 0x21f0);
            let mut by_kind: Vec<Vec<u32>> = vec![Vec::new(); KINDS.len()];
            for (i, &k) in pop.kind.iter().enumerate() {
                by_kind[k].push(i as u32);
            }
            let cdfs: Vec<Vec<f64>> = by_kind
                .iter_mut()
                .map(|ids| {
                    rng.shuffle(ids);
                    let mut acc = 0.0;
                    (0..ids.len())
                        .map(|r| {
                            acc += 1.0 / (r + 1) as f64;
                            acc
                        })
                        .collect()
                })
                .collect();
            (0..clients)
                .map(|c| {
                    let mut rng = SplitMix::new(seed ^ 0x77 ^ ((c as u64) << 32));
                    (0..ZIPF_DRAWS)
                        .map(|_| {
                            // Endpoint by its share of the population,
                            // then a Zipf rank within it.
                            let k = pop.kind[rng.below(n)];
                            let cdf = &cdfs[k];
                            let x = rng.unit() * cdf[cdf.len() - 1];
                            let r = cdf.partition_point(|&c| c < x).min(cdf.len() - 1);
                            by_kind[k][r]
                        })
                        .collect()
                })
                .collect()
        }
    }
}

/// A booted server and what the boot cost.
pub struct Booted {
    pub handle: ServerHandle,
    pub boot_ms: f64,
}

/// `ShardSet::load` + `Server::start_set` with the CLI's defaults (one
/// shard, reload enabled), until the first `/search` is answered. Fails
/// unless the server booted on the `sidecar` path.
pub fn boot(dir: &Path, threads: usize, first: &str) -> Result<Booted, String> {
    let started = Instant::now();
    let phase = trace::span("phase.boot");
    let set = {
        let _span = trace::span("boot.load");
        ShardSet::load(dir, 1).map_err(|e| format!("loading store {}: {e}", dir.display()))?
    };
    let boot_path = set.build_stats().boot_path.clone();
    let config = ServerConfig {
        threads,
        cache_capacity: CACHE_CAPACITY,
        reload: Some(ReloadSpec {
            dir: dir.to_path_buf(),
            shards: 1,
        }),
        ..ServerConfig::default()
    };
    let handle = {
        let _span = trace::span("boot.start");
        Server::start_set(set, "127.0.0.1:0", config).map_err(|e| format!("binding: {e}"))?
    };
    let (status, _) = {
        let _span = trace::span("boot.first_query");
        HttpClient::connect(handle.addr())
            .and_then(|mut c| c.get(first))
            .map_err(|e| format!("first query: {e}"))?
    };
    let boot_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(phase);
    if status != 200 {
        handle.shutdown();
        return Err(format!("first query {first} answered {status}"));
    }
    if boot_path != "sidecar" {
        handle.shutdown();
        return Err(format!(
            "server booted on the `{boot_path}` path, not `sidecar`"
        ));
    }
    Ok(Booted { handle, boot_ms })
}

/// What the closed loop saw.
pub struct LoopOut {
    pub wall_s: f64,
    pub requests: usize,
    pub failed: usize,
    /// Client-side latencies (µs) per endpoint kind.
    pub latency_us: Vec<Vec<f64>>,
    /// Body hash per distinct target answered; `None` when one target
    /// got two different bodies.
    pub bodies: HashMap<u32, Option<u64>>,
    pub server: MetricsSnapshot,
}

/// One client's requests sent and failed, latencies per endpoint kind,
/// and body hash per target.
type ClientOut = (usize, usize, Vec<Vec<f64>>, HashMap<u32, Option<u64>>);

/// Runs the clients against `handle` for `duration`, one keep-alive
/// connection each, then shuts the server down. Client `c` continues its
/// sequence (cyclically) from `cursors[c]` and leaves the cursor where it
/// stopped.
pub fn closed_loop(
    handle: ServerHandle,
    pop: &Population,
    seqs: &[Vec<u32>],
    cursors: &mut [usize],
    duration: Duration,
) -> LoopOut {
    let addr = handle.addr();
    let started = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let workers: Vec<_> = seqs
            .iter()
            .zip(cursors.iter())
            .map(|(seq, &from)| {
                s.spawn(move || {
                    let (mut sent, mut failed) = (0usize, 0usize);
                    let mut lat = vec![Vec::new(); KINDS.len()];
                    let mut bodies = HashMap::new();
                    let mut client = HttpClient::connect(addr).ok();
                    while started.elapsed() < duration {
                        let t = seq[(from + sent) % seq.len()];
                        sent += 1;
                        let target = &pop.targets[t as usize];
                        let at = Instant::now();
                        let got = client.as_mut().map(|c| c.get(target));
                        let us = at.elapsed().as_secs_f64() * 1e6;
                        match got {
                            Some(Ok((200, body))) => {
                                lat[pop.kind[t as usize]].push(us);
                                note_body(&mut bodies, t, Some(fnv(body.as_bytes())));
                            }
                            _ => failed += 1,
                        }
                    }
                    (sent, failed, lat, bodies)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let server = handle.metrics_snapshot();
    handle.shutdown();
    let mut out = LoopOut {
        wall_s,
        requests: 0,
        failed: 0,
        latency_us: vec![Vec::new(); KINDS.len()],
        bodies: HashMap::new(),
        server,
    };
    for ((sent, failed, lat, bodies), cursor) in outs.into_iter().zip(cursors.iter_mut()) {
        *cursor += sent;
        out.requests += sent;
        out.failed += failed;
        for (all, l) in out.latency_us.iter_mut().zip(lat) {
            all.extend(l);
        }
        merge_bodies(&mut out.bodies, bodies);
    }
    out
}

/// Records that target `t` was answered with body hash `h`; a target
/// answered with two different bodies keeps `None`.
fn note_body(bodies: &mut HashMap<u32, Option<u64>>, t: u32, h: Option<u64>) {
    bodies
        .entry(t)
        .and_modify(|seen| {
            if *seen != h {
                *seen = None;
            }
        })
        .or_insert(h);
}

/// Folds `more` into `bodies` (see [`note_body`]).
pub fn merge_bodies(bodies: &mut HashMap<u32, Option<u64>>, more: HashMap<u32, Option<u64>>) {
    for (t, h) in more {
        note_body(bodies, t, h);
    }
}

/// Checks every distinct served body against the in-process engine.
pub fn check_bodies(
    engine: &QueryEngine,
    pop: &Population,
    bodies: &HashMap<u32, Option<u64>>,
) -> Result<usize, String> {
    for (&t, h) in bodies {
        let target = &pop.targets[t as usize];
        let Some(h) = h else {
            return Err(format!("{target} was answered with two different bodies"));
        };
        if fnv(answer(engine, target).as_bytes()) != *h {
            return Err(format!(
                "{target}: served body differs from the in-process engine"
            ));
        }
    }
    Ok(bodies.len())
}

/// Replays a sequence in-process on `engine` (answer + serialization)
/// and returns per-kind latencies in µs.
pub fn engine_replay(engine: &QueryEngine, pop: &Population, seq: &[u32]) -> Vec<Vec<f64>> {
    let mut lat = vec![Vec::new(); KINDS.len()];
    for &t in seq {
        let started = Instant::now();
        let body = answer(engine, &pop.targets[t as usize]);
        std::hint::black_box(body);
        lat[pop.kind[t as usize]].push(started.elapsed().as_secs_f64() * 1e6);
    }
    lat
}
