//! The benchmark's inputs: the pipeline configuration and the populated
//! code host.
//!
//! The synthesized content is that of `gittables build --seed 42
//! --topics 12 --repos 10 --sql 0.3`; the run's seed permutes the order
//! in which its repositories are added to the host. The order decides
//! file ids, search result order, extraction and corpus order, which
//! repositories share a crawl pass and which shard a table lands in,
//! while the amount of work stays the same. Seeding the content instead
//! would not: at this size the synthesizer's heavy-tailed file sizes and
//! rare 30-to-120-file snapshot repositories make one seed's input 4
//! times another's (107 to 436 files, 82 to 326 tables at equal bytes),
//! a spread no useful regression bound could absorb.

use std::time::Instant;

use gittables_core::PipelineConfig;
use gittables_githost::{GitHost, RepoFile, Repository};
use gittables_synth::repo::{RepoConfig, RepoGenerator};

use crate::stats::SplitMix;
use crate::trace;

/// Seed of the synthesized content (the CLI's default seed).
pub const CONTENT_SEED: u64 = 42;
/// Topics, as in `gittables build --topics 12`.
pub const TOPICS: usize = 12;
/// Repositories per topic, as in `--repos 10`.
pub const REPOS_PER_TOPIC: usize = 9;
/// Share of synthesized files rendered as SQL dumps (`--sql 0.3`).
pub const SQL_SHARE: f64 = 0.3;

/// The pipeline configuration every phase uses.
pub fn config() -> PipelineConfig {
    PipelineConfig {
        sql_file_prob: SQL_SHARE,
        ..PipelineConfig::sized(CONTENT_SEED, TOPICS, REPOS_PER_TOPIC)
    }
}

/// A populated host and what populating it cost.
pub struct Setup {
    pub host: GitHost,
    /// Time spent synthesizing repositories.
    pub synth_s: f64,
    /// Time spent in `GitHost::add_repository`.
    pub index_s: f64,
    /// Synthesized megabytes.
    pub mb: f64,
    /// Files added to the host.
    pub files: usize,
}

/// Synthesizes the configured repositories and adds them to a fresh
/// host in an order permuted by `seed` — the calls
/// `Pipeline::populate_host` makes, in another order.
pub fn set_up(config: &PipelineConfig, seed: u64) -> Setup {
    let gen = RepoGenerator::with_config(
        config.seed,
        RepoConfig {
            sql_file_prob: config.sql_file_prob,
            ..RepoConfig::default()
        },
    );
    let mut order: Vec<(usize, usize)> = (0..config.topics.len())
        .flat_map(|t| (0..config.repos_per_topic).map(move |i| (t, i)))
        .collect();
    SplitMix::new(seed).shuffle(&mut order);
    let host = GitHost::new();
    let (mut synth_s, mut index_s, mut bytes, mut files) = (0.0, 0.0, 0usize, 0usize);
    for (t, i) in order {
        let started = Instant::now();
        let spec = {
            let _span = trace::span("synth");
            gen.generate(&config.topics[t], i)
        };
        synth_s += started.elapsed().as_secs_f64();
        bytes += spec.files.iter().map(|f| f.content.len()).sum::<usize>();
        files += spec.files.len();
        let started = Instant::now();
        {
            let _span = trace::span("githost.index");
            host.add_repository(Repository {
                full_name: spec.full_name,
                license: spec.license,
                fork: spec.fork,
                files: spec
                    .files
                    .into_iter()
                    .map(|f| RepoFile::new(f.path, f.content))
                    .collect(),
            });
        }
        index_s += started.elapsed().as_secs_f64();
    }
    Setup {
        host,
        synth_s,
        index_s,
        mb: bytes as f64 / 1e6,
        files,
    }
}
