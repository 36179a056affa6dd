//! The traced build: `Pipeline::run` exposes no stage boundaries, so the
//! traced run replays its per-file stages, serially, through the same
//! public functions — extraction, `parse_file_tables`,
//! `CurationConfig::evaluate`, the four annotators behind an
//! `AnnotationCache`, and `anonymize_table` — with a span around each.
//! The caller accepts the replay's numbers only when its corpus equals
//! the untraced run's, table fingerprint for table fingerprint.

use gittables_annotate::{
    Annotation, AnnotationCache, NameAnnotations, SemanticAnnotator, SyntacticAnnotator,
    TableAnnotations,
};
use gittables_core::{parse_file_tables, Pipeline, RawCsvFile};
use gittables_corpus::{AnnotatedTable, Corpus};
use gittables_curate::anonymize_table;
use gittables_githost::{CodeHost, FileKind};
use gittables_ontology::{contains_digit, normalize_label};
use gittables_synth::repo::PERMISSIVE_LICENSES;
use gittables_table::Table;

use crate::trace;

/// Most tables one file contributes (the pipeline's sub-table stride).
const MAX_TABLES_PER_FILE: usize = 1024;

/// Work counts of one replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub files: usize,
    pub queries: usize,
    pub csv_bytes: usize,
    pub sql_bytes: usize,
    pub csv_failed: usize,
    pub sql_failed: usize,
    pub filtered: usize,
    pub anonymized_columns: usize,
    pub annotate_hits: u64,
    pub annotate_misses: u64,
}

struct Annotators {
    syn_dbp: SyntacticAnnotator,
    syn_sch: SyntacticAnnotator,
    sem_dbp: SemanticAnnotator,
    sem_sch: SemanticAnnotator,
    cache: AnnotationCache,
}

/// Replays extract → parse → curate → annotate → anonymize → assemble.
pub fn replay_run(pipeline: &Pipeline, host: &dyn CodeHost) -> (Corpus, Counts) {
    let config = &pipeline.config;
    let annotators = {
        let _span = trace::span("replay.annotators");
        let threshold = config.semantic_threshold;
        Annotators {
            syn_dbp: SyntacticAnnotator::new(pipeline.dbpedia().clone()),
            syn_sch: SyntacticAnnotator::new(pipeline.schema_org().clone()),
            sem_dbp: SemanticAnnotator::new(pipeline.dbpedia().clone()).with_threshold(threshold),
            sem_sch: SemanticAnnotator::new(pipeline.schema_org().clone())
                .with_threshold(threshold),
            cache: AnnotationCache::new(),
        }
    };
    let (raw_files, queries) = {
        let _span = trace::span("extract");
        pipeline.extract_all(host)
    };
    let mut counts = Counts {
        files: raw_files.len(),
        queries,
        ..Counts::default()
    };
    let mut corpus = Corpus::new(pipeline.corpus_name());
    for raw in &raw_files {
        for at in process_file(pipeline, &annotators, raw, &mut counts) {
            corpus.push(at);
        }
    }
    let stats = annotators.cache.stats();
    counts.annotate_hits = stats.hits;
    counts.annotate_misses = stats.misses;
    (corpus, counts)
}

fn process_file(
    pipeline: &Pipeline,
    annotators: &Annotators,
    raw: &RawCsvFile,
    counts: &mut Counts,
) -> Vec<AnnotatedTable> {
    let config = &pipeline.config;
    let sql = raw.kind == FileKind::Sql;
    let parsed = {
        let _span = trace::span(if sql { "parse.sql" } else { "parse.csv" });
        parse_file_tables(raw, &config.read_options, &config.sql_options)
    };
    if sql {
        counts.sql_bytes += raw.content.len();
    } else {
        counts.csv_bytes += raw.content.len();
    }
    let tables = match parsed {
        Ok(tables) => tables,
        Err(_) => {
            if sql {
                counts.sql_failed += 1;
            } else {
                counts.csv_failed += 1;
            }
            return Vec::new();
        }
    };
    let permissive = raw
        .license
        .as_deref()
        .is_some_and(|l| PERMISSIVE_LICENSES.contains(&l));
    let mut kept = Vec::new();
    for table in tables {
        let verdict = {
            let _span = trace::span("curate");
            config.curation.evaluate(&table, permissive)
        };
        if verdict.is_err() {
            counts.filtered += 1;
            continue;
        }
        kept.push(annotate_one(pipeline, annotators, table, counts));
    }
    kept.truncate(MAX_TABLES_PER_FILE);
    kept
}

fn annotate_one(
    pipeline: &Pipeline,
    annotators: &Annotators,
    table: Table,
    counts: &mut Counts,
) -> AnnotatedTable {
    let mut at = AnnotatedTable::new(table);
    {
        let _span = trace::span("annotate");
        let [syn_dbp, syn_sch, sem_dbp, sem_sch] = cached_annotations(annotators, &at.table);
        at.syntactic_dbpedia = syn_dbp;
        at.syntactic_schema = syn_sch;
        at.semantic_dbpedia = sem_dbp;
        at.semantic_schema = sem_sch;
    }
    let config = &pipeline.config;
    if config.anonymize {
        let _span = trace::span("anonymize");
        // The pipeline seeds anonymization from the file URL.
        let mut seed = config.seed;
        for b in at.table.provenance().url().bytes() {
            seed = seed.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
        }
        let pii = anonymize_table(
            &mut at.table,
            &at.syntactic_schema.clone(),
            pipeline.schema_org(),
            seed,
        );
        counts.anonymized_columns += pii.anonymized.len();
    }
    at
}

/// The pipeline's per-name cached annotation, column by column.
fn cached_annotations(annotators: &Annotators, table: &Table) -> [TableAnnotations; 4] {
    let mut out: [Vec<Annotation>; 4] = Default::default();
    for (i, col) in table.columns().iter().enumerate() {
        let norm = normalize_label(col.name());
        if norm.is_empty() || contains_digit(&norm) {
            continue;
        }
        let bundle = annotators.cache.get_or_compute(&norm, || {
            let _span = trace::span("annotate.miss");
            NameAnnotations {
                syntactic_dbpedia: annotators.syn_dbp.annotate_norm(&norm),
                syntactic_schema: annotators.syn_sch.annotate_norm(&norm),
                semantic_dbpedia: annotators.sem_dbp.annotate_norm(&norm),
                semantic_schema: annotators.sem_sch.annotate_norm(&norm),
            }
        });
        let found = [
            &bundle.syntactic_dbpedia,
            &bundle.syntactic_schema,
            &bundle.semantic_dbpedia,
            &bundle.semantic_schema,
        ];
        for (a, dst) in found.into_iter().zip(out.iter_mut()) {
            if let Some(a) = a {
                let mut a = a.clone();
                a.column = i;
                dst.push(a);
            }
        }
    }
    let num_columns = table.num_columns();
    out.map(|annotations| TableAnnotations {
        annotations,
        num_columns,
    })
}
