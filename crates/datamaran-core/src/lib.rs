//! # datamaran-core
//!
//! An unsupervised structure-extraction engine for log datasets, reproducing
//! *"Navigating the Data Lake with DATAMARAN: Automatically Extracting Structure from Log
//! Datasets"* (Gao, Huang, Parameswaran — SIGMOD 2018).
//!
//! Given nothing but the raw text of a log file, the engine:
//!
//! 1. **generates** candidate structure templates by enumerating formatting character sets and
//!    candidate record boundaries, reducing every candidate record to a minimal
//!    regular-expression template and keeping the ones with at least `α%` coverage
//!    ([`generation`]);
//! 2. **prunes** the candidates with the assimilation score
//!    `G = Coverage × Non-Field-Coverage` ([`assimilation`]);
//! 3. **evaluates** the survivors with a pluggable regularity score (the default is the
//!    minimum-description-length score of [`mdl`]), refining each one by array unfolding and
//!    structure shifting ([`refine`]);
//! 4. **extracts** every instantiated record of the winning template(s) in one greedy LL(1)
//!    pass over compiled instruction tables ([`extract`]): one [`SpanLineMatcher`] prunes
//!    the live templates with a merged DFA and shards the pass across worker threads, and
//!    [`extract_records`] is the pipeline's way in.  The records become normalized /
//!    denormalized relational output ([`relational`]);
//! 5. repeats the search on the unexplained residual to handle **interleaved** datasets with
//!    multiple record types ([`pipeline`]).
//!
//! ## Quick start
//!
//! ```
//! use datamaran_core::Datamaran;
//!
//! let log = "\
//! [00:01] 10.0.0.1 GET /index\n\
//! [00:02] 10.0.0.2 GET /about\n\
//! some noise the program printed\n\
//! [00:05] 10.0.0.1 POST /login\n";
//!
//! let result = Datamaran::with_defaults().extract(log).unwrap();
//! assert_eq!(result.structures.len(), 1);
//! let records = &result.structures[0].records;
//! assert_eq!(records.len(), 3);
//! assert_eq!(result.noise_lines.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod assimilation;
pub mod chars;
pub mod config;
pub mod dataset;
pub mod error;
pub mod export;
pub mod extract;
pub mod fault;
pub mod fieldtype;
pub mod fxhash;
pub mod generation;
pub mod grammar;
pub mod intern;
pub mod journal;
pub mod json;
pub mod mdl;
pub mod parallel;
pub mod parser;
pub mod pipeline;
pub mod record;
pub mod reduce;
pub mod refine;
pub mod relational;
pub mod scores;
pub mod semtype;
pub mod serve;
pub mod span;
pub mod streaming;
pub mod structure;

pub use artifact::{TemplateArtifact, ARTIFACT_FORMAT, ARTIFACT_VERSION};
pub use chars::{default_special_chars, CharSet};
pub use config::{
    DatamaranConfig, DatamaranConfigBuilder, EvaluationBackend, ExtractionBackend,
    GenerationBackend, MatchingBackend, SearchStrategy,
};
pub use dataset::Dataset;
pub use error::{BudgetKind, Error, Result};
pub use export::{
    all_records_jsonl, all_tables_csv, csv_quote, table_to_csv, write_table_csv, CountingSink,
    CsvSink, ExtractionReport, JsonLinesSink, RecordSink, RecordingSleeper, RetryPolicy,
    RetryingSink, Sleeper, StreamReport, Tee, ThreadSleeper,
};
pub use extract::{
    compile, decompile, delta_parse, diff_compiled, extract_records, CompiledTemplate,
    CompiledTemplateSet, DeltaParseStats, FusedDfaCache, MatchStats, Op, SpanLineMatcher,
    SpanParse, SpanRecord, SpanScratch, TemplateDiff,
};
pub use fault::{FailingJournalDir, FailingReader, FailingSink, FaultSchedule};
pub use fieldtype::FieldType;
pub use generation::{generate, Candidate, GenerationOutput};
pub use grammar::Grammar;
pub use intern::{TemplateId, TemplateInterner};
pub use journal::{
    recovered_snapshot, replay_journal, FsJournalMedia, JournalConfig, JournalMedia,
    JournalPersistence, JournalReplay, MemJournalMedia, SwapDelta, TemplateJournal, TornTail,
    CRASH_POINT_ENV, JOURNAL_MAGIC, MAX_ENTRY_BYTES,
};
pub use json::{JsonError, JsonValue};
pub use mdl::{ColumnStats, CoverageScorer, MdlScorer, RegularityScorer, ScoreParts};
pub use parser::{parse_dataset, FieldCell, ParseResult, RecordMatch};
pub use pipeline::{Datamaran, ExtractedStructure, ExtractionResult, PipelineStats, StepTimings};
pub use record::{field_values, FieldValue, RecordTemplate, TemplateToken};
pub use reduce::reduce;
pub use refine::{
    collect_array_paths, repetition_counts, repetition_counts_span, shift_variants, unfold_at,
    EvaluationMetrics, ParseSummary, Refined, Refiner,
};
pub use relational::{to_denormalized, to_relational, Cell, RelationalOutput, RowIdSynth, Table};
pub use scores::{NoisePenaltyScorer, NonFieldCoverageScorer, UntypedMdlScorer};
pub use semtype::{annotate_result, annotate_table, SemanticType, TableAnnotation};
pub use serve::{
    merge_summaries, snapshot_from_artifact, PersistenceStats, ServeMetrics, ServeOptions,
    ServeSession, SnapshotStore, SwapPersistence, TemplateSnapshot,
};
pub use span::{field_spans, tokenize_spans, LineIndex, SpanToken, SpanTokenKind};
pub use streaming::{
    ErrorPolicy, OwnedRecord, QuarantineEntry, QuarantineReason, QuarantineSink, StopReason,
    StreamBudgets, StreamOptions, StreamRecord, StreamSession, StreamSummary, VecQuarantineSink,
    WindowUnmatched, WriteQuarantineSink,
};
pub use structure::{Node, StructureTemplate};
