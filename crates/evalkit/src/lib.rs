//! # evalkit
//!
//! Evaluation harness for the Datamaran reproduction: the §5.1 / §9.3 success criterion, the
//! Table 4 dataset labels, corpus-level accuracy aggregation (Figure 17b), and the §6 user
//! study simulation (Figure 18).
//!
//! Datamaran and the RecordBreaker baseline are judged through the same tool-agnostic
//! [`view::ViewRecord`] representation, so the comparison is symmetric: an extraction is
//! successful only if record boundaries and types are identified and every intended target
//! can be rebuilt from a fixed set of extracted columns.
//!
//! ```
//! use evalkit::{criteria, view};
//! use datamaran_core::Datamaran;
//! use logsynth::corpus;
//!
//! let data = corpus::manual_25()[2].clone().with_records(120).generate();
//! let result = Datamaran::with_defaults().extract(&data.text).unwrap();
//! let outcome = criteria::evaluate(&data, &view::datamaran_view(&data.text, &result));
//! assert!(outcome.success());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod accuracy;
pub mod corpus;
pub mod criteria;
pub mod userstudy;
pub mod view;

pub use ablation::{run_ablation, AblationOutcome, AblationVariant};
pub use accuracy::{AccuracySummary, DatasetEvaluation, Extractor};
pub use corpus::{run_dataset, template_accuracy, CorpusReport, DatasetReport, TemplateAccuracy};
pub use criteria::{evaluate, EvalOutcome, FailureReason};
pub use userstudy::{simulate, study_datasets, DatasetStudy, Source, StudyOutcome};
pub use view::{datamaran_view, logclust_view, recordbreaker_view, ViewField, ViewRecord};
