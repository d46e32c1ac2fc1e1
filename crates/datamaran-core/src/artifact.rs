//! Versioned, serializable artifacts for discovered template sets.
//!
//! Discovery and extraction are separate lifecycle phases for a resident ingest service:
//! `discover` runs the full pipeline once and saves the winning [`StructureTemplate`]s;
//! `serve` loads them and matches forever, with **zero** discovery on the hot path.  The
//! artifact is the hand-off between the two (and the unit of fleet-wide template
//! distribution): a single JSON document, written with the in-tree [`crate::json`] module,
//! carrying
//!
//! * a format tag and **format version** (`datamaran-templates`, version 1), so future
//!   encodings can evolve without silently misreading old files;
//! * an FNV-1a 64 **checksum** over the templates' canonical strings plus the compiled-set
//!   metadata, so truncated or hand-edited artifacts fail loudly at load time instead of
//!   serving wrong rows;
//! * the template trees themselves (fields, literals, arrays), plus per-template
//!   `field_count` / `array_count` cross-checks;
//! * the compiled-set metadata the serving matcher needs: the engine's `max_line_span`;
//! * a `matching_backend` name kept only for compatibility.  Matching runs one engine, but
//!   older builds require the key, so new artifacts still record `fused`; documents that
//!   older builds saved with `trial` still load, because the checksum covers whichever
//!   name the document records.
//!
//! Loading re-parses the trees and **recompiles** the matcher tables from them (via
//! [`SpanLineMatcher`]), so a loaded artifact behaves byte-identically to the freshly
//! discovered set — the compile/decompile round-trip is property-tested in
//! `tests/serve_hotswap.rs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::MatchingBackend;
use crate::error::{Error, Result};
use crate::extract::SpanLineMatcher;
use crate::json::JsonValue;
use crate::structure::{Node, StructureTemplate};
use std::path::Path;

/// The format tag every artifact starts with.
pub const ARTIFACT_FORMAT: &str = "datamaran-templates";

/// The newest format version this build reads and writes.
pub const ARTIFACT_VERSION: u64 = 1;

/// A saved template set: everything `serve` needs to match a stream without re-running
/// discovery.
#[derive(Clone, Debug, PartialEq)]
pub struct TemplateArtifact {
    /// The structure templates, in match-priority order.
    pub templates: Vec<StructureTemplate>,
    /// The `max_line_span` (`L`) the templates were discovered under — the serving matcher
    /// must use the same bound or record segmentation changes.
    pub max_line_span: usize,
}

impl TemplateArtifact {
    /// Builds an artifact from a discovered template set.  Empty sets are rejected: an
    /// artifact with nothing to match can never serve.  `matching_backend` changes nothing
    /// (matching runs one engine); the parameter stays because the end-to-end benchmark
    /// driver passes its configuration's value.
    pub fn new(
        templates: Vec<StructureTemplate>,
        max_line_span: usize,
        _matching_backend: MatchingBackend,
    ) -> Result<Self> {
        if templates.is_empty() {
            return Err(Error::Artifact("template set is empty".into()));
        }
        if max_line_span == 0 {
            return Err(Error::Artifact("max_line_span must be >= 1".into()));
        }
        Ok(TemplateArtifact {
            templates,
            max_line_span,
        })
    }

    /// The artifact's integrity checksum: FNV-1a 64 over the canonical strings of the
    /// templates (joined with `\x00`) plus the compiled-set metadata and the recorded
    /// matching-backend name.  Canonical strings are injective over template trees, so any
    /// structural change to any template changes the checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum_recording(MatchingBackend::default().name())
    }

    /// [`checksum`](Self::checksum) over a document that records `backend` as its
    /// matching-backend name.
    fn checksum_recording(&self, backend: &str) -> u64 {
        let mut hash = FNV_OFFSET;
        for t in &self.templates {
            hash = fnv1a64(hash, t.canonical_string().as_bytes());
            hash = fnv1a64(hash, &[0]);
        }
        hash = fnv1a64(hash, &(self.max_line_span as u64).to_le_bytes());
        hash = fnv1a64(hash, backend.as_bytes());
        hash
    }

    /// Serializes the artifact to its JSON document.
    pub fn to_json(&self) -> String {
        let templates: Vec<JsonValue> = self
            .templates
            .iter()
            .map(|t| {
                JsonValue::Object(vec![
                    (
                        "nodes".into(),
                        JsonValue::Array(t.nodes().iter().map(node_to_json).collect()),
                    ),
                    ("display".into(), JsonValue::String(t.to_string())),
                    (
                        "field_count".into(),
                        JsonValue::Number(t.field_count() as f64),
                    ),
                    (
                        "array_count".into(),
                        JsonValue::Number(t.array_count() as f64),
                    ),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("format".into(), JsonValue::String(ARTIFACT_FORMAT.into())),
            ("version".into(), JsonValue::Number(ARTIFACT_VERSION as f64)),
            (
                "checksum".into(),
                JsonValue::String(format!("{:016x}", self.checksum())),
            ),
            (
                "max_line_span".into(),
                JsonValue::Number(self.max_line_span as f64),
            ),
            (
                "matching_backend".into(),
                JsonValue::String(MatchingBackend::default().name().into()),
            ),
            ("templates".into(), JsonValue::Array(templates)),
        ])
        .to_pretty()
    }

    /// Parses and verifies an artifact document: format tag, version, checksum, and the
    /// per-template `field_count` / `array_count` cross-checks must all hold.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = JsonValue::parse(text)
            .map_err(|e| Error::Artifact(format!("not valid JSON: {e:?}")))?;
        let format = doc
            .require("format")
            .and_then(JsonValue::as_str)
            .map_err(|e| Error::Artifact(format!("{e:?}")))?;
        if format != ARTIFACT_FORMAT {
            return Err(Error::Artifact(format!(
                "unknown format tag `{format}` (expected `{ARTIFACT_FORMAT}`)"
            )));
        }
        let version = doc
            .require("version")
            .and_then(JsonValue::as_usize)
            .map_err(|e| Error::Artifact(format!("{e:?}")))? as u64;
        if version == 0 || version > ARTIFACT_VERSION {
            return Err(Error::Artifact(format!(
                "unsupported format version {version} (this build reads up to {ARTIFACT_VERSION})"
            )));
        }
        let max_line_span = doc
            .require("max_line_span")
            .and_then(JsonValue::as_usize)
            .map_err(|e| Error::Artifact(format!("{e:?}")))?;
        // Older builds saved either matching engine's name; both still load.
        let recorded_backend = doc
            .require("matching_backend")
            .and_then(JsonValue::as_str)
            .map_err(|e| Error::Artifact(format!("{e:?}")))?
            .trim();
        let recorded_backend = match recorded_backend.to_ascii_lowercase().as_str() {
            name @ ("fused" | "trial") => name.to_string(),
            _ => {
                return Err(Error::Artifact(format!(
                    "unknown matching backend `{recorded_backend}` (expected `fused` or `trial`)"
                )))
            }
        };
        let entries = doc
            .require("templates")
            .and_then(JsonValue::as_array)
            .map_err(|e| Error::Artifact(format!("{e:?}")))?;
        let mut templates = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let nodes_json = entry
                .require("nodes")
                .and_then(JsonValue::as_array)
                .map_err(|e| Error::Artifact(format!("template {i}: {e:?}")))?;
            let nodes = nodes_json
                .iter()
                .map(node_from_json)
                .collect::<Result<Vec<Node>>>()
                .map_err(|e| match e {
                    Error::Artifact(msg) => Error::Artifact(format!("template {i}: {msg}")),
                    other => other,
                })?;
            let template = StructureTemplate::new(nodes);
            // Cross-check the recorded shape counters against the re-parsed tree — a
            // cheap structural integrity check independent of the checksum.
            let field_count = entry
                .require("field_count")
                .and_then(JsonValue::as_usize)
                .map_err(|e| Error::Artifact(format!("template {i}: {e:?}")))?;
            let array_count = entry
                .require("array_count")
                .and_then(JsonValue::as_usize)
                .map_err(|e| Error::Artifact(format!("template {i}: {e:?}")))?;
            if field_count != template.field_count() || array_count != template.array_count() {
                return Err(Error::Artifact(format!(
                    "template {i}: shape counters disagree with the node tree \
                     (recorded {field_count} fields / {array_count} arrays, \
                     parsed {} / {})",
                    template.field_count(),
                    template.array_count()
                )));
            }
            templates.push(template);
        }
        let artifact = TemplateArtifact::new(templates, max_line_span, MatchingBackend::default())?;
        let recorded = doc
            .require("checksum")
            .and_then(JsonValue::as_str)
            .map_err(|e| Error::Artifact(format!("{e:?}")))?;
        let recorded = u64::from_str_radix(recorded, 16)
            .map_err(|_| Error::Artifact(format!("malformed checksum `{recorded}`")))?;
        let computed = artifact.checksum_recording(&recorded_backend);
        if recorded != computed {
            return Err(Error::Artifact(format!(
                "checksum mismatch: recorded {recorded:016x}, computed {computed:016x} \
                 (the artifact is corrupt or was edited)"
            )));
        }
        Ok(artifact)
    }

    /// Writes the artifact document to `path` **atomically**: the JSON is staged to a
    /// `.tmp` sibling, `fsync`'d, renamed over `path`, and the parent directory is
    /// `fsync`'d — the same pattern the CSV exporter uses.  A crash at any moment leaves
    /// either the previous artifact or the new one on disk, never a torn mixture (the
    /// stale `.tmp` a crash may leave behind is overwritten by the next save).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let tmp = tmp_sibling(path);
        let stage = || -> std::io::Result<()> {
            {
                let mut file = std::fs::File::create(&tmp)?;
                std::io::Write::write_all(&mut file, self.to_json().as_bytes())?;
                file.sync_all()?;
            }
            crate::journal::crash_point("compact.before-rename");
            std::fs::rename(&tmp, path)?;
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                crate::journal::fsync_dir(dir)?;
            }
            Ok(())
        };
        stage().map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            Error::io_path(&e, path)
        })
    }

    /// Reads and verifies an artifact document from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| Error::io_path(&e, path))?;
        Self::from_json(&text)
    }

    /// Recompiles the serving matcher from the artifact: the same tables (and the same
    /// merged byte-class DFA) the freshly discovered set would have produced.
    pub fn matcher(&self) -> SpanLineMatcher {
        SpanLineMatcher::new(&self.templates, self.max_line_span)
    }
}

/// The staging sibling `save` writes before the atomic rename: `<file>.tmp` next to the
/// destination, so the rename never crosses a filesystem boundary.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 absorption step over `bytes`, continuing from `hash`.
fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one template node: `"field"`, `{"literal": s}`, or
/// `{"array": {"body": [...], "separator": c, "terminator": c}}`.
/// Shared with [`crate::journal`], whose WAL entries use the same node encoding.
pub(crate) fn node_to_json(node: &Node) -> JsonValue {
    match node {
        Node::Field => JsonValue::String("field".into()),
        Node::Literal(s) => {
            JsonValue::Object(vec![("literal".into(), JsonValue::String(s.clone()))])
        }
        Node::Array {
            body,
            separator,
            terminator,
        } => JsonValue::Object(vec![(
            "array".into(),
            JsonValue::Object(vec![
                (
                    "body".into(),
                    JsonValue::Array(body.iter().map(node_to_json).collect()),
                ),
                ("separator".into(), JsonValue::String(separator.to_string())),
                (
                    "terminator".into(),
                    JsonValue::String(terminator.to_string()),
                ),
            ]),
        )]),
    }
}

/// Decodes one template node written by [`node_to_json`].
pub(crate) fn node_from_json(value: &JsonValue) -> Result<Node> {
    match value {
        JsonValue::String(s) if s == "field" => Ok(Node::Field),
        JsonValue::String(s) => Err(Error::Artifact(format!("unknown node kind `{s}`"))),
        JsonValue::Object(_) => {
            if let Some(lit) = value.get("literal") {
                let s = lit
                    .as_str()
                    .map_err(|e| Error::Artifact(format!("{e:?}")))?;
                return Ok(Node::Literal(s.to_string()));
            }
            if let Some(arr) = value.get("array") {
                let body = arr
                    .require("body")
                    .and_then(JsonValue::as_array)
                    .map_err(|e| Error::Artifact(format!("{e:?}")))?
                    .iter()
                    .map(node_from_json)
                    .collect::<Result<Vec<Node>>>()?;
                let separator = single_char(arr, "separator")?;
                let terminator = single_char(arr, "terminator")?;
                return Ok(Node::Array {
                    body,
                    separator,
                    terminator,
                });
            }
            Err(Error::Artifact(
                "object node is neither `literal` nor `array`".into(),
            ))
        }
        other => Err(Error::Artifact(format!(
            "node must be a string or object, got {other:?}"
        ))),
    }
}

/// Reads a one-character string field (array separators/terminators are single chars).
fn single_char(value: &JsonValue, key: &str) -> Result<char> {
    let s = value
        .require(key)
        .and_then(JsonValue::as_str)
        .map_err(|e| Error::Artifact(format!("{e:?}")))?;
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(Error::Artifact(format!(
            "`{key}` must be exactly one character, got {s:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_templates() -> Vec<StructureTemplate> {
        vec![
            StructureTemplate::new(vec![
                Node::Field,
                Node::Literal("=".into()),
                Node::Field,
                Node::Literal("\n".into()),
            ]),
            StructureTemplate::new(vec![
                Node::Literal("[".into()),
                Node::Field,
                Node::Literal("] ".into()),
                Node::Array {
                    body: vec![Node::Field],
                    separator: ',',
                    terminator: '\n',
                },
            ]),
        ]
    }

    #[test]
    fn round_trip_preserves_templates_and_metadata() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 10, MatchingBackend::Fused).unwrap();
        let json = artifact.to_json();
        assert!(json.contains("\"matching_backend\": \"fused\""), "{json}");
        let loaded = TemplateArtifact::from_json(&json).unwrap();
        assert_eq!(loaded, artifact);
        assert_eq!(loaded.checksum(), artifact.checksum());
    }

    #[test]
    fn empty_template_set_is_rejected() {
        let err = TemplateArtifact::new(Vec::new(), 10, MatchingBackend::Fused).unwrap_err();
        assert!(matches!(err, Error::Artifact(_)));
    }

    #[test]
    fn tampered_document_fails_the_checksum() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 10, MatchingBackend::Fused).unwrap();
        // Change a literal without updating the checksum: the load must fail loudly.
        let json = artifact.to_json().replace("\"=\"", "\":\"");
        let err = TemplateArtifact::from_json(&json).unwrap_err();
        assert!(
            matches!(&err, Error::Artifact(msg) if msg.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_format_and_future_version_are_rejected() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 10, MatchingBackend::Fused).unwrap();
        let json = artifact.to_json().replace(ARTIFACT_FORMAT, "other-format");
        assert!(matches!(
            TemplateArtifact::from_json(&json),
            Err(Error::Artifact(_))
        ));
        let json = artifact
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        let err = TemplateArtifact::from_json(&json).unwrap_err();
        assert!(
            matches!(&err, Error::Artifact(msg) if msg.contains("version")),
            "{err:?}"
        );
        let json = artifact.to_json().replace("\"fused\"", "\"dfa\"");
        let err = TemplateArtifact::from_json(&json).unwrap_err();
        assert!(
            matches!(&err, Error::Artifact(msg) if msg.contains("matching backend")),
            "{err:?}"
        );
    }

    #[test]
    fn save_load_round_trips_through_a_file() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 7, MatchingBackend::Fused).unwrap();
        let dir = std::env::temp_dir().join("datamaran-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("templates.json");
        artifact.save(&path).unwrap();
        let loaded = TemplateArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, artifact);
        assert_eq!(loaded.max_line_span, 7);
    }

    #[test]
    fn save_is_staged_and_leaves_no_tmp_behind() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 10, MatchingBackend::Fused).unwrap();
        let dir = std::env::temp_dir().join(format!("dm-artifact-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("templates.json");
        // Pre-existing destination: the rename must replace it wholesale.
        std::fs::write(&path, "{ stale artifact").unwrap();
        artifact.save(&path).unwrap();
        assert_eq!(TemplateArtifact::load(&path).unwrap(), artifact);
        assert!(
            !tmp_sibling(&path).exists(),
            "staging file must not outlive the save"
        );
        // A stale .tmp from a hypothetical crash is simply overwritten by the next save.
        std::fs::write(tmp_sibling(&path), "torn").unwrap();
        artifact.save(&path).unwrap();
        assert!(!tmp_sibling(&path).exists());
        assert_eq!(TemplateArtifact::load(&path).unwrap(), artifact);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sibling_appends_to_the_file_name() {
        assert_eq!(
            tmp_sibling(Path::new("/a/b/templates.json")),
            Path::new("/a/b/templates.json.tmp")
        );
        assert_eq!(tmp_sibling(Path::new("t.json")), Path::new("t.json.tmp"));
    }

    #[test]
    fn truncated_document_is_an_artifact_error_not_a_panic() {
        let artifact =
            TemplateArtifact::new(sample_templates(), 10, MatchingBackend::Fused).unwrap();
        let json = artifact.to_json();
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            TemplateArtifact::from_json(truncated),
            Err(Error::Artifact(_))
        ));
    }
}
