//! Serving-layer correctness: concurrent readers never observe a torn template snapshot
//! while a writer hot-swaps the compiled set, and the versioned template artifact format
//! round-trips arbitrary discovered template sets losslessly — including documents older
//! builds saved under the retired `trial` matching backend.

use datamaran::core::{
    reduce, snapshot_from_artifact, CharSet, Datamaran, Dataset, JsonLinesSink, MatchingBackend,
    RecordTemplate, ServeOptions, ServeSession, SnapshotStore, SpanScratch, StructureTemplate,
    TemplateArtifact, TemplateSnapshot,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Extracts the template set a corpus discovers, as both the templates and their
/// canonical display strings (the identity the swap test checks against).
fn discover(engine: &Datamaran, text: &str) -> (Vec<StructureTemplate>, Vec<String>) {
    let result = engine.extract(text).expect("discovery succeeds");
    let templates: Vec<StructureTemplate> = result.templates().into_iter().cloned().collect();
    let canon = templates.iter().map(|t| t.to_string()).collect();
    (templates, canon)
}

/// Readers continuously resolve the current snapshot and match a line against it while a
/// writer hot-swaps between two compiled template sets as fast as it can.  Every observed
/// snapshot must be internally consistent: its template set is exactly one of the two
/// published sets (never a mix), and its compiled matcher matches the line that set was
/// discovered from — a torn read (templates from one set, matcher from the other, or a
/// half-published `Arc`) fails one of the two assertions.
#[test]
fn concurrent_readers_never_observe_a_torn_snapshot() {
    let corpus_a: String = (0..200)
        .map(|i| format!("host=h{};cpu={};mem={}\n", i % 12, i % 100, (i * 7) % 512))
        .collect();
    let corpus_b: String = (0..200)
        .map(|i| {
            format!(
                "[{:02}:{:02}] srv{} GET /p{}\n",
                i % 24,
                i % 60,
                i % 4,
                i % 7
            )
        })
        .collect();
    let line_a = "host=h1;cpu=42;mem=128\n";
    let line_b = "[12:30] srv2 GET /p3\n";

    let engine = Datamaran::with_defaults();
    let (templates_a, canon_a) = discover(&engine, &corpus_a);
    let (templates_b, canon_b) = discover(&engine, &corpus_b);
    assert_ne!(
        canon_a, canon_b,
        "the two formats must discover distinct sets"
    );

    let store = SnapshotStore::new(
        TemplateSnapshot::compile(1, templates_a.clone(), &engine).expect("compile set A"),
    );
    let done = AtomicBool::new(false);
    let observed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut cells = Vec::new();
                let mut reps = Vec::new();
                let mut scratch = SpanScratch::default();
                while !done.load(Ordering::Relaxed) {
                    let snapshot = store.current();
                    let canon: Vec<String> =
                        snapshot.templates().iter().map(|t| t.to_string()).collect();
                    let line = if canon == canon_a {
                        line_a
                    } else if canon == canon_b {
                        line_b
                    } else {
                        panic!("torn snapshot v{}: templates {canon:?}", snapshot.version());
                    };
                    let dataset = Dataset::new(line);
                    cells.clear();
                    reps.clear();
                    let matched = snapshot.matcher().match_line_into(
                        &dataset,
                        0,
                        &mut cells,
                        &mut reps,
                        &mut scratch,
                    );
                    assert!(
                        matched.is_some(),
                        "snapshot v{} does not match its own format's line",
                        snapshot.version()
                    );
                    observed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The writer alternates the published set as fast as it can compile it.
        for i in 0..60 {
            let templates = if i % 2 == 0 {
                templates_b.clone()
            } else {
                templates_a.clone()
            };
            let snapshot = TemplateSnapshot::compile(store.claim_version(), templates, &engine)
                .expect("recompile during swap");
            store.swap(std::sync::Arc::new(snapshot));
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(
        observed.load(Ordering::Relaxed) > 0,
        "readers never completed a single observation"
    );
    assert!(store.version() > 60, "swaps advanced the version counter");
}

/// Builds the [`StructureTemplate`] set discovery would produce for a batch of
/// single-line record formats — per-format field values joined by one separator.
fn templates_from(values_list: &[Vec<String>], sep: char) -> Vec<StructureTemplate> {
    values_list
        .iter()
        .map(|values| {
            let line = format!("{}\n", values.join(&sep.to_string()));
            let charset = CharSet::from_chars([sep, '\n']);
            reduce(&RecordTemplate::from_instantiated(&line, &charset))
        })
        .collect()
}

/// Strategy producing a separator character a template's charset can carry.
fn separator() -> impl Strategy<Value = char> {
    prop_oneof![Just(','), Just(';'), Just('|'), Just(':'), Just(' ')]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The artifact format is lossless: serialize → parse preserves every template's
    /// canonical form, the matcher metadata, and the content checksum; the document records
    /// the `fused` matching backend older builds require.
    #[test]
    fn artifact_json_round_trip_is_lossless(
        values_list in prop::collection::vec(prop::collection::vec("[a-zA-Z0-9]{1,10}", 1..7), 1..6),
        sep in separator(),
        max_line_span in 1usize..16,
    ) {
        let artifact = TemplateArtifact::new(
            templates_from(&values_list, sep),
            max_line_span,
            MatchingBackend::Fused,
        )
        .expect("artifact from generated templates");
        let json = artifact.to_json();
        prop_assert!(json.contains("\"matching_backend\": \"fused\""));
        let parsed = TemplateArtifact::from_json(&json)
            .expect("round trip through the wire format");
        let canon = |a: &TemplateArtifact| -> Vec<String> {
            a.templates.iter().map(|t| t.to_string()).collect()
        };
        prop_assert_eq!(canon(&parsed), canon(&artifact));
        prop_assert_eq!(parsed.max_line_span, artifact.max_line_span);
        prop_assert_eq!(parsed.checksum(), artifact.checksum());
    }

    /// Tampering with the serialized body is caught by the checksum, and documents from a
    /// future format version are rejected rather than misread.
    #[test]
    fn artifact_rejects_corruption_and_future_versions(
        values_list in prop::collection::vec(prop::collection::vec("[a-zA-Z0-9]{1,10}", 1..7), 1..4),
        sep in separator(),
    ) {
        let artifact = TemplateArtifact::new(templates_from(&values_list, sep), 8, MatchingBackend::Fused)
            .expect("artifact from generated templates");
        let json = artifact.to_json();

        let forged = json.replacen("\"version\": 1", "\"version\": 999", 1);
        prop_assert_ne!(&forged, &json);
        prop_assert!(TemplateArtifact::from_json(&forged).is_err());

        // Flip the checksum field: the body no longer hashes to it.
        let checksum = format!("{:016x}", artifact.checksum());
        let flipped: String = checksum
            .chars()
            .map(|c| if c == '0' { '1' } else { '0' })
            .collect();
        let corrupted = json.replacen(&checksum, &flipped, 1);
        prop_assert_ne!(&corrupted, &json);
        prop_assert!(TemplateArtifact::from_json(&corrupted).is_err());
    }
}

/// A document an older build saved with `"matching_backend": "trial"`; its checksum covers
/// that name.
const TRIAL_ARTIFACT: &str = r#"{
  "format": "datamaran-templates",
  "version": 1,
  "checksum": "7dbcca719ab3a513",
  "max_line_span": 10,
  "matching_backend": "trial",
  "templates": [
    {
      "nodes": [
        {
          "literal": "["
        },
        "field",
        {
          "literal": ":"
        },
        "field",
        {
          "literal": "] "
        },
        "field",
        {
          "literal": " "
        },
        "field",
        {
          "literal": "\n"
        }
      ],
      "display": "[F:F] F F\\n",
      "field_count": 4,
      "array_count": 0
    },
    {
      "nodes": [
        "field",
        {
          "literal": ";"
        },
        "field",
        {
          "literal": ";"
        },
        "field",
        {
          "literal": ";\n"
        }
      ],
      "display": "F;F;F;\\n",
      "field_count": 3,
      "array_count": 0
    }
  ]
}"#;

/// Serves `text` line by line through a monitor-only session on the artifact's snapshot,
/// returning the JSON Lines bytes it emitted.
fn serve(artifact: &TemplateArtifact, text: &str) -> Vec<u8> {
    let engine = Datamaran::with_defaults();
    let store = SnapshotStore::new(snapshot_from_artifact(artifact));
    let options = ServeOptions::default().with_rediscover(false);
    let mut session = ServeSession::new(&engine, &store, options).expect("session starts");
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    for line in text.split_inclusive('\n') {
        session.push_line(line, &mut sink).expect("line is served");
    }
    session.finish(&mut sink).expect("session drains");
    sink.into_writer()
}

/// Artifacts older builds saved under the `trial` matching backend still load, verify and
/// serve the same records as the same set saved today; re-saving records `fused`.
#[test]
fn artifact_saved_with_trial_matching_still_loads_and_serves() {
    let loaded = TemplateArtifact::from_json(TRIAL_ARTIFACT).expect("trial artifact loads");
    let charset = |chars: &str| CharSet::from_chars(chars.chars());
    let templates = vec![
        reduce(&RecordTemplate::from_instantiated(
            "[00:01] host1 ok\n",
            &charset("[:] \n"),
        )),
        reduce(&RecordTemplate::from_instantiated(
            "1;2;3;\n",
            &charset(";\n"),
        )),
    ];
    assert_eq!(loaded.templates, templates);
    assert_eq!(loaded.max_line_span, 10);
    let fused = TemplateArtifact::new(templates, 10, MatchingBackend::Fused).unwrap();
    assert_eq!(loaded, fused);
    assert!(loaded.to_json().contains("\"matching_backend\": \"fused\""));

    let text: String = (0..300)
        .map(|i| match i % 3 {
            0 => format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 7),
            1 => format!("{i};{};{};\n", i % 13, i * 7 % 40),
            _ => "!! not a record !!\n".to_string(),
        })
        .collect();
    let served = serve(&loaded, &text);
    assert_eq!(
        served.iter().filter(|&&b| b == b'\n').count(),
        200,
        "two records in every three lines"
    );
    assert_eq!(served, serve(&fused, &text));
}
