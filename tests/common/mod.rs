//! Invariant oracles shared by the integration suites.  Each suite uses a subset.
#![allow(dead_code)]

use datamaran::core::{FieldCell, Node, ParseResult, StructureTemplate};

/// Rebuilds one record's text from its template `nodes`, its field `cells` (offsets into
/// `text`) and its pre-order repetition counts `reps`: a field renders its cell text, a
/// literal itself, and an array its repetitions joined by the separator, then the
/// terminator.  Panics if the cells or counts do not fit the template exactly.
pub fn render(nodes: &[Node], cells: &[FieldCell], reps: &[u32], text: &str) -> String {
    fn walk(
        nodes: &[Node],
        cells: &mut std::slice::Iter<'_, FieldCell>,
        reps: &mut std::slice::Iter<'_, u32>,
        text: &str,
        out: &mut String,
    ) {
        for node in nodes {
            match node {
                Node::Field => {
                    let cell = cells.next().expect("one cell per field node");
                    out.push_str(&text[cell.start..cell.end]);
                }
                Node::Literal(literal) => out.push_str(literal),
                Node::Array {
                    body,
                    separator,
                    terminator,
                } => {
                    let count = *reps.next().expect("one count per array instance");
                    for i in 0..count {
                        if i > 0 {
                            out.push(*separator);
                        }
                        walk(body, cells, reps, text, out);
                    }
                    out.push(*terminator);
                }
            }
        }
    }
    let mut out = String::new();
    let (mut cells, mut reps) = (cells.iter(), reps.iter());
    walk(nodes, &mut cells, &mut reps, text, &mut out);
    assert!(cells.next().is_none(), "cells left over after {out:?}");
    assert!(
        reps.next().is_none(),
        "repetition counts left over after {out:?}"
    );
    out
}

/// The round-trip invariant: every record of `parse` renders back to exactly
/// `text[byte_span]`.  Describes the first record that does not, if any.
pub fn round_trip_mismatch(
    parse: &ParseResult,
    templates: &[StructureTemplate],
    text: &str,
) -> Option<String> {
    parse.records.iter().find_map(|rec| {
        let rendered = render(
            templates[rec.template_index].nodes(),
            &rec.fields,
            &rec.reps,
            text,
        );
        let source = &text[rec.byte_span.0..rec.byte_span.1];
        (rendered != source).then(|| {
            format!(
                "record at lines {:?} renders {rendered:?}, source is {source:?}",
                rec.line_span
            )
        })
    })
}
