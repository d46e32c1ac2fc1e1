//! Invariant oracles shared by the integration suites.

use datamaran::core::{Node, ParseResult, StructureTemplate, ValueTree};

/// Rebuilds one record's text from its template `nodes` and instantiation tree: a field
/// renders its cell text, a literal itself, and an array its groups joined by the
/// separator, then the terminator.
fn render(nodes: &[Node], values: &[ValueTree], text: &str, out: &mut String) {
    assert_eq!(nodes.len(), values.len(), "one value per template node");
    for (node, value) in nodes.iter().zip(values) {
        match (node, value) {
            (Node::Field, ValueTree::Field { start, end, .. }) => out.push_str(&text[*start..*end]),
            (Node::Literal(literal), ValueTree::Literal) => out.push_str(literal),
            (
                Node::Array {
                    body,
                    separator,
                    terminator,
                },
                ValueTree::Array { groups, .. },
            ) => {
                for (i, group) in groups.iter().enumerate() {
                    if i > 0 {
                        out.push(*separator);
                    }
                    render(body, group, text, out);
                }
                out.push(*terminator);
            }
            (node, value) => panic!("{value:?} does not instantiate {node:?}"),
        }
    }
}

/// The round-trip invariant: every record of `parse` renders back to exactly
/// `text[byte_span]`.  Describes the first record that does not, if any.
pub fn round_trip_mismatch(
    parse: &ParseResult,
    templates: &[StructureTemplate],
    text: &str,
) -> Option<String> {
    let mut rendered = String::new();
    parse.records.iter().find_map(|rec| {
        rendered.clear();
        render(
            templates[rec.template_index].nodes(),
            &rec.values,
            text,
            &mut rendered,
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
