//! Structure templates (Assumption 3): the restricted regular-expression trees that Datamaran
//! searches over.
//!
//! A structure template is either
//!
//! * an **Array**: `({body}x)*{body}y` where `body` is itself a structure template and `x`,
//!   `y` are two *different* formatting characters (separator and terminator), or
//! * a **Struct**: a sequence whose elements are field placeholders, literal strings of
//!   formatting characters, or nested structure templates.
//!
//! The top level of every template is a Struct.  This module defines the tree, its canonical
//! textual form (used as the hash-table key in the generation step), and the helpers the rest
//! of the pipeline needs (character set, field counts, minimal expansions).

use crate::chars::{display_char, CharSet};
use crate::record::{RecordTemplate, TemplateToken};
use crate::reduce::flat_nodes;
use std::fmt;

/// A node of a structure template.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A field placeholder (`F`).
    Field,
    /// A literal run of formatting characters.
    Literal(String),
    /// An array-type regular expression `({body}separator)*{body}terminator`.
    Array {
        /// The repeated body (a Struct-like sequence).
        body: Vec<Node>,
        /// The character separating repetitions.
        separator: char,
        /// The character terminating the array (must differ from `separator`).
        terminator: char,
    },
}

impl Node {
    /// Number of field placeholders in the subtree (arrays count their body once).
    pub fn field_count(&self) -> usize {
        match self {
            Node::Field => 1,
            Node::Literal(_) => 0,
            Node::Array { body, .. } => body.iter().map(Node::field_count).sum(),
        }
    }

    /// `true` if the subtree contains an array node.
    pub fn has_array(&self) -> bool {
        match self {
            Node::Array { .. } => true,
            Node::Field | Node::Literal(_) => false,
        }
    }

    /// Number of array nodes in the subtree (the node itself included when it is one).
    pub fn array_count(&self) -> usize {
        match self {
            Node::Field | Node::Literal(_) => 0,
            Node::Array { body, .. } => 1 + body.iter().map(Node::array_count).sum::<usize>(),
        }
    }

    fn collect_chars(&self, set: &mut CharSet) {
        match self {
            Node::Field => {}
            Node::Literal(s) => {
                for c in s.chars() {
                    set.insert(c);
                }
            }
            Node::Array {
                body,
                separator,
                terminator,
            } => {
                set.insert(*separator);
                set.insert(*terminator);
                for n in body {
                    n.collect_chars(set);
                }
            }
        }
    }

    fn push_canonical(&self, out: &mut String) {
        match self {
            Node::Field => out.push('\u{1}'),
            Node::Literal(s) => out.push_str(s),
            Node::Array {
                body,
                separator,
                terminator,
            } => {
                out.push('\u{2}');
                for n in body {
                    n.push_canonical(out);
                }
                out.push(*separator);
                out.push('\u{3}');
                out.push(*terminator);
            }
        }
    }

    fn push_display(&self, out: &mut String) {
        match self {
            Node::Field => out.push('F'),
            Node::Literal(s) => {
                for c in s.chars() {
                    out.push_str(&display_char(c));
                }
            }
            Node::Array {
                body,
                separator,
                terminator,
            } => {
                out.push('(');
                for n in body {
                    n.push_display(out);
                }
                out.push_str(&display_char(*separator));
                out.push_str(")*");
                for n in body {
                    n.push_display(out);
                }
                out.push_str(&display_char(*terminator));
            }
        }
    }

    /// Appends the minimal record-template expansion of the subtree (arrays expanded with zero
    /// `({body}x)` repetitions, i.e. `{body}y`).
    fn push_min_expansion(&self, out: &mut Vec<TemplateToken>) {
        match self {
            Node::Field => out.push(TemplateToken::Field),
            Node::Literal(s) => out.extend(s.chars().map(TemplateToken::Ch)),
            Node::Array {
                body, terminator, ..
            } => {
                for n in body {
                    n.push_min_expansion(out);
                }
                out.push(TemplateToken::Ch(*terminator));
            }
        }
    }

    /// Appends a record-template expansion with `reps` extra repetitions of each array body.
    fn push_expansion(&self, reps: usize, out: &mut Vec<TemplateToken>) {
        match self {
            Node::Field => out.push(TemplateToken::Field),
            Node::Literal(s) => out.extend(s.chars().map(TemplateToken::Ch)),
            Node::Array {
                body,
                separator,
                terminator,
            } => {
                for _ in 0..reps {
                    for n in body {
                        n.push_expansion(reps, out);
                    }
                    out.push(TemplateToken::Ch(*separator));
                }
                for n in body {
                    n.push_expansion(reps, out);
                }
                out.push(TemplateToken::Ch(*terminator));
            }
        }
    }
}

/// A structure template: the top-level Struct sequence of [`Node`]s.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct StructureTemplate {
    nodes: Vec<Node>,
}

impl StructureTemplate {
    /// Builds a structure template from a node sequence.
    pub fn new(nodes: Vec<Node>) -> Self {
        StructureTemplate { nodes }
    }

    /// Builds a flat (array-free) structure template directly from a record template.
    pub fn from_record_template(rt: &RecordTemplate) -> Self {
        StructureTemplate {
            nodes: flat_nodes(rt.tokens()),
        }
    }

    /// The top-level node sequence.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to the top-level node sequence (used by the refinement step).
    pub fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }

    /// `true` if the template has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of field placeholders (the number of columns of the denormalized output).
    pub fn field_count(&self) -> usize {
        self.nodes.iter().map(Node::field_count).sum()
    }

    /// `true` if the template contains at least one array node.
    pub fn has_array(&self) -> bool {
        self.nodes.iter().any(Node::has_array)
    }

    /// Number of array nodes in the template (pre-order count; one child table each in the
    /// normalized relational output).
    pub fn array_count(&self) -> usize {
        self.nodes.iter().map(Node::array_count).sum()
    }

    /// The set of formatting characters used anywhere in the template (its `RT-CharSet`).
    pub fn char_set(&self) -> CharSet {
        let mut set = CharSet::new();
        for n in &self.nodes {
            n.collect_chars(&mut set);
        }
        set
    }

    /// A canonical, injective string form used as the hash-table key during generation.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            n.push_canonical(&mut out);
        }
        out
    }

    /// The minimal record template generated by this structure template (every array expanded
    /// with a single body occurrence followed by its terminator).
    pub fn min_expansion(&self) -> RecordTemplate {
        let mut tokens = Vec::new();
        for n in &self.nodes {
            n.push_min_expansion(&mut tokens);
        }
        RecordTemplate::from_tokens(tokens)
    }

    /// A record template generated by this structure template where every array has
    /// `reps + 1` body occurrences.  Useful for tests and property checks.
    pub fn expansion(&self, reps: usize) -> RecordTemplate {
        let mut tokens = Vec::new();
        for n in &self.nodes {
            n.push_expansion(reps, &mut tokens);
        }
        RecordTemplate::from_tokens(tokens)
    }

    /// Number of `\n` characters in the minimal expansion — i.e. the minimum number of lines a
    /// record of this template spans.
    pub fn min_line_span(&self) -> usize {
        self.min_expansion()
            .tokens()
            .iter()
            .filter(|t| matches!(t, TemplateToken::Ch('\n')))
            .count()
    }

    /// Total number of characters needed to write the template down (the `len(ST)` term of the
    /// MDL score).  Fields and formatting characters count 1; array brackets count 3.
    pub fn description_chars(&self) -> usize {
        fn node_len(n: &Node) -> usize {
            match n {
                Node::Field => 1,
                Node::Literal(s) => s.chars().count(),
                Node::Array { body, .. } => 3 + 2 + body.iter().map(node_len).sum::<usize>(),
            }
        }
        self.nodes.iter().map(node_len).sum()
    }
}

impl fmt::Display for StructureTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        for n in &self.nodes {
            n.push_display(&mut out);
        }
        write!(f, "{out}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;

    fn csv_array() -> StructureTemplate {
        // (F,)*F\n
        StructureTemplate::new(vec![Node::Array {
            body: vec![Node::Field],
            separator: ',',
            terminator: '\n',
        }])
    }

    #[test]
    fn display_of_struct_template() {
        let rt = RecordTemplate::from_instantiated(
            "[01:05] x\n",
            &CharSet::from_chars("[]: \n".chars()),
        );
        let st = StructureTemplate::from_record_template(&rt);
        assert_eq!(st.to_string(), "[F:F] F\\n");
        assert_eq!(st.field_count(), 3);
        assert!(!st.has_array());
    }

    #[test]
    fn display_of_array_template() {
        assert_eq!(csv_array().to_string(), "(F,)*F\\n");
        assert!(csv_array().has_array());
        assert_eq!(csv_array().field_count(), 1);
    }

    #[test]
    fn char_set_includes_separator_and_terminator() {
        let set = csv_array().char_set();
        assert!(set.contains(','));
        assert!(set.contains('\n'));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn min_expansion_of_array_is_single_element() {
        let rt = csv_array().min_expansion();
        assert_eq!(rt.to_string(), "F\\n");
    }

    #[test]
    fn expansion_with_repetitions() {
        let rt = csv_array().expansion(2);
        assert_eq!(rt.to_string(), "F,F,F\\n");
    }

    #[test]
    fn min_line_span_counts_newlines() {
        let rt =
            RecordTemplate::from_instantiated("a: 1\nb: 2\n", &CharSet::from_chars(": \n".chars()));
        let st = StructureTemplate::from_record_template(&rt);
        assert_eq!(st.min_line_span(), 2);
    }

    #[test]
    fn canonical_string_distinguishes_struct_from_array() {
        let rt = RecordTemplate::from_instantiated("a,b\n", &CharSet::from_chars(",\n".chars()));
        let flat = StructureTemplate::from_record_template(&rt);
        assert_ne!(flat.canonical_string(), csv_array().canonical_string());
    }

    #[test]
    fn from_record_template_merges_adjacent_literals() {
        let rt =
            RecordTemplate::from_instantiated("a) (b\n", &CharSet::from_chars("() \n".chars()));
        let st = StructureTemplate::from_record_template(&rt);
        assert_eq!(st.nodes().len(), 4); // F, ") (", F, "\n"
        match &st.nodes()[1] {
            Node::Literal(s) => assert_eq!(s, ") ("),
            other => panic!("expected literal, got {other:?}"),
        }
    }

    #[test]
    fn description_chars_counts_template_size() {
        let rt = RecordTemplate::from_instantiated("a,b\n", &CharSet::from_chars(",\n".chars()));
        let flat = StructureTemplate::from_record_template(&rt);
        assert_eq!(flat.description_chars(), 4); // F , F \n
        assert_eq!(csv_array().description_chars(), 3 + 2 + 1);
    }

    #[test]
    fn equality_and_hash_follow_tree_structure() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(csv_array());
        assert!(set.contains(&csv_array()));
        let rt = RecordTemplate::from_instantiated("a,b\n", &CharSet::from_chars(",\n".chars()));
        set.insert(StructureTemplate::from_record_template(&rt));
        assert_eq!(set.len(), 2);
    }
}
