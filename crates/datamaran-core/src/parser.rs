//! LL(1)-style matching of structure templates against the dataset (§3.3 Remark, §4.4).
//!
//! Under Assumption 3 a structure template is an LL(1) grammar once its own character set is
//! known: a field value is the maximal non-empty run of non-formatting characters, a literal
//! matches itself, and an array decides "continue vs. stop" by looking at the single next
//! character (separator vs. terminator, which are required to differ).
//!
//! The extraction pass walks the dataset line by line.  At each line it tries to match one of
//! the given structure templates starting at the line's first byte; on success the matched
//! block becomes an instantiated record and the walk resumes at the line following the
//! record, otherwise the line is a noise block.
//!
//! This module holds the materialized result types every extractor returns
//! ([`ParseResult`], [`RecordMatch`], [`FieldCell`]) and the recursive-descent tree walker
//! [`parse_dataset`].  The walker is the test reference the span engine ([`crate::extract`])
//! is compared against; the pipeline never runs it.  It still builds the original walker's
//! instantiation tree per record as private detail, and at its boundary flattens the tree's
//! array repetition counts into pre-order `reps` next to the field cells it collects while
//! matching — the record shape the engine computes on.

use crate::chars::CharSet;
use crate::dataset::Dataset;
use crate::structure::{Node, StructureTemplate};

/// One extracted field occurrence: which template column it instantiates and where its value
/// lives in the dataset text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldCell {
    /// Index of the field leaf in the template (pre-order numbering).
    pub column: usize,
    /// Byte offset of the value's first character.
    pub start: usize,
    /// Byte offset one past the value's last character.
    pub end: usize,
}

/// A matched (instantiated) record.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordMatch {
    /// Which of the supplied templates matched.
    pub template_index: usize,
    /// Byte span `[start, end)` of the record in the dataset text.
    pub byte_span: (usize, usize),
    /// Line span `[first, last)` of the record.
    pub line_span: (usize, usize),
    /// Repetition count of every array instance, in pre-order by occurrence in match order
    /// (an array's count precedes the counts of the arrays inside its repetitions) — the
    /// layout of [`SpanParse::reps`](crate::extract::SpanParse::reps).  With the template
    /// and [`Self::fields`] it determines the record's instantiation tree.
    pub reps: Vec<u32>,
    /// All field cells of the record, flattened in match order.
    pub fields: Vec<FieldCell>,
}

impl RecordMatch {
    /// Number of lines the record spans.
    pub fn line_count(&self) -> usize {
        self.line_span.1 - self.line_span.0
    }

    /// Length of the record in bytes.
    pub fn byte_len(&self) -> usize {
        self.byte_span.1 - self.byte_span.0
    }
}

/// Segmentation of a dataset into records of the supplied templates and noise lines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParseResult {
    /// Matched records in document order.
    pub records: Vec<RecordMatch>,
    /// Indices of lines that belong to no record.
    pub noise_lines: Vec<usize>,
    /// Total bytes covered by records.
    pub record_bytes: usize,
    /// Total bytes covered by noise lines.
    pub noise_bytes: usize,
}

impl ParseResult {
    /// Total number of blocks (records plus noise lines) — the `m` of the MDL formula.
    pub fn block_count(&self) -> usize {
        self.records.len() + self.noise_lines.len()
    }

    /// Fraction of the dataset's bytes covered by records.
    pub fn record_coverage(&self, dataset_len: usize) -> f64 {
        if dataset_len == 0 {
            0.0
        } else {
            self.record_bytes as f64 / dataset_len as f64
        }
    }

    /// Collects, for records of `template_index`, the values of every column.
    /// Returns one vector of string slices per column (array columns accumulate one entry per
    /// repetition).
    pub fn column_values<'a>(
        &self,
        dataset: &'a Dataset,
        template_index: usize,
        n_columns: usize,
    ) -> Vec<Vec<&'a str>> {
        let mut columns: Vec<Vec<&'a str>> = vec![Vec::new(); n_columns];
        for rec in self
            .records
            .iter()
            .filter(|r| r.template_index == template_index)
        {
            for cell in &rec.fields {
                if cell.column < n_columns {
                    columns[cell.column].push(&dataset.text()[cell.start..cell.end]);
                }
            }
        }
        columns
    }

    /// The byte spans of maximal runs of consecutive noise lines (useful for re-running the
    /// pipeline on the residual of an interleaved dataset).
    pub fn noise_runs(&self, dataset: &Dataset) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut iter = self.noise_lines.iter().copied().peekable();
        while let Some(first) = iter.next() {
            let mut last = first;
            while let Some(&next) = iter.peek() {
                if next == last + 1 {
                    last = next;
                    iter.next();
                } else {
                    break;
                }
            }
            let (s, _) = dataset.line_span(first);
            let (_, e) = dataset.line_span(last);
            runs.push((s, e));
        }
        runs
    }
}

/// Pre-computed matching context for one structure template.
struct TemplateMatcher<'a> {
    template: &'a StructureTemplate,
    charset: CharSet,
}

impl<'a> TemplateMatcher<'a> {
    fn new(template: &'a StructureTemplate) -> Self {
        TemplateMatcher {
            template,
            charset: template.char_set(),
        }
    }
}

/// Attempts to match one record starting at line `line`.  Templates are tried in order; the
/// first that matches and ends on a line boundary within the span limit wins.
fn match_line(
    matchers: &[TemplateMatcher<'_>],
    max_line_span: usize,
    dataset: &Dataset,
    line: usize,
) -> Option<RecordMatch> {
    let text = dataset.text();
    let n = dataset.line_count();
    let start = dataset.line_start(line);
    for (idx, m) in matchers.iter().enumerate() {
        if m.template.is_empty() {
            continue;
        }
        if let Some((end, values, fields)) = match_template(text, start, m) {
            // The record must end exactly at a line boundary and respect the span limit.
            let end_line = line_of_offset(dataset, end, line);
            let ends_on_boundary = end == text.len()
                || end_line
                    .map(|l| dataset.line_start(l) == end)
                    .unwrap_or(false);
            let line_span_end = end_line.unwrap_or(n);
            if ends_on_boundary && line_span_end - line <= max_line_span && end > start {
                let mut reps = Vec::new();
                flatten_reps(&values, &mut reps);
                return Some(RecordMatch {
                    template_index: idx,
                    byte_span: (start, end),
                    line_span: (line, line_span_end),
                    reps,
                    fields,
                });
            }
        }
    }
    None
}

/// Matches the supplied templates against the dataset.  Templates are tried in order at every
/// line start; the first one that matches wins (the pipeline orders them by score).
pub fn parse_dataset(
    dataset: &Dataset,
    templates: &[StructureTemplate],
    max_line_span: usize,
) -> ParseResult {
    let matchers: Vec<TemplateMatcher<'_>> = templates.iter().map(TemplateMatcher::new).collect();
    let n = dataset.line_count();

    let mut result = ParseResult::default();
    let mut line = 0usize;
    while line < n {
        match match_line(&matchers, max_line_span, dataset, line) {
            Some(rec) => {
                result.record_bytes += rec.byte_len();
                line = rec.line_span.1;
                result.records.push(rec);
            }
            None => {
                let (s, e) = dataset.line_span(line);
                result.noise_bytes += e - s;
                result.noise_lines.push(line);
                line += 1;
            }
        }
    }
    result
}

/// Returns the line index whose start offset equals or follows `offset`, searching forward
/// from `hint`.  Returns `None` if `offset` is at or beyond the end of the text.
/// Shared with the span extraction engine ([`crate::extract`]), which applies the same
/// boundary and span-limit rules.
pub(crate) fn line_of_offset(dataset: &Dataset, offset: usize, hint: usize) -> Option<usize> {
    if offset >= dataset.len() {
        return None;
    }
    let mut line = hint;
    while line < dataset.line_count() && dataset.line_start(line) < offset {
        line += 1;
    }
    if line < dataset.line_count() {
        Some(line)
    } else {
        None
    }
}

/// The instantiation tree of one record: mirrors the structure template, with concrete spans
/// at the field leaves and one group per array repetition.  Private to the reference, which
/// builds the complete trees of the original walker (its timing is the baseline of the
/// extraction benchmark) and reads back only the repetition counts ([`flatten_reps`]).
#[allow(dead_code)]
enum ValueTree {
    Field {
        column: usize,
        start: usize,
        end: usize,
    },
    Literal,
    Array {
        array_id: usize,
        groups: Vec<Vec<ValueTree>>,
    },
}

/// Flattens instantiation trees into pre-order repetition counts ([`RecordMatch::reps`]).
fn flatten_reps(values: &[ValueTree], reps: &mut Vec<u32>) {
    for value in values {
        if let ValueTree::Array { groups, .. } = value {
            reps.push(groups.len() as u32);
            for group in groups {
                flatten_reps(group, reps);
            }
        }
    }
}

/// Attempts to match a full template at byte offset `start`.  Returns the end offset, the
/// instantiation trees and the flattened field cells.
fn match_template(
    text: &str,
    start: usize,
    matcher: &TemplateMatcher<'_>,
) -> Option<(usize, Vec<ValueTree>, Vec<FieldCell>)> {
    let mut pos = start;
    let mut fields = Vec::new();
    let mut values = Vec::new();
    let mut column = 0usize;
    let mut array_id = 0usize;
    for node in matcher.template.nodes() {
        let v = match_node(
            text,
            &mut pos,
            node,
            &matcher.charset,
            &mut column,
            &mut array_id,
            &mut fields,
        )?;
        values.push(v);
    }
    Some((pos, values, fields))
}

/// Matches a single node at `*pos`, advancing it on success.
fn match_node(
    text: &str,
    pos: &mut usize,
    node: &Node,
    charset: &CharSet,
    column: &mut usize,
    array_id: &mut usize,
    fields: &mut Vec<FieldCell>,
) -> Option<ValueTree> {
    match node {
        Node::Field => {
            let start = *pos;
            let end = scan_field(text, start, charset);
            if end == start {
                return None;
            }
            let cell = FieldCell {
                column: *column,
                start,
                end,
            };
            *column += 1;
            fields.push(cell);
            *pos = end;
            Some(ValueTree::Field {
                column: cell.column,
                start,
                end,
            })
        }
        Node::Literal(s) => {
            if text[*pos..].starts_with(s.as_str()) {
                *pos += s.len();
                Some(ValueTree::Literal)
            } else {
                None
            }
        }
        Node::Array {
            body,
            separator,
            terminator,
        } => {
            let my_id = *array_id;
            *array_id += 1;
            let body_columns_start = *column;
            let mut groups: Vec<Vec<ValueTree>> = Vec::new();
            loop {
                // Each repetition re-instantiates the same body columns.
                *column = body_columns_start;
                let mut group = Vec::new();
                let mut inner_array_id = *array_id;
                for b in body {
                    let v = match_node(text, pos, b, charset, column, &mut inner_array_id, fields)?;
                    group.push(v);
                }
                groups.push(group);
                // After the body, exactly one of separator / terminator must follow (LL(1)).
                let next = text[*pos..].chars().next()?;
                if next == *terminator {
                    *pos += terminator.len_utf8();
                    break;
                } else if next == *separator {
                    *pos += separator.len_utf8();
                } else {
                    return None;
                }
            }
            // Reserve column/array ids for the body so siblings after the array number
            // consistently regardless of the repetition count.
            *column = body_columns_start + body.iter().map(Node::field_count).sum::<usize>();
            *array_id += count_arrays(body);
            Some(ValueTree::Array {
                array_id: my_id,
                groups,
            })
        }
    }
}

/// Number of array nodes in a node sequence (recursively).
fn count_arrays(nodes: &[Node]) -> usize {
    nodes.iter().map(Node::array_count).sum()
}

/// Returns the end offset of the maximal run of non-formatting characters starting at `start`.
fn scan_field(text: &str, start: usize, charset: &CharSet) -> usize {
    let bytes = text.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        // Formatting characters are ASCII/Latin-1; multi-byte UTF-8 continuation is always
        // field content.
        let b = bytes[i];
        if b < 0x80 {
            if charset.contains(b as char) {
                break;
            }
            i += 1;
        } else {
            // Skip the whole UTF-8 code point.
            let ch = text[i..].chars().next().expect("valid utf-8");
            if charset.contains(ch) {
                break;
            }
            i += ch.len_utf8();
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn template(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn array_template(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        reduce(&RecordTemplate::from_instantiated(example, &cs))
    }

    #[test]
    fn matches_simple_single_line_records() {
        let data = Dataset::new("[01:05] alice\n[02:06] bob\nnoise here!!\n[03:07] carol\n");
        let st = template("[01:05] alice\n", "[]: \n");
        let result = parse_dataset(&data, &[st], 10);
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.noise_lines, vec![2]);
        assert_eq!(result.records[0].fields.len(), 3);
        assert_eq!(result.records[0].line_span, (0, 1));
    }

    #[test]
    fn extracts_field_values_per_column() {
        let data = Dataset::new("[01:05] alice\n[02:06] bob\n");
        let st = template("[01:05] alice\n", "[]: \n");
        let result = parse_dataset(&data, std::slice::from_ref(&st), 10);
        let cols = result.column_values(&data, 0, st.field_count());
        assert_eq!(cols[0], vec!["01", "02"]);
        assert_eq!(cols[1], vec!["05", "06"]);
        assert_eq!(cols[2], vec!["alice", "bob"]);
    }

    #[test]
    fn matches_array_records_with_varying_lengths() {
        let data = Dataset::new("1,2,3\n4,5\n6,7,8,9\n");
        let st = array_template("1,2,3\n", ",\n");
        assert_eq!(st.to_string(), "(F,)*F\\n");
        let result = parse_dataset(&data, &[st], 10);
        // "4,5\n" also matches (F,)*F\n with a single repetition plus the trailing element.
        assert_eq!(result.records.len(), 3);
        assert!(result.noise_lines.is_empty());
        let reps: Vec<Vec<u32>> = result.records.iter().map(|r| r.reps.clone()).collect();
        assert_eq!(reps, vec![vec![3], vec![2], vec![4]]);
    }

    #[test]
    fn array_columns_accumulate_all_repetition_values() {
        let data = Dataset::new("1,2,3\n4,5\n");
        let st = array_template("1,2,3\n", ",\n");
        let result = parse_dataset(&data, std::slice::from_ref(&st), 10);
        let cols = result.column_values(&data, 0, st.field_count());
        assert_eq!(cols[0], vec!["1", "2", "3", "4", "5"]);
    }

    #[test]
    fn matches_multi_line_records_and_reports_span() {
        let data = Dataset::new("BEGIN 1\nvalue=10;ok\nBEGIN 2\nvalue=20;ok\n");
        let st = template("BEGIN 1\nvalue=10;ok\n", " =;\n");
        let result = parse_dataset(&data, &[st], 10);
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.records[0].line_span, (0, 2));
        assert_eq!(result.records[0].line_count(), 2);
        assert!(result.noise_lines.is_empty());
    }

    #[test]
    fn noise_between_records_is_isolated() {
        let data = Dataset::new("a=1\n### garbage ###\na=2\nmore garbage\na=3\n");
        let st = template("a=1\n", "=\n");
        let result = parse_dataset(&data, &[st], 10);
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.noise_lines, vec![1, 3]);
        assert!(result.record_bytes > 0);
        assert!(result.noise_bytes > 0);
        assert_eq!(result.block_count(), 5);
    }

    #[test]
    fn multiple_templates_label_interleaved_records() {
        let data = Dataset::new("A|1\nB;2;3\nA|4\nB;5;6\n");
        let a = template("A|1\n", "|\n");
        let b = template("B;2;3\n", ";\n");
        let result = parse_dataset(&data, &[a, b], 10);
        assert_eq!(result.records.len(), 4);
        let kinds: Vec<usize> = result.records.iter().map(|r| r.template_index).collect();
        assert_eq!(kinds, vec![0, 1, 0, 1]);
    }

    #[test]
    fn record_must_end_on_line_boundary() {
        // Template "F-F\n": the second line starts like a record but has trailing junk glued
        // after the newline would not exist; craft a case where the match would end mid-line.
        let data = Dataset::new("a-b\nc-d junk-x\n");
        let st = template("a-b\n", "-\n");
        let result = parse_dataset(&data, &[st], 10);
        // Second line: field "c" literal "-" then field would run to "d junk" then "-x\n"
        // leaves an unmatched suffix: the template needs F-F\n exactly, so matching consumes
        // "c-d junk-x\n"? No: field scan stops at '-', so it matches "c"-"d junk"... the
        // remaining "-x\n" does not match the template's "\n" literal, so the line is noise.
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.noise_lines, vec![1]);
    }

    #[test]
    fn span_limit_rejects_runaway_matches() {
        let data = Dataset::new("x:1\nx:2\nx:3\nx:4\n");
        // A template that is one key-value line; with max span 0 nothing can match.
        let st = template("x:1\n", ":\n");
        let result = parse_dataset(&data, &[st], 0);
        assert!(result.records.is_empty());
        assert_eq!(result.noise_lines.len(), 4);
    }

    #[test]
    fn noise_runs_group_consecutive_lines() {
        let data = Dataset::new("a=1\nnoise1\nnoise2\na=2\nnoise3\n");
        let st = template("a=1\n", "=\n");
        let result = parse_dataset(&data, &[st], 10);
        let runs = result.noise_runs(&data);
        assert_eq!(runs.len(), 2);
        assert_eq!(&data.text()[runs[0].0..runs[0].1], "noise1\nnoise2\n");
        assert_eq!(&data.text()[runs[1].0..runs[1].1], "noise3\n");
    }

    #[test]
    fn empty_template_never_matches() {
        let data = Dataset::new("a\nb\n");
        let st = StructureTemplate::new(vec![]);
        let result = parse_dataset(&data, &[st], 10);
        assert!(result.records.is_empty());
        assert_eq!(result.noise_lines.len(), 2);
    }

    #[test]
    fn record_coverage_fraction() {
        let data = Dataset::new("a=1\nnoise\na=2\n");
        let st = template("a=1\n", "=\n");
        let result = parse_dataset(&data, &[st], 10);
        let cov = result.record_coverage(data.len());
        assert!(cov > 0.5 && cov < 1.0);
    }
}
