//! Conversion of extracted records into relational form (§3.3, Figure 7).
//!
//! Two representations are produced:
//!
//! * a **normalized** set of tables: one root table per record type plus one child table per
//!   array node, linked by foreign keys (`parent_id`, `position`);
//! * a **denormalized** single table where array columns hold the concatenation of their
//!   repetition values.
//!
//! Both contain all of the extracted information and can be fed to downstream applications.
//!
//! Materialization is **zero-copy for extracted values**: a [`Cell`] holding an extracted
//! field is a byte span resolved against the dataset's shared text buffer
//! ([`Dataset::shared_text`](crate::dataset::Dataset::shared_text)); owned storage is used
//! only for synthesized cells — row ids, foreign keys, and denormalized multi-value
//! concatenations.  `String` conversion happens at the export/serialization boundary
//! ([`crate::export`]), never here.
//!
//! The normalized layout has one implementation: a private walk over a record's template
//! nodes, field cells and pre-order repetition counts, generic over a row writer.
//! [`to_relational`] writes the rows into [`Table`]s; the streaming
//! [`CsvSink`](crate::export::CsvSink) writes them straight out as CSV.

use crate::parser::{FieldCell, RecordMatch};
use crate::structure::{Node, StructureTemplate};
use std::convert::Infallible;
use std::sync::Arc;

/// One relational cell: either a span of the table's shared source buffer (extracted field
/// values — the common case, stored without copying) or owned text (synthesized values:
/// ids, foreign keys, position columns, denormalized concatenations).
#[derive(Clone, Debug)]
pub enum Cell {
    /// Byte span `[start, end)` into the table's shared source text.
    Span {
        /// Byte offset of the value's first character.
        start: usize,
        /// Byte offset one past the value's last character.
        end: usize,
    },
    /// Owned, synthesized text.
    Owned(String),
}

impl Cell {
    /// Resolves the cell against the source buffer it was built over.
    #[inline]
    pub fn resolve<'a>(&'a self, source: &'a str) -> &'a str {
        match self {
            Cell::Span { start, end } => &source[*start..*end],
            Cell::Owned(s) => s,
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Owned(s)
    }
}

/// A relational table.  Cell text resolves lazily against the shared source buffer; use
/// [`Table::cell`] / [`Table::row`] to read values and [`crate::export`] to serialize.
///
/// Equality compares *resolved* cell text (plus names and headers), so two tables are equal
/// exactly when their rendered contents are byte-identical — regardless of which cells are
/// spans and which are owned.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table name (derived from the record-type name and the array position).
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    source: Arc<str>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table whose span cells resolve against `source`.
    pub fn new(name: impl Into<String>, columns: Vec<String>, source: Arc<str>) -> Self {
        Table {
            name: name.into(),
            columns,
            source,
            rows: Vec::new(),
        }
    }

    /// Creates a table from fully owned string rows (tests, synthesized tables).
    pub fn from_strings(
        name: impl Into<String>,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table {
            name: name.into(),
            columns,
            source: Arc::from(""),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(Cell::Owned).collect())
                .collect(),
        }
    }

    /// Appends one row (cells must match the column count).
    pub fn push_row(&mut self, row: Vec<Cell>) {
        debug_assert_eq!(row.len(), self.columns.len(), "row width matches header");
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Resolved text of the cell at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &str {
        self.rows[row][col].resolve(&self.source)
    }

    /// Resolved cell texts of one row, in column order.
    pub fn row(&self, row: usize) -> impl Iterator<Item = &str> + '_ {
        self.rows[row].iter().map(move |c| c.resolve(&self.source))
    }

    /// The raw cells of one row (span/owned distinction preserved).
    pub fn row_cells(&self, row: usize) -> &[Cell] {
        &self.rows[row]
    }

    /// The shared source buffer span cells resolve against.
    pub fn source(&self) -> &str {
        &self.source
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.resolve(&self.source) == y.resolve(&other.source))
            })
    }
}

impl Eq for Table {}

/// The normalized relational output of one record type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationalOutput {
    /// The root table followed by one table per array node (pre-order).
    pub tables: Vec<Table>,
}

impl RelationalOutput {
    /// The root table (one row per record).
    pub fn root(&self) -> &Table {
        &self.tables[0]
    }
}

/// Schema information for one table derived from the template tree.  Crate-visible so the
/// streaming CSV sink ([`crate::export::CsvSink`]) names and heads its tables exactly like
/// the materializing converter below.
#[derive(Clone, Debug)]
pub(crate) struct SchemaTable {
    pub(crate) name: String,
    /// Global column ids (field-leaf indices) stored directly in this table.
    pub(crate) column_ids: Vec<usize>,
    /// Index of the parent table in the schema.
    pub(crate) parent: Option<usize>,
}

impl SchemaTable {
    /// The full header row: synthesized key columns followed by `field_{c}` data columns.
    /// Single source of truth for both the materialized tables and the streaming sinks.
    pub(crate) fn header(&self) -> Vec<String> {
        let mut columns = vec!["id".to_string()];
        if self.parent.is_some() {
            columns.push("parent_id".to_string());
            columns.push("position".to_string());
        }
        columns.extend(self.column_ids.iter().map(|c| format!("field_{c}")));
        columns
    }
}

/// Flattened schema of a structure template: the root table first, then one table per
/// array node in pre-order — so the table of array `a` (pre-order id) is `a + 1`, and a
/// table's data columns are the fields directly in its body, in order.
#[derive(Clone, Debug)]
pub(crate) struct Schema {
    pub(crate) tables: Vec<SchemaTable>,
    /// For every column id, the separator of the innermost enclosing array (if any);
    /// used when denormalizing.
    pub(crate) column_separator: Vec<Option<char>>,
    pub(crate) n_columns: usize,
}

/// Synthesizes the key columns (`id`, `parent_id`, `position`) of the normalized tables:
/// one running row counter per table.  The layout walk draws every row id from it; the
/// streaming export path keeps one for the whole stream (rows leave the process as soon
/// as they are written), so the counters **persist across chunk windows** — a record
/// emitted from window 17 continues the numbering started in window 0, which is what keeps
/// foreign keys correct on out-of-core streams.
#[derive(Clone, Debug, Default)]
pub struct RowIdSynth {
    next: Vec<usize>,
}

impl RowIdSynth {
    /// A synthesizer for `n_tables` tables, all counters at zero.
    pub fn new(n_tables: usize) -> Self {
        RowIdSynth {
            next: vec![0; n_tables],
        }
    }

    /// Takes the next row id of `table` (ids are dense, starting at 0).
    pub fn next_id(&mut self, table: usize) -> usize {
        let id = self.next[table];
        self.next[table] += 1;
        id
    }

    /// Number of rows synthesized so far for `table`.
    pub fn row_count(&self, table: usize) -> usize {
        self.next[table]
    }
}

pub(crate) fn build_schema(template: &StructureTemplate, type_name: &str) -> Schema {
    let mut schema = Schema {
        tables: vec![SchemaTable {
            name: type_name.to_string(),
            column_ids: Vec::new(),
            parent: None,
        }],
        column_separator: Vec::new(),
        n_columns: 0,
    };
    let mut column = 0usize;
    walk_schema(
        template.nodes(),
        0,
        None,
        type_name,
        &mut schema,
        &mut column,
    );
    schema.n_columns = column;
    schema
}

fn walk_schema(
    nodes: &[Node],
    table_idx: usize,
    enclosing_sep: Option<char>,
    type_name: &str,
    schema: &mut Schema,
    column: &mut usize,
) {
    for node in nodes {
        match node {
            Node::Field => {
                schema.tables[table_idx].column_ids.push(*column);
                schema.column_separator.push(enclosing_sep);
                *column += 1;
            }
            Node::Literal(_) => {}
            Node::Array {
                body, separator, ..
            } => {
                let child_idx = schema.tables.len();
                schema.tables.push(SchemaTable {
                    name: format!("{type_name}_array{}", child_idx - 1),
                    column_ids: Vec::new(),
                    parent: Some(table_idx),
                });
                walk_schema(body, child_idx, Some(*separator), type_name, schema, column);
            }
        }
    }
}

/// Where [`layout_record`] writes the rows of the normalized tables.  A row is opened with
/// its synthesized keys, receives its data cells left to right, and is closed before the
/// next row of the same table opens (rows of other tables may open and close in between).
pub(crate) trait RowWriter {
    /// What a failed write reports.
    type Error;
    /// Opens row `id` of `table`; a child-table row carries `(parent row id, position)`.
    fn open_row(
        &mut self,
        table: usize,
        id: usize,
        parent: Option<(usize, usize)>,
    ) -> Result<(), Self::Error>;
    /// Appends the next data cell to the open row of `table`.
    fn cell(&mut self, table: usize, cell: &FieldCell) -> Result<(), Self::Error>;
    /// Closes the open row of `table`.
    fn close_row(&mut self, table: usize) -> Result<(), Self::Error>;
}

/// Lays one record out as rows of the normalized tables of its template: one root row, and
/// for every array instance one child row per repetition, keyed to the enclosing row.
/// `cells` and `reps` are the record's match output ([`RecordMatch`] or a span-arena
/// slice); row ids come from `synth`.  The k-th field directly in a body fills the row's
/// k-th data column, and array `a` (pre-order) fills table `a + 1` — the [`Schema`] order.
pub(crate) fn layout_record<W: RowWriter + ?Sized>(
    nodes: &[Node],
    cells: &[FieldCell],
    reps: &[u32],
    synth: &mut RowIdSynth,
    out: &mut W,
) -> Result<(), W::Error> {
    let mut cells = cells.iter();
    let mut reps = reps.iter();
    let id = synth.next_id(0);
    out.open_row(0, id, None)?;
    layout_group(nodes, (0, id), &mut 1, &mut cells, &mut reps, synth, out)?;
    out.close_row(0)?;
    debug_assert!(cells.next().is_none(), "all cells consumed");
    debug_assert!(reps.next().is_none(), "all repetition counts consumed");
    Ok(())
}

/// Writes the cells of one open row (`row` = (table, id)) and the child rows of its
/// arrays.  `next_table` is the table of the next array node in pre-order; every
/// repetition of an array numbers its inner arrays from the same base.
fn layout_group<W: RowWriter + ?Sized>(
    nodes: &[Node],
    (table, id): (usize, usize),
    next_table: &mut usize,
    cells: &mut std::slice::Iter<'_, FieldCell>,
    reps: &mut std::slice::Iter<'_, u32>,
    synth: &mut RowIdSynth,
    out: &mut W,
) -> Result<(), W::Error> {
    for node in nodes {
        match node {
            Node::Field => {
                if let Some(cell) = cells.next() {
                    out.cell(table, cell)?;
                }
            }
            Node::Literal(_) => {}
            Node::Array { body, .. } => {
                let child = *next_table;
                *next_table += 1;
                for position in 0..reps.next().copied().unwrap_or(0) as usize {
                    let child_id = synth.next_id(child);
                    out.open_row(child, child_id, Some((id, position)))?;
                    let mut inner = *next_table;
                    layout_group(body, (child, child_id), &mut inner, cells, reps, synth, out)?;
                    out.close_row(child)?;
                }
                *next_table += body.iter().map(Node::array_count).sum::<usize>();
            }
        }
    }
    Ok(())
}

/// The materializing writer: rows are pushed at `open_row` (ids are row indices), so the
/// open row of a table is always its last.
impl RowWriter for [Table] {
    type Error = Infallible;

    fn open_row(
        &mut self,
        table: usize,
        id: usize,
        parent: Option<(usize, usize)>,
    ) -> Result<(), Infallible> {
        let t = &mut self[table];
        debug_assert_eq!(id, t.rows.len(), "ids are row indices");
        let mut row = Vec::with_capacity(t.columns.len());
        row.push(Cell::Owned(id.to_string()));
        if let Some((parent_id, position)) = parent {
            row.push(Cell::Owned(parent_id.to_string()));
            row.push(Cell::Owned(position.to_string()));
        }
        t.rows.push(row);
        Ok(())
    }

    fn cell(&mut self, table: usize, cell: &FieldCell) -> Result<(), Infallible> {
        if let Some(row) = self[table].rows.last_mut() {
            row.push(Cell::Span {
                start: cell.start,
                end: cell.end,
            });
        }
        Ok(())
    }

    fn close_row(&mut self, table: usize) -> Result<(), Infallible> {
        let t = &mut self[table];
        let width = t.columns.len();
        if let Some(row) = t.rows.last_mut() {
            row.resize(width, Cell::Owned(String::new()));
        }
        Ok(())
    }
}

/// Converts the records of one template into the normalized relational representation.
/// Extracted field cells are byte spans over `source` (zero-copy); only ids, foreign keys
/// and positions are synthesized as owned text.
pub fn to_relational(
    template: &StructureTemplate,
    source: &Arc<str>,
    records: &[&RecordMatch],
    type_name: &str,
) -> RelationalOutput {
    let schema = build_schema(template, type_name);

    // Materialize empty tables with their headers.
    let mut tables: Vec<Table> = schema
        .tables
        .iter()
        .map(|t| Table::new(t.name.clone(), t.header(), Arc::clone(source)))
        .collect();

    let mut synth = RowIdSynth::new(tables.len());
    for record in records {
        let Ok(()) = layout_record(
            template.nodes(),
            &record.fields,
            &record.reps,
            &mut synth,
            tables.as_mut_slice(),
        );
    }

    RelationalOutput { tables }
}

/// Converts the records of one template into a single denormalized table: one row per record,
/// one column per field leaf; array columns concatenate their repetition values with the
/// array's separator character.  Scalar columns (one value per record) stay span-backed;
/// only genuine multi-value concatenations allocate.
pub fn to_denormalized(
    template: &StructureTemplate,
    source: &Arc<str>,
    records: &[&RecordMatch],
    type_name: &str,
) -> Table {
    let schema = build_schema(template, type_name);
    let n = schema.n_columns;
    let columns: Vec<String> = (0..n).map(|c| format!("field_{c}")).collect();
    let mut table = Table::new(
        format!("{type_name}_denormalized"),
        columns,
        Arc::clone(source),
    );
    let text: &str = source;
    for record in records {
        let mut cells: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for cell in &record.fields {
            if cell.column < n {
                cells[cell.column].push((cell.start, cell.end));
            }
        }
        let row: Vec<Cell> = cells
            .into_iter()
            .enumerate()
            .map(|(c, spans)| match spans.as_slice() {
                [] => Cell::Owned(String::new()),
                [(start, end)] => Cell::Span {
                    start: *start,
                    end: *end,
                },
                many => {
                    let sep = schema
                        .column_separator
                        .get(c)
                        .copied()
                        .flatten()
                        .unwrap_or(',');
                    let mut joined = String::new();
                    for (i, (start, end)) in many.iter().enumerate() {
                        if i > 0 {
                            joined.push(sep);
                        }
                        joined.push_str(&text[*start..*end]);
                    }
                    Cell::Owned(joined)
                }
            })
            .collect();
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::dataset::Dataset;
    use crate::extract::SpanLineMatcher;
    use crate::parser::ParseResult;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn parse(data: &Dataset, template: &StructureTemplate) -> ParseResult {
        SpanLineMatcher::new(std::slice::from_ref(template), 10)
            .parse(data, 1)
            .to_parse_result()
    }

    fn row_strings(table: &Table, row: usize) -> Vec<String> {
        table.row(row).map(str::to_string).collect()
    }

    #[test]
    fn flat_template_produces_single_table() {
        let data = Dataset::new("[01:05] alice\n[02:06] bob\n");
        let st = flat("[01:05] alice\n", "[]: \n");
        let parse = parse(&data, &st);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let rel = to_relational(&st, &data.shared_text(), &recs, "log");
        assert_eq!(rel.tables.len(), 1);
        let root = rel.root();
        assert_eq!(root.columns, vec!["id", "field_0", "field_1", "field_2"]);
        assert_eq!(root.row_count(), 2);
        assert_eq!(
            row_strings(root, 0)[1..],
            ["01", "05", "alice"].map(String::from)
        );
        assert_eq!(
            row_strings(root, 1)[1..],
            ["02", "06", "bob"].map(String::from)
        );
    }

    #[test]
    fn extracted_cells_are_spans_over_the_dataset_buffer() {
        let data = Dataset::new("[01:05] alice\n[02:06] bob\n");
        let st = flat("[01:05] alice\n", "[]: \n");
        let parse = parse(&data, &st);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let rel = to_relational(&st, &data.shared_text(), &recs, "log");
        let root = rel.root();
        // The id column is synthesized (owned); every extracted field is a span.
        assert!(matches!(root.row_cells(0)[0], Cell::Owned(_)));
        for cell in &root.row_cells(0)[1..] {
            assert!(matches!(cell, Cell::Span { .. }), "field cell is a span");
        }
        // Span cells resolve against the very same buffer the dataset owns.
        assert!(std::ptr::eq(root.source(), data.text()));
        let denorm = to_denormalized(&st, &data.shared_text(), &recs, "log");
        for cell in denorm.row_cells(0) {
            assert!(
                matches!(cell, Cell::Span { .. }),
                "scalar columns stay spans"
            );
        }
    }

    #[test]
    fn array_template_produces_child_table_with_foreign_keys() {
        let data = Dataset::new("1,2,3\n4,5\n");
        let cs = CharSet::from_chars(",\n".chars());
        let st = reduce(&RecordTemplate::from_instantiated("1,2,3\n", &cs));
        let parse = parse(&data, &st);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let rel = to_relational(&st, &data.shared_text(), &recs, "csv");
        assert_eq!(rel.tables.len(), 2);
        let root = rel.root();
        assert_eq!(root.row_count(), 2);
        let child = &rel.tables[1];
        assert_eq!(child.name, "csv_array0");
        assert_eq!(
            child.columns,
            vec!["id", "parent_id", "position", "field_0"]
        );
        assert_eq!(child.row_count(), 5);
        // Rows of the second record reference parent_id 1.
        let parents: Vec<&str> = (0..child.row_count()).map(|r| child.cell(r, 1)).collect();
        assert_eq!(parents, vec!["0", "0", "0", "1", "1"]);
        let values: Vec<&str> = (0..child.row_count()).map(|r| child.cell(r, 3)).collect();
        assert_eq!(values, vec!["1", "2", "3", "4", "5"]);
    }

    #[test]
    fn mixed_struct_and_array_template_splits_columns() {
        // F,"(F,)*F",F\n : fields before/after the quoted list live in the root table,
        // the list elements in the child table (Figure 7).
        let data = Dataset::new("a,\"x,y,z\",b\nc,\"p,q\",d\n");
        let cs = CharSet::from_chars(",\"\n".chars());
        let st = reduce(&RecordTemplate::from_instantiated("a,\"x,y,z\",b\n", &cs));
        let parse = parse(&data, &st);
        assert_eq!(parse.records.len(), 2);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let rel = to_relational(&st, &data.shared_text(), &recs, "rec");
        assert_eq!(rel.tables.len(), 2);
        let root = rel.root();
        assert_eq!(root.cell(0, 1), "a");
        assert!(row_strings(root, 0).contains(&"b".to_string()));
        let child = &rel.tables[1];
        let values: Vec<&str> = (0..child.row_count())
            .map(|r| child.cell(r, child.columns.len() - 1))
            .collect();
        assert_eq!(values, vec!["x", "y", "z", "p", "q"]);
    }

    /// Pins the normalized layout of a two-level nested array by value, through both
    /// writers of the layout walk: the materialized tables and the streaming CSV sink.
    #[test]
    fn nested_array_layout_is_pinned_by_value() {
        use crate::export::{table_to_csv, CsvSink, RecordSink};
        use crate::streaming::StreamRecord;

        let inner = Node::Array {
            body: vec![Node::Field],
            separator: ',',
            terminator: ';',
        };
        let st = StructureTemplate::new(vec![Node::Array {
            body: vec![Node::Field, Node::Literal(":".into()), inner],
            separator: ' ',
            terminator: '\n',
        }]);
        let data = Dataset::new("k0:a,b; k1:c;\nk2:d;\n");
        let span = SpanLineMatcher::new(std::slice::from_ref(&st), 10).parse(&data, 1);
        let expected = [
            ("type0", "id\n0\n1\n"),
            (
                "type0_array0",
                "id,parent_id,position,field_0\n0,0,0,k0\n1,0,1,k1\n2,1,0,k2\n",
            ),
            (
                "type0_array1",
                "id,parent_id,position,field_1\n0,0,0,a\n1,0,1,b\n2,1,0,c\n3,2,0,d\n",
            ),
        ]
        .map(|(name, csv)| (name.to_string(), csv.to_string()));

        let parse = span.to_parse_result();
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let rel = to_relational(&st, &data.shared_text(), &recs, "type0");
        let materialized: Vec<(String, String)> = rel
            .tables
            .iter()
            .map(|t| (t.name.clone(), table_to_csv(t)))
            .collect();
        assert_eq!(materialized, expected);

        let mut sink = CsvSink::new(|_: &str| Ok(Vec::<u8>::new()));
        sink.begin(std::slice::from_ref(&st)).unwrap();
        for rec in &span.records {
            sink.record(&StreamRecord {
                template_index: rec.template_index as usize,
                line_span: rec.line_span,
                window: data.text(),
                cells: span.record_cells(rec),
                reps: span.record_reps(rec),
            })
            .unwrap();
        }
        let streamed: Vec<(String, String)> = sink
            .into_writers()
            .into_iter()
            .map(|(name, bytes)| (name, String::from_utf8(bytes).unwrap()))
            .collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn denormalized_table_joins_array_values_with_separator() {
        let data = Dataset::new("1,2,3\n4,5\n");
        let cs = CharSet::from_chars(",\n".chars());
        let st = reduce(&RecordTemplate::from_instantiated("1,2,3\n", &cs));
        let parse = parse(&data, &st);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let table = to_denormalized(&st, &data.shared_text(), &recs, "csv");
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.cell(0, 0), "1,2,3");
        assert_eq!(table.cell(1, 0), "4,5");
    }

    #[test]
    fn denormalized_flat_template_is_one_row_per_record() {
        let data = Dataset::new("k=v\nk2=v2\n");
        let st = flat("k=v\n", "=\n");
        let parse = parse(&data, &st);
        let recs: Vec<&RecordMatch> = parse.records.iter().collect();
        let table = to_denormalized(&st, &data.shared_text(), &recs, "kv");
        assert_eq!(table.columns, vec!["field_0", "field_1"]);
        assert_eq!(row_strings(&table, 0), vec!["k", "v"]);
        assert_eq!(row_strings(&table, 1), vec!["k2", "v2"]);
    }

    #[test]
    fn table_helpers_work() {
        let t = Table::from_strings(
            "t",
            vec!["id".into(), "x".into()],
            vec![vec!["0".into(), "a".into()]],
        );
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.column_index("x"), Some(1));
        assert_eq!(t.column_index("missing"), None);
        assert_eq!(t.cell(0, 1), "a");
    }

    #[test]
    fn equality_compares_resolved_text_across_cell_kinds() {
        let source: Arc<str> = Arc::from("hello world");
        let mut spans = Table::new("t", vec!["x".into()], Arc::clone(&source));
        spans.push_row(vec![Cell::Span { start: 0, end: 5 }]);
        let owned = Table::from_strings("t", vec!["x".into()], vec![vec!["hello".into()]]);
        assert_eq!(spans, owned);
        let other = Table::from_strings("t", vec!["x".into()], vec![vec!["world".into()]]);
        assert_ne!(spans, other);
    }

    #[test]
    fn row_id_synth_continues_numbering_across_batches() {
        let mut synth = RowIdSynth::new(2);
        assert_eq!(synth.next_id(0), 0);
        assert_eq!(synth.next_id(1), 0);
        assert_eq!(synth.next_id(0), 1);
        // A later chunk window continues the numbering instead of restarting it.
        assert_eq!(synth.next_id(0), 2);
        assert_eq!(synth.row_count(0), 3);
        assert_eq!(synth.row_count(1), 1);
    }

    #[test]
    fn empty_record_set_produces_headers_only() {
        let st = flat("a=b\n", "=\n");
        let rel = to_relational(&st, &Arc::from(""), &[], "empty");
        assert_eq!(rel.root().row_count(), 0);
        assert_eq!(rel.root().columns.len(), 3);
    }
}
