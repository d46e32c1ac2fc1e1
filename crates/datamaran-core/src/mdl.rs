//! The default regularity score: minimum description length (Appendix 9.2, Algorithm 2).
//!
//! The regularity score function `F(T, S)` is pluggable in Datamaran; the implementation the
//! paper (and this crate) ships computes the total number of bits needed to describe the
//! dataset given the structure template: the template itself, a record/noise indicator per
//! block, each noise block verbatim, and each record through the template with per-column
//! data types (enumerated / integer / real / string).  Lower is better.
//!
//! A record is described by two things only: its field values and the repetition count of
//! each of its array instances — exactly the cells and `reps` a parse stores per record.
//! Scorers therefore read the span engine's arenas ([`SpanParse`]) directly;
//! [`RegularityScorer::score_set`] charges the same terms over an owned [`ParseResult`],
//! which makes it the independent formula the arena passes are checked against.

use crate::dataset::Dataset;
use crate::extract::SpanParse;
use crate::fieldtype::{infer, parse_real, FieldType};
use crate::fxhash::FxHashSet;
use crate::parser::ParseResult;
use crate::structure::StructureTemplate;

/// Bits charged for describing the repetition count of one array instance.
pub(crate) const ARRAY_COUNT_BITS: f64 = 16.0;

/// Bits charged for the block-count header (the `32` of the formula in Appendix 9.2).
const HEADER_BITS: f64 = 32.0;

/// A pluggable regularity score function `F(T, S)`.
///
/// Scores are *description lengths*: lower values indicate more plausible structures.  Any
/// implementation can be plugged into the evaluation step, as stressed in §4 ("The design of
/// Datamaran is independent of the choice of this scoring function").
///
/// `Sync` is a supertrait because the evaluation step shards the per-candidate refinement
/// loop across scoped worker threads that share one scorer reference; every shipped scorer
/// is a zero-sized value, and custom scorers only need to avoid non-`Sync` interior state.
pub trait RegularityScorer: Sync {
    /// Scores a structure template against a dataset given the segmentation the span
    /// engine produced with it (records of template index 0, noise lines).  Lower is better.
    fn score(&self, dataset: &Dataset, template: &StructureTemplate, parse: &SpanParse) -> f64;

    /// [`RegularityScorer::score`] that additionally returns the scorer's per-column
    /// aggregates ([`ScoreParts`]) for reuse by later delta evaluations.  `None` (the
    /// default) means the scorer keeps no reusable parts; the evaluation engine then scores
    /// every variant from scratch with [`RegularityScorer::score`].
    fn score_span_stats(
        &self,
        _dataset: &Dataset,
        _template: &StructureTemplate,
        _parse: &SpanParse,
    ) -> Option<(f64, ScoreParts)> {
        None
    }

    /// Incremental scoring of a refinement variant against its parent's retained
    /// [`ScoreParts`]: `reuse[c] == Some(p)` asserts variant column `c` has *exactly* the
    /// parent column `p`'s cell multiset (the delta parser proves this before calling), so
    /// its aggregate may be copied; `None` columns must be recomputed from `parse`.
    ///
    /// Implementations must return exactly the value [`RegularityScorer::score`] would
    /// return on `parse` (the bit-identity contract of delta scoring); returning `None`
    /// (the default) makes the engine fall back to a full scoring pass.
    fn score_span_delta(
        &self,
        _dataset: &Dataset,
        _template: &StructureTemplate,
        _parse: &SpanParse,
        _parent: &ScoreParts,
        _reuse: &[Option<u32>],
    ) -> Option<(f64, ScoreParts)> {
        None
    }

    /// Scores a *set* of structure templates (the structural component `S` of Problem 2)
    /// against a dataset, given a segmentation obtained by parsing with all of them.
    ///
    /// The pipeline uses this to compare complete multi-record-type solutions when handling
    /// interleaved datasets.  The default implementation charges every template's description,
    /// all noise verbatim, and every record through its own template.
    fn score_set(
        &self,
        dataset: &Dataset,
        templates: &[StructureTemplate],
        parse: &ParseResult,
    ) -> f64 {
        let mut bits = 32.0 + parse.block_count() as f64 + parse.noise_bytes as f64 * 8.0;
        for (idx, t) in templates.iter().enumerate() {
            bits += t.description_chars() as f64 * 8.0;
            bits += fields_bits(dataset, t, parse, idx);
        }
        bits
    }

    /// Human-readable name of the scorer (for reports).
    fn name(&self) -> &'static str {
        "scorer"
    }
}

/// Description length of all records of `template_index`: the per-column model parameters,
/// each cell's `bits_per_value` under its column's inferred type, and
/// [`ARRAY_COUNT_BITS`] per repetition count.  The owned-parse formula behind
/// [`RegularityScorer::score_set`], and the independent check of [`fields_bits_span_stats`].
fn fields_bits(
    dataset: &Dataset,
    template: &StructureTemplate,
    parse: &ParseResult,
    template_index: usize,
) -> f64 {
    let n_columns = template.field_count();
    let column_values = parse.column_values(dataset, template_index, n_columns);
    let types: Vec<FieldType> = column_values.iter().map(|vals| infer(vals)).collect();
    let mut bits = 0.0;
    for (t, vals) in types.iter().zip(&column_values) {
        bits += t.model_bits(vals);
    }
    let text = dataset.text();
    for rec in parse
        .records
        .iter()
        .filter(|r| r.template_index == template_index)
    {
        bits += ARRAY_COUNT_BITS * rec.reps.len() as f64;
        for cell in &rec.fields {
            let t = types.get(cell.column).unwrap_or(&FieldType::String);
            bits += t.bits_per_value(&text[cell.start..cell.end]);
        }
    }
    bits
}

/// Per-column MDL inference state, driven straight over the cell arena (no per-column
/// value vectors) — the unit of reuse of the delta scorer: a column whose cell multiset is
/// unchanged between a refinement variant and its parent has an *identical* `ColumnStats`,
/// so [`MdlScorer::score_span_delta`] clones it instead of re-scanning the column.
///
/// The fused accumulation passes are the exact-arithmetic equivalent of
/// `infer(vals)` + `FieldType::model_bits(vals)` + `Σ bits_per_value(v)` per column, minus
/// the tree path's redundancy: numeric columns parse once (the legacy pair parses them
/// twice) and the enum dictionary is built once in an Fx-hashed set (the legacy pair builds
/// two SipHash sets).  Hasher choice and pass structure cannot change the result: set
/// membership is hasher-independent, min/max/exp folds are order-independent, and every bit
/// term is an integer-valued `f64` summed far below 2^53.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    count: usize,
    int_ok: bool,
    imin: i64,
    imax: i64,
    real_ok: bool,
    rmin: f64,
    rmax: f64,
    exp: u32,
    dict_bits: f64,
    string_cost: f64,
    distinct: usize,
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats {
            count: 0,
            int_ok: true,
            imin: i64::MAX,
            imax: i64::MIN,
            real_ok: true,
            rmin: f64::INFINITY,
            rmax: f64::NEG_INFINITY,
            exp: 0,
            dict_bits: 0.0,
            string_cost: 0.0,
            distinct: 0,
        }
    }
}

/// The retainable by-product of one arena-native MDL scoring pass: one [`ColumnStats`] per
/// template column.  The refiner keeps the parts of the current refinement parent so that
/// variant evaluations can reuse the aggregates of structurally unchanged columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreParts {
    cols: Vec<ColumnStats>,
}

impl ScoreParts {
    /// Number of columns the parts were computed over.
    pub fn column_count(&self) -> usize {
        self.cols.len()
    }
}

/// Runs the fused inference passes over the cell arena, updating only the columns marked
/// `active` (inactive columns hold final aggregates reused from a parent evaluation and
/// must not be touched).  Restricting the passes to a column subset cannot change any
/// column's result — each column's aggregate depends only on its own cells.
fn accumulate_column_stats(
    text: &str,
    parse: &SpanParse,
    template_index: usize,
    n_columns: usize,
    active: &[bool],
    cols: &mut [ColumnStats],
) {
    let cells = || {
        parse
            .records
            .iter()
            .filter(move |r| r.template_index as usize == template_index)
            .flat_map(|r| parse.record_cells(r))
            .filter(|cell| cell.column < n_columns && active[cell.column])
    };

    // Pass 1: counts + integer attempt.
    for cell in cells() {
        let col = &mut cols[cell.column];
        col.count += 1;
        if col.int_ok {
            match parse_integer_single_scan(&text[cell.start..cell.end]) {
                Some(x) => {
                    col.imin = col.imin.min(x);
                    col.imax = col.imax.max(x);
                }
                None => col.int_ok = false,
            }
        }
    }
    // Pass 2 (only when some active column fell out of the integer type): real attempt.
    if cols.iter().zip(active).any(|(c, &a)| a && !c.int_ok) {
        for cell in cells() {
            let col = &mut cols[cell.column];
            if col.int_ok || !col.real_ok {
                continue;
            }
            match parse_real(&text[cell.start..cell.end]) {
                Some((x, e)) => {
                    col.rmin = col.rmin.min(x);
                    col.rmax = col.rmax.max(x);
                    col.exp = col.exp.max(e);
                }
                None => col.real_ok = false,
            }
        }
    }
    // Pass 3 (only when some active column is non-numeric): enum dictionary / string mass.
    if cols
        .iter()
        .zip(active)
        .any(|(c, &a)| a && !c.int_ok && !c.real_ok)
    {
        let mut sets: Vec<FxHashSet<&str>> = vec![FxHashSet::default(); n_columns];
        for cell in cells() {
            let col = &mut cols[cell.column];
            if col.int_ok || col.real_ok {
                continue;
            }
            let v = &text[cell.start..cell.end];
            let v_bits = (v.len() as f64 + 1.0) * 8.0;
            col.string_cost += v_bits;
            if sets[cell.column].insert(v) {
                col.dict_bits += v_bits;
                col.distinct += 1;
            }
        }
    }
}

/// Folds per-column aggregates plus the array-count term into the total field-description
/// length.  Column order is fixed (0..n) and every term is an integer-valued `f64`, so the
/// fold is bit-identical no matter how the aggregates were obtained (fresh scan or reuse).
fn fold_column_bits(cols: &[ColumnStats], array_instances: usize) -> f64 {
    let mut model = 0.0;
    let mut describe = 0.0;
    for col in cols {
        if col.count == 0 {
            // `infer` types an empty column as String (model: 8 bits, nothing to describe).
            model += 8.0;
            continue;
        }
        let count = col.count as f64;
        if col.int_ok {
            let t = FieldType::Integer {
                min: col.imin,
                max: col.imax,
            };
            model += t.model_bits(&[]);
            describe += t.bits_per_value("") * count;
        } else if col.real_ok {
            let t = FieldType::Real {
                min: col.rmin,
                max: col.rmax,
                exp: col.exp,
            };
            model += t.model_bits(&[]);
            describe += t.bits_per_value("") * count;
        } else {
            // Enumerated vs free text: the same total-description comparison as `infer`.
            let index_bits = (col.distinct.max(1) as f64).log2().ceil().max(1.0);
            let enum_cost = col.dict_bits + count * index_bits;
            if col.distinct < col.count && enum_cost < col.string_cost {
                // model_bits(Enumerated) is the dictionary; bits_per_value is the index.
                model += col.dict_bits;
                describe += index_bits * count;
            } else {
                // model_bits(String) is 8; each value is described character by character.
                model += 8.0;
                describe += col.string_cost;
            }
        }
    }
    model + ARRAY_COUNT_BITS * array_instances as f64 + describe
}

/// Total repetition-count slots of records of `template_index` (one [`ARRAY_COUNT_BITS`]
/// charge each).
fn array_instances(parse: &SpanParse, template_index: usize) -> usize {
    parse
        .records
        .iter()
        .filter(|r| r.template_index as usize == template_index)
        .map(|r| (r.rep_range.1 - r.rep_range.0) as usize)
        .sum()
}

/// Description length of all field values of records of `template_index`, computed directly
/// from the span arenas — the arena-native mirror of [`fields_bits`].
///
/// Every MDL term is an integer-valued `f64` (ceil'd logarithms, multiples of 8, the array
/// count constant), and every partial sum stays far below 2^53, so f64 addition is exact and
/// order-independent.  That lets the per-cell charges of [`fields_bits`] collapse into
/// per-column aggregates ([`ColumnStats`]), with the type inference, model and per-value
/// charges fused into single-parse passes over the cell arena — while returning the
/// *bit-identical* value (enforced by the evaluation differential suite).  Also returns
/// the per-column aggregates for later reuse.
fn fields_bits_span_stats(
    dataset: &Dataset,
    template: &StructureTemplate,
    parse: &SpanParse,
    template_index: usize,
) -> (f64, ScoreParts) {
    let n_columns = template.field_count();
    let mut cols = vec![ColumnStats::default(); n_columns];
    let active = vec![true; n_columns];
    accumulate_column_stats(
        dataset.text(),
        parse,
        template_index,
        n_columns,
        &active,
        &mut cols,
    );
    let bits = fold_column_bits(&cols, array_instances(parse, template_index));
    (bits, ScoreParts { cols })
}

/// The incremental counterpart of [`fields_bits_span_stats`]: variant columns mapped to an
/// unchanged parent column by `reuse` clone the parent's aggregate; only the remaining
/// (dirty) columns are scanned.  Bit-identical to the full pass because an unchanged
/// column's aggregate is value-identical and the fold is shared.
fn fields_bits_span_delta(
    dataset: &Dataset,
    template: &StructureTemplate,
    parse: &SpanParse,
    template_index: usize,
    parent: &ScoreParts,
    reuse: &[Option<u32>],
) -> Option<(f64, ScoreParts)> {
    let n_columns = template.field_count();
    if reuse.len() != n_columns {
        return None;
    }
    let mut cols = Vec::with_capacity(n_columns);
    let mut active = Vec::with_capacity(n_columns);
    for slot in reuse {
        match slot {
            Some(p) => {
                cols.push(parent.cols.get(*p as usize)?.clone());
                active.push(false);
            }
            None => {
                cols.push(ColumnStats::default());
                active.push(true);
            }
        }
    }
    accumulate_column_stats(
        dataset.text(),
        parse,
        template_index,
        n_columns,
        &active,
        &mut cols,
    );
    let bits = fold_column_bits(&cols, array_instances(parse, template_index));
    Some((bits, ScoreParts { cols }))
}

/// Single-scan equivalent of [`parse_integer`] for the span scoring hot loop.
///
/// [`parse_integer`] scans each value three times (digit check, then `str::parse` re-scans
/// with its own validation); this accumulates in one pass.  The result is identical for
/// every input: same trimming, same `-`-only sign handling (no `+`), same all-digit
/// requirement, and the same overflow envelope — accumulation is negative so `i64::MIN`
/// parses while `2^63` overflows to `None`, exactly like `str::parse::<i64>` (equivalence
/// is property-tested against the original).
fn parse_integer_single_scan(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    if body.is_empty() {
        return None;
    }
    let mut acc: i64 = 0;
    for b in body.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(i64::from(b - b'0'))?;
    }
    if neg {
        Some(acc)
    } else {
        acc.checked_neg()
    }
}

/// The minimum-description-length scorer of Appendix 9.2.
#[derive(Clone, Copy, Debug, Default)]
pub struct MdlScorer;

impl MdlScorer {
    /// Infers the per-column data types from the values a parse extracted.
    pub fn column_types(
        &self,
        dataset: &Dataset,
        template: &StructureTemplate,
        parse: &ParseResult,
        template_index: usize,
    ) -> Vec<FieldType> {
        let n_columns = template.field_count();
        parse
            .column_values(dataset, template_index, n_columns)
            .iter()
            .map(|vals| infer(vals))
            .collect()
    }
}

impl RegularityScorer for MdlScorer {
    fn score(&self, dataset: &Dataset, template: &StructureTemplate, parse: &SpanParse) -> f64 {
        // Template description plus per-block record/noise indicator.
        let mut bits = template.description_chars() as f64 * 8.0 + HEADER_BITS;
        bits += parse.block_count() as f64;

        // Noise blocks are described verbatim.
        bits += parse.noise_bytes as f64 * 8.0;

        // Records are described through the template, with per-column data types and model
        // parameters (enum dictionaries, numeric ranges).
        bits + fields_bits_span_stats(dataset, template, parse, 0).0
    }

    fn score_span_stats(
        &self,
        dataset: &Dataset,
        template: &StructureTemplate,
        parse: &SpanParse,
    ) -> Option<(f64, ScoreParts)> {
        let mut bits = template.description_chars() as f64 * 8.0 + HEADER_BITS;
        bits += parse.block_count() as f64;
        bits += parse.noise_bytes as f64 * 8.0;
        let (fields, parts) = fields_bits_span_stats(dataset, template, parse, 0);
        Some((bits + fields, parts))
    }

    fn score_span_delta(
        &self,
        dataset: &Dataset,
        template: &StructureTemplate,
        parse: &SpanParse,
        parent: &ScoreParts,
        reuse: &[Option<u32>],
    ) -> Option<(f64, ScoreParts)> {
        // The template / block-count / noise terms are cheap and read from the actual delta
        // parse; only the per-column field aggregation is incremental.
        let mut bits = template.description_chars() as f64 * 8.0 + HEADER_BITS;
        bits += parse.block_count() as f64;
        bits += parse.noise_bytes as f64 * 8.0;
        let (fields, parts) = fields_bits_span_delta(dataset, template, parse, 0, parent, reuse)?;
        Some((bits + fields, parts))
    }

    fn name(&self) -> &'static str {
        "mdl"
    }
}

/// A trivial scorer that only rewards record coverage (used in tests and as an example of the
/// pluggable-score design).  Lower is better, so it returns the number of uncovered bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverageScorer;

impl RegularityScorer for CoverageScorer {
    fn score(&self, dataset: &Dataset, _template: &StructureTemplate, parse: &SpanParse) -> f64 {
        (dataset.len() - parse.record_bytes.min(dataset.len())) as f64
    }

    fn name(&self) -> &'static str {
        "coverage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::extract::SpanLineMatcher;
    use crate::fieldtype::parse_integer;
    use crate::parser::parse_dataset;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn template(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn span(dataset: &Dataset, st: &StructureTemplate) -> SpanParse {
        SpanLineMatcher::new(std::slice::from_ref(st), 10).parse(dataset, 1)
    }

    fn score_on(data: &str, st: &StructureTemplate) -> f64 {
        let dataset = Dataset::new(data);
        MdlScorer.score(&dataset, st, &span(&dataset, st))
    }

    #[test]
    fn structured_template_beats_trivial_whole_line_field() {
        let mut data = String::new();
        for i in 0..50 {
            data.push_str(&format!(
                "[{:02}:{:02}] 10.0.0.{}\n",
                i % 24,
                i % 60,
                i % 200
            ));
        }
        // Structured template: recognises brackets, colon, dot and space.
        let good = template("[01:05] 10.0.0.1\n", "[]:. \n");
        // Trivial template: the whole line is one field.
        let trivial = template("whatever\n", "\n");
        let good_score = score_on(&data, &good);
        let trivial_score = score_on(&data, &trivial);
        assert!(
            good_score < trivial_score,
            "good {good_score} should beat trivial {trivial_score}"
        );
    }

    #[test]
    fn noise_is_charged_verbatim() {
        let structured = "a=1\na=2\na=3\na=4\n";
        let with_noise = "a=1\na=2\n!!!! totally unstructured noise line !!!!\na=3\na=4\n";
        let st = template("a=1\n", "=\n");
        let clean = score_on(structured, &st);
        let noisy = score_on(with_noise, &st);
        assert!(noisy > clean + 8.0 * 20.0, "noise must cost ~8 bits/byte");
    }

    #[test]
    fn integer_columns_cost_less_than_string_columns() {
        let mut numeric = String::new();
        let mut texty = String::new();
        for i in 0..40 {
            numeric.push_str(&format!("{},{}\n", i, i * 2));
            texty.push_str(&format!("astringvalue{i},anotherstring{i}\n"));
        }
        let st = template("1,2\n", ",\n");
        assert!(score_on(&numeric, &st) < score_on(&texty, &st));
    }

    #[test]
    fn struct_template_beats_array_template_for_fixed_width_csv() {
        // §4.3.1: for a fixed number of typed columns, the unfolded struct template scores
        // better than the folded (F,)*F\n array template because each column gets its own
        // (cheap) data type instead of one shared string-ish type plus repetition counts.
        let mut data = String::new();
        for i in 0..60 {
            data.push_str(&format!("{},{},{}\n", i, 1000 + i, (i * 37) % 7));
        }
        let dataset = Dataset::new(data);
        let struct_t = template("1,2,3\n", ",\n");
        let array_t = reduce(&RecordTemplate::from_instantiated(
            "1,2,3\n",
            &CharSet::from_chars(",\n".chars()),
        ));
        let s_score = MdlScorer.score(&dataset, &struct_t, &span(&dataset, &struct_t));
        let a_score = MdlScorer.score(&dataset, &array_t, &span(&dataset, &array_t));
        assert!(
            s_score < a_score,
            "struct {s_score} should beat array {a_score}"
        );
    }

    #[test]
    fn column_types_reports_inferred_types() {
        let data = Dataset::new("1,INFO,3.5\n2,WARN,4.25\n3,INFO,0.5\n4,INFO,1.0\n");
        let st = template("1,INFO,3.5\n", ",\n");
        let parse = span(&data, &st).to_parse_result();
        let types = MdlScorer.column_types(&data, &st, &parse, 0);
        assert_eq!(types.len(), 3);
        assert_eq!(types[0].name(), "int");
        assert_eq!(types[1].name(), "enum");
        assert_eq!(types[2].name(), "real");
    }

    #[test]
    fn single_scan_integer_parse_matches_original() {
        let cases = [
            "0",
            "7",
            "-7",
            "007",
            "  42  ",
            "+5",
            "",
            "-",
            "--3",
            "1.5",
            "12a",
            "a12",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999999",
            " -0 ",
            "\t10\n",
            "１２",
        ];
        for case in cases {
            assert_eq!(
                parse_integer_single_scan(case),
                parse_integer(case),
                "input {case:?}"
            );
        }
    }

    /// The arena passes against the independent owned-parse formula of `score_set`, fed by
    /// the tree-walking reference parser.
    #[test]
    fn span_fields_bits_matches_tree_walker_bit_for_bit() {
        // Integer, real, enum, free-text and array columns in one corpus.
        let mut data = String::new();
        let words = ["alpha", "beta", "gamma delta", "unique-0", "unique-1"];
        for i in 0..40 {
            data.push_str(&format!(
                "{},{}.5,{},{}\n",
                i,
                i * 3,
                ["INFO", "WARN"][i % 2],
                words[i % words.len()]
            ));
        }
        data.push_str("1,2,3\n4,5\n");
        let dataset = Dataset::new(data);
        for st in [
            template("1,2.5,INFO,x\n", ",\n"),
            reduce(&RecordTemplate::from_instantiated(
                "1,2,3\n",
                &CharSet::from_chars(",\n".chars()),
            )),
        ] {
            let templates = std::slice::from_ref(&st);
            let tree_score =
                MdlScorer.score_set(&dataset, templates, &parse_dataset(&dataset, templates, 10));
            let span_score = MdlScorer.score(&dataset, &st, &span(&dataset, &st));
            assert_eq!(
                span_score.to_bits(),
                tree_score.to_bits(),
                "template {st}: {span_score} vs {tree_score}"
            );
        }
    }

    #[test]
    fn coverage_scorer_prefers_higher_coverage() {
        let data = Dataset::new("a=1\nnoise\na=2\n");
        let st = template("a=1\n", "=\n");
        let parse = span(&data, &st);
        let empty = SpanParse::default();
        assert!(
            CoverageScorer.score(&data, &st, &parse) < CoverageScorer.score(&data, &st, &empty)
        );
        assert_eq!(CoverageScorer.name(), "coverage");
        assert_eq!(MdlScorer.name(), "mdl");
    }
}
