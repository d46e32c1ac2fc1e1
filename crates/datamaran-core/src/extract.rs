//! Span-based extraction engine: compiled instruction tables over raw byte spans (§5.2.2).
//!
//! The original extractor ([`crate::parser`]) re-walks the structure-template *tree* for
//! every record: recursive descent over [`Node`]s, per-character `CharSet` membership tests
//! through `char_indices`, and heap allocations per record (its private instantiation tree
//! and the `FieldCell` vector).  After PR 1 made generation ~81× faster this pass became the
//! pipeline's dominant cost, exactly as the paper observes ("the majority of the running
//! time is spent on running the LL(1) parser").
//!
//! This module rebuilds the pass on the zero-copy span infrastructure:
//!
//! * [`compile`] flattens each [`StructureTemplate`] **once** into a linear instruction
//!   table ([`Op`]): literal runs point into an interned byte arena, field ops carry their
//!   pre-computed column index, and array nodes become a begin/end op pair with the
//!   separator/terminator pre-encoded as UTF-8 bytes.  Matching is a single loop over the
//!   table — no recursion, no per-record tree walk.  [`decompile`] inverts the compilation
//!   (round-tripping is enforced by a property suite).
//! * Field values are delimited by scanning raw bytes against a 256-entry formatting-class
//!   table ([`ByteClass`]) — the memchr-style "find the next delimiter byte" loop — instead
//!   of decoding code points and probing a bitset per character.
//! * Matches land in flat arenas ([`SpanParse`]): one shared `FieldCell` vector plus one
//!   repetition-count vector, so the per-record hot loop performs **zero** heap
//!   allocations.  A record is its template plus its cells and its pre-order repetition
//!   counts — the one record shape every consumer reads (scoring, relational layout,
//!   streaming sinks).  [`SpanParse::to_parse_result`] copies each record's slices into an
//!   owned [`RecordMatch`], identical to the tree walker's (enforced by
//!   `tests/extraction_equivalence.rs`).
//! * [`SpanLineMatcher`] is the one way into dataset segmentation, and
//!   [`extract_records`] the pass the pipeline runs with it.
//!   [`SpanLineMatcher::parse`] shards record-boundary extraction across scoped worker
//!   threads exactly like the generation engine ([`crate::parallel`]): per-line match
//!   tables into worker-local arenas, then a cheap sequential stitch that replays the
//!   greedy segmentation deterministically — output is identical for any chunk count.
//!   Every whole-dataset segmentation (sequential, stitched, single-template, and the
//!   refiner's [`delta_parse`]) runs one private greedy loop, generic over its per-line
//!   match step.
//! * When several templates are live, [`CompiledTemplateSet`] fuses the whole set into one
//!   merged byte-class DFA: a single pass over a record's bytes prunes the set down to the
//!   template(s) that can still match there, and only those survivors are handed to the
//!   per-template matcher — `O(1)` per byte regardless of template count, instead of one
//!   failed trial scan per template.  [`SpanLineMatcher::parse_into_with`] layers batched
//!   dispatch on top (candidate masks for ~1000 upcoming lines are precomputed in one
//!   tight loop so the dispatch tables stay hot).  With fewer than two live templates the
//!   matcher trials each template in index order; the always-trial loop survives only as
//!   the test reference `SpanLineMatcher::trial_reference` — the differential oracle
//!   proven byte-identical by `tests/matching_equivalence.rs`.
//!
//! The tree-walking extractor survives only as the test reference
//! [`crate::parser::parse_dataset`] — the differential oracle and benchmark baseline,
//! never reached from the pipeline, mirroring what
//! `generation::generate_legacy` is to the generation engine.

use crate::chars::CharSet;
use crate::config::DatamaranConfig;
use crate::dataset::Dataset;
use crate::fxhash::FxHashMap;
use crate::parallel::{chunk_bounds, effective_workers, resolve_threads, MIN_CHUNK_LINES};
use crate::parser::{line_of_offset, FieldCell, ParseResult, RecordMatch};
use crate::structure::{Node, StructureTemplate};

/// A formatting delimiter (array separator or terminator) with its UTF-8 encoding
/// pre-computed.  Formatting characters are Latin-1, so the encoding is 1 or 2 bytes; a
/// complete char encoding is never a prefix of a different char's encoding, which is what
/// makes plain byte-prefix comparison exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delim {
    ch: char,
    bytes: [u8; 2],
    len: u8,
}

impl Delim {
    fn new(ch: char) -> Self {
        let mut buf = [0u8; 4];
        let encoded = ch.encode_utf8(&mut buf);
        debug_assert!(encoded.len() <= 2, "formatting characters are Latin-1");
        let mut bytes = [0u8; 2];
        bytes[..encoded.len()].copy_from_slice(encoded.as_bytes());
        Delim {
            ch,
            bytes,
            len: encoded.len() as u8,
        }
    }

    /// The delimiter character.
    pub fn ch(&self) -> char {
        self.ch
    }

    /// `true` when the text at `pos` starts with this delimiter.
    #[inline]
    fn matches(&self, text: &[u8], pos: usize) -> bool {
        let len = self.len as usize;
        pos + len <= text.len() && text[pos..pos + len] == self.bytes[..len]
    }
}

/// One instruction of a compiled structure template.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Match one literal byte (the overwhelmingly common literal shape — ':', ',', '\n' —
    /// kept out of the arena so the hot loop compares a register, not a memcmp).
    Byte {
        /// The literal byte.
        byte: u8,
    },
    /// Match the interned literal bytes `lit_bytes[start..start + len]`.
    Literal {
        /// Offset into the compiled template's literal arena.
        start: u32,
        /// Length of the literal run in bytes.
        len: u32,
    },
    /// Match a maximal non-empty run of field bytes and record it as `column`.
    Field {
        /// Pre-computed column index (pre-order field numbering of the template).
        column: u32,
    },
    /// Enter array `array_id`; its matching [`Op::ArrayEnd`] sits at `end_ip`.
    ArrayBegin {
        /// Pre-order array numbering of the template.
        array_id: u32,
        /// Instruction index of the matching [`Op::ArrayEnd`].
        end_ip: u32,
    },
    /// End of an array body: a separator continues at `body_ip`, a terminator falls
    /// through, anything else fails the match (the LL(1) single-character decision).
    ArrayEnd {
        /// Instruction index of the first body op.
        body_ip: u32,
        /// The repetition separator.
        separator: Delim,
        /// The array terminator (must differ from the separator).
        terminator: Delim,
    },
}

/// 256-entry formatting-character class table over the Latin-1 code points, the byte-level
/// projection of a [`CharSet`].  ASCII bytes are classified directly; the only multi-byte
/// UTF-8 sequences that can encode a formatting character are the 2-byte sequences led by
/// `0xC2`/`0xC3` (U+0080..=U+00FF), which are classified by their decoded code point.
#[derive(Clone)]
pub struct ByteClass {
    fmt: [bool; 256],
}

impl ByteClass {
    /// Builds the class table of `charset`.
    pub fn new(charset: &CharSet) -> Self {
        let mut fmt = [false; 256];
        for (cp, slot) in fmt.iter_mut().enumerate() {
            let c = char::from_u32(cp as u32).expect("latin-1 code points are valid chars");
            *slot = charset.contains(c);
        }
        ByteClass { fmt }
    }

    /// Byte offset of the first formatting character at or after `start` — the end of the
    /// maximal field run beginning there.  Equivalent to [`crate::parser`]'s char-decoding
    /// scan, but table-driven over raw bytes: the ASCII fast path is a memchr-style
    /// branchless-predicate sweep (iterator `position` compiles to a tight, bounds-check
    /// free loop), and only non-ASCII lead bytes fall into the decoding path.
    #[inline]
    fn scan_field(&self, text: &[u8], start: usize) -> usize {
        let mut i = start;
        loop {
            let rest = &text[i..];
            match rest.iter().position(|&b| b >= 0x80 || self.fmt[b as usize]) {
                None => return text.len(),
                Some(j) => {
                    i += j;
                    let b = text[i];
                    if b < 0x80 {
                        return i;
                    } else if b == 0xC2 || b == 0xC3 {
                        // The only lead bytes of Latin-1 (U+0080..=U+00FF) code points.
                        let cp = (((b & 0x1F) as usize) << 6) | (text[i + 1] & 0x3F) as usize;
                        if self.fmt[cp] {
                            return i;
                        }
                        i += 2;
                    } else if b < 0xE0 {
                        i += 2;
                    } else if b < 0xF0 {
                        i += 3;
                    } else {
                        i += 4;
                    }
                }
            }
        }
    }
}

/// A structure template compiled to a flat instruction table (plus the byte-class table of
/// its `RT-CharSet`).  Built once per template per extraction pass, shared immutably across
/// worker threads.
pub struct CompiledTemplate {
    ops: Vec<Op>,
    lit_bytes: Vec<u8>,
    charset: CharSet,
    class: ByteClass,
    field_count: u32,
    array_count: u32,
}

impl CompiledTemplate {
    /// The instruction table.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The template's `RT-CharSet`.
    pub fn charset(&self) -> &CharSet {
        &self.charset
    }

    /// Number of field columns.
    pub fn field_count(&self) -> usize {
        self.field_count as usize
    }

    /// Number of array nodes.
    pub fn array_count(&self) -> usize {
        self.array_count as usize
    }

    /// Resolves an interned literal run.
    #[inline]
    fn lit(&self, start: u32, len: u32) -> &[u8] {
        &self.lit_bytes[start as usize..(start + len) as usize]
    }

    /// Runs the instruction table at byte offset `start`, appending matched cells and array
    /// repetition counts to the arenas.  Returns the end offset on success; on failure the
    /// arenas are rolled back.  Purely iterative — the LL(1) property means no
    /// backtracking, so there is no parse stack beyond the array-nesting slots.
    fn run(
        &self,
        text: &[u8],
        start: usize,
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        stack: &mut Vec<(usize, u32)>,
    ) -> Option<usize> {
        self.run_range(text, start, 0, self.ops.len(), cells, reps, stack)
    }

    /// Runs the instruction sub-table `[ip_from, ip_to)` at byte offset `start` — the
    /// delta-evaluation entry point: the range must be *well-nested* (no array opened inside
    /// continues past `ip_to`), which [`diff_compiled`] guarantees for the dirty region and
    /// the suffix it emits.  Semantics are otherwise identical to [`CompiledTemplate::run`]:
    /// arenas are appended on success and rolled back on failure.
    #[allow(clippy::too_many_arguments)]
    fn run_range(
        &self,
        text: &[u8],
        start: usize,
        ip_from: usize,
        ip_to: usize,
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        stack: &mut Vec<(usize, u32)>,
    ) -> Option<usize> {
        let cells_mark = cells.len();
        let reps_mark = reps.len();
        stack.clear();
        let ops: &[Op] = &self.ops[..ip_to.min(self.ops.len())];
        let mut pos = start;
        let mut ip = ip_from;
        while let Some(op) = ops.get(ip) {
            match *op {
                Op::Byte { byte } => {
                    if pos < text.len() && text[pos] == byte {
                        pos += 1;
                        ip += 1;
                    } else {
                        cells.truncate(cells_mark);
                        reps.truncate(reps_mark);
                        return None;
                    }
                }
                Op::Field { column } => {
                    let end = self.class.scan_field(text, pos);
                    if end == pos {
                        cells.truncate(cells_mark);
                        reps.truncate(reps_mark);
                        return None;
                    }
                    cells.push(FieldCell {
                        column: column as usize,
                        start: pos,
                        end,
                    });
                    pos = end;
                    ip += 1;
                }
                Op::Literal { start: ls, len } => {
                    let lit = &self.lit_bytes[ls as usize..(ls + len) as usize];
                    if text.len() - pos >= lit.len() && &text[pos..pos + lit.len()] == lit {
                        pos += lit.len();
                        ip += 1;
                    } else {
                        cells.truncate(cells_mark);
                        reps.truncate(reps_mark);
                        return None;
                    }
                }
                Op::ArrayBegin { .. } => {
                    // Reserve the repetition-count slot now so counts appear in pre-order
                    // (the order the materializer consumes them in).
                    stack.push((reps.len(), 0));
                    reps.push(0);
                    ip += 1;
                }
                Op::ArrayEnd {
                    body_ip,
                    separator,
                    terminator,
                } => {
                    let top = stack.last_mut().expect("ArrayEnd implies ArrayBegin");
                    top.1 += 1;
                    if terminator.matches(text, pos) {
                        pos += terminator.len as usize;
                        let (slot, count) = stack.pop().expect("non-empty stack");
                        reps[slot] = count;
                        ip += 1;
                    } else if separator.matches(text, pos) {
                        pos += separator.len as usize;
                        ip = body_ip as usize;
                    } else {
                        cells.truncate(cells_mark);
                        reps.truncate(reps_mark);
                        return None;
                    }
                }
            }
        }
        debug_assert!(
            stack.is_empty(),
            "well-nested op range leaves no open arrays"
        );
        Some(pos)
    }

    /// Replays the instruction sub-table `[ip_from, ip_to)` against a *recorded* match — the
    /// cells and repetition counts a previous run of the same ops appended — without touching
    /// the dataset text.  Returns `(cells_consumed, reps_consumed, end_pos)` where `end_pos`
    /// is the byte offset the recorded run reached after the range.  The range must be
    /// well-nested (see [`CompiledTemplate::run_range`]); cost is `O(ops executed)` with no
    /// byte scanning, which is what makes copy-forward cheaper than re-matching.
    fn replay_range(
        &self,
        ip_from: usize,
        ip_to: usize,
        cells: &[FieldCell],
        reps: &[u32],
        start: usize,
    ) -> (usize, usize, usize) {
        let ops: &[Op] = &self.ops;
        let mut pos = start;
        let mut ci = 0usize;
        let mut ri = 0usize;
        let mut ip = ip_from;
        // Remaining body iterations of each open array, innermost last.
        let mut stack: Vec<u32> = Vec::new();
        while ip < ip_to {
            match ops[ip] {
                Op::Byte { .. } => {
                    pos += 1;
                    ip += 1;
                }
                Op::Literal { len, .. } => {
                    pos += len as usize;
                    ip += 1;
                }
                Op::Field { .. } => {
                    pos = cells[ci].end;
                    ci += 1;
                    ip += 1;
                }
                Op::ArrayBegin { .. } => {
                    stack.push(reps[ri]);
                    ri += 1;
                    ip += 1;
                }
                Op::ArrayEnd {
                    body_ip,
                    separator,
                    terminator,
                } => {
                    let remaining = stack.last_mut().expect("ArrayEnd implies ArrayBegin");
                    *remaining -= 1;
                    if *remaining > 0 {
                        pos += separator.len as usize;
                        ip = body_ip as usize;
                    } else {
                        stack.pop();
                        pos += terminator.len as usize;
                        ip += 1;
                    }
                }
            }
        }
        debug_assert!(
            stack.is_empty(),
            "well-nested op range leaves no open arrays"
        );
        (ci, ri, pos)
    }
}

/// Compiles a structure template into its flat instruction table.
pub fn compile(template: &StructureTemplate) -> CompiledTemplate {
    let mut compiled = CompiledTemplate {
        ops: Vec::new(),
        lit_bytes: Vec::new(),
        charset: template.char_set(),
        class: ByteClass::new(&template.char_set()),
        field_count: 0,
        array_count: 0,
    };
    let mut column = 0u32;
    let mut array_id = 0u32;
    compile_nodes(
        template.nodes(),
        &mut compiled.ops,
        &mut compiled.lit_bytes,
        &mut column,
        &mut array_id,
    );
    compiled.field_count = column;
    compiled.array_count = array_id;
    compiled
}

/// Recursive op emission.  Column and array numbering is static pre-order — identical to
/// the numbering the tree walker assigns dynamically (each array repetition re-instantiates
/// the same body columns).
fn compile_nodes(
    nodes: &[Node],
    ops: &mut Vec<Op>,
    lit_bytes: &mut Vec<u8>,
    column: &mut u32,
    array_id: &mut u32,
) {
    for node in nodes {
        match node {
            Node::Field => {
                ops.push(Op::Field { column: *column });
                *column += 1;
            }
            Node::Literal(s) => {
                if s.len() == 1 && s.as_bytes()[0] < 0x80 {
                    ops.push(Op::Byte {
                        byte: s.as_bytes()[0],
                    });
                } else {
                    let start = lit_bytes.len() as u32;
                    lit_bytes.extend_from_slice(s.as_bytes());
                    ops.push(Op::Literal {
                        start,
                        len: s.len() as u32,
                    });
                }
            }
            Node::Array {
                body,
                separator,
                terminator,
            } => {
                let my_id = *array_id;
                *array_id += 1;
                let begin_ip = ops.len();
                ops.push(Op::ArrayBegin {
                    array_id: my_id,
                    end_ip: 0, // patched below
                });
                compile_nodes(body, ops, lit_bytes, column, array_id);
                let end_ip = ops.len() as u32;
                ops.push(Op::ArrayEnd {
                    body_ip: begin_ip as u32 + 1,
                    separator: Delim::new(*separator),
                    terminator: Delim::new(*terminator),
                });
                let Op::ArrayBegin { end_ip: slot, .. } = &mut ops[begin_ip] else {
                    unreachable!("begin_ip points at the ArrayBegin just pushed");
                };
                *slot = end_ip;
            }
        }
    }
}

/// Reconstructs the structure template a [`CompiledTemplate`] was compiled from.  The
/// compilation is lossless: `decompile(&compile(t)) == t` for every template (enforced by
/// the round-trip property suite).
pub fn decompile(compiled: &CompiledTemplate) -> StructureTemplate {
    let mut ip = 0usize;
    let nodes = decompile_range(
        &compiled.ops,
        &compiled.lit_bytes,
        &mut ip,
        compiled.ops.len(),
    );
    StructureTemplate::new(nodes)
}

fn decompile_range(ops: &[Op], lit_bytes: &[u8], ip: &mut usize, end: usize) -> Vec<Node> {
    let mut nodes = Vec::new();
    while *ip < end {
        match ops[*ip] {
            Op::Byte { byte } => {
                nodes.push(Node::Literal((byte as char).to_string()));
                *ip += 1;
            }
            Op::Literal { start, len } => {
                let bytes = &lit_bytes[start as usize..(start + len) as usize];
                nodes.push(Node::Literal(
                    String::from_utf8(bytes.to_vec()).expect("literal arena holds valid UTF-8"),
                ));
                *ip += 1;
            }
            Op::Field { .. } => {
                nodes.push(Node::Field);
                *ip += 1;
            }
            Op::ArrayBegin { end_ip, .. } => {
                *ip += 1;
                let body = decompile_range(ops, lit_bytes, ip, end_ip as usize);
                let Op::ArrayEnd {
                    separator,
                    terminator,
                    ..
                } = ops[end_ip as usize]
                else {
                    unreachable!("end_ip points at the matching ArrayEnd");
                };
                nodes.push(Node::Array {
                    body,
                    separator: separator.ch(),
                    terminator: terminator.ch(),
                });
                *ip = end_ip as usize + 1;
            }
            Op::ArrayEnd { .. } => unreachable!("ArrayEnd is consumed by its ArrayBegin"),
        }
    }
    nodes
}

// ---------------------------------------------------------------------------------------
// Delta evaluation: structural diffs between a refinement variant and its parent
// ---------------------------------------------------------------------------------------

/// Structural diff between a parent's [`CompiledTemplate`] and a refinement variant's:
/// which instruction ranges (and hence which columns) are shared, and how the shared
/// suffix's column ids remap.  Produced by [`diff_compiled`]; consumed by
/// [`delta_parse`], which copies the shared ranges forward from the parent's
/// arenas instead of re-matching their bytes, and by the incremental scorer, which reuses
/// the per-column aggregates of unchanged columns (see
/// [`TemplateDiff::column_reuse`]).
///
/// The §4.3 refinement variants are localized edits: an unfold replaces one array node with
/// its expansion (splitting the array's columns into per-repetition copies) and a shift
/// moves the record boundary (rotating whole lines), so most of a variant's op table is a
/// verbatim prefix and a renumbered suffix of its parent's.  Both shared ranges are clamped
/// to be *well-nested* — an array opened inside a shared range also closes inside it — so
/// they can be replayed against recorded arenas without entering the dirty region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateDiff {
    /// Ops `[0, prefix_ops)` are identical (same ops, same column and array numbering).
    pub prefix_ops: usize,
    /// First op of the shared suffix in the parent's table.
    pub parent_suffix: usize,
    /// First op of the shared suffix in the variant's table.
    pub variant_suffix: usize,
    /// Number of ops in the shared suffix.
    pub suffix_ops: usize,
    /// Added to a parent suffix cell's column id to obtain the variant column id
    /// (`variant.field_count - parent.field_count`; never moves a suffix column below 0).
    pub suffix_col_shift: i64,
    /// Number of field columns inside the shared prefix.
    pub prefix_columns: usize,
    /// Number of field columns inside the shared suffix.
    pub suffix_columns: usize,
}

impl TemplateDiff {
    /// `true` when the diff shares at least one op — a delta parse can skip *some* bytes.
    pub fn has_common(&self) -> bool {
        self.prefix_ops > 0 || self.suffix_ops > 0
    }

    /// Per-variant-column provenance for incremental scoring: `Some(parent_column)` when the
    /// variant column is structurally unchanged (shared prefix or shared suffix), `None`
    /// when it belongs to the dirty region and its aggregates must be recomputed.
    pub fn column_reuse(&self, parent_fields: usize, variant_fields: usize) -> Vec<Option<u32>> {
        let mut map = vec![None; variant_fields];
        for (col, slot) in map.iter_mut().enumerate().take(self.prefix_columns) {
            *slot = Some(col as u32);
        }
        for j in 0..self.suffix_columns {
            let vcol = variant_fields - self.suffix_columns + j;
            let pcol = parent_fields - self.suffix_columns + j;
            map[vcol] = Some(pcol as u32);
        }
        map
    }
}

/// `true` when two ops are interchangeable inside a shared *suffix*: byte-identical
/// matching behaviour, with column / array ids allowed to differ (they renumber by a
/// constant) and intra-table jump targets allowed to differ by the table-length shift.
fn suffix_op_eq(
    parent: &CompiledTemplate,
    pi: usize,
    variant: &CompiledTemplate,
    vi: usize,
) -> bool {
    let shift = variant.ops.len() as i64 - parent.ops.len() as i64;
    match (parent.ops[pi], variant.ops[vi]) {
        (Op::Byte { byte: a }, Op::Byte { byte: b }) => a == b,
        (Op::Literal { start: ps, len: pl }, Op::Literal { start: vs, len: vl }) => {
            parent.lit(ps, pl) == variant.lit(vs, vl)
        }
        (Op::Field { .. }, Op::Field { .. }) => true,
        (Op::ArrayBegin { end_ip: pe, .. }, Op::ArrayBegin { end_ip: ve, .. }) => {
            ve as i64 == pe as i64 + shift
        }
        (
            Op::ArrayEnd {
                body_ip: pb,
                separator: psep,
                terminator: pterm,
            },
            Op::ArrayEnd {
                body_ip: vb,
                separator: vsep,
                terminator: vterm,
            },
        ) => vb as i64 == pb as i64 + shift && psep == vsep && pterm == vterm,
        _ => false,
    }
}

/// `true` when two ops are identical inside a shared *prefix* (column and array numbering
/// is pre-order from the table start, so shared-prefix ids coincide exactly).
fn prefix_op_eq(parent: &CompiledTemplate, variant: &CompiledTemplate, i: usize) -> bool {
    match (parent.ops[i], variant.ops[i]) {
        (Op::Literal { start: ps, len: pl }, Op::Literal { start: vs, len: vl }) => {
            parent.lit(ps, pl) == variant.lit(vs, vl)
        }
        (a, b) => a == b,
    }
}

/// Number of [`Op::Field`] ops in `ops[range]`.
fn count_fields(ops: &[Op], range: std::ops::Range<usize>) -> usize {
    ops[range]
        .iter()
        .filter(|op| matches!(op, Op::Field { .. }))
        .count()
}

/// Computes the structural diff between a refinement variant's compiled table and its
/// parent's, or `None` when delta evaluation is unsound or useless for the pair:
///
/// * different `RT-CharSet`s (field runs would delimit differently, so even byte-identical
///   shared ops can consume different spans — e.g. a full unfold to one repetition drops
///   the separator from the template's character set);
/// * no shared ops at all (nothing to copy forward).
pub fn diff_compiled(
    parent: &CompiledTemplate,
    variant: &CompiledTemplate,
) -> Option<TemplateDiff> {
    if parent.charset != variant.charset {
        return None;
    }
    let p_len = parent.ops.len();
    let v_len = variant.ops.len();
    if p_len == 0 || v_len == 0 {
        return None;
    }

    // Longest identical prefix, clamped to the last depth-0 boundary so every array opened
    // inside the prefix also closes inside it.
    let mut raw_prefix = 0usize;
    while raw_prefix < p_len && raw_prefix < v_len && prefix_op_eq(parent, variant, raw_prefix) {
        raw_prefix += 1;
    }
    let mut prefix = 0usize;
    let mut depth = 0i32;
    for (i, op) in parent.ops[..raw_prefix].iter().enumerate() {
        match op {
            Op::ArrayBegin { .. } => depth += 1,
            Op::ArrayEnd { .. } => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            prefix = i + 1;
        }
    }

    // Longest shared suffix (modulo renumbering), never overlapping the prefix, clamped to
    // the last depth-0 boundary from the right.
    let max_suffix = (p_len - prefix).min(v_len - prefix);
    let mut raw_suffix = 0usize;
    while raw_suffix < max_suffix
        && suffix_op_eq(
            parent,
            p_len - 1 - raw_suffix,
            variant,
            v_len - 1 - raw_suffix,
        )
    {
        raw_suffix += 1;
    }
    let mut suffix = 0usize;
    depth = 0;
    for k in 0..raw_suffix {
        match parent.ops[p_len - 1 - k] {
            Op::ArrayEnd { .. } => depth += 1,
            Op::ArrayBegin { .. } => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            suffix = k + 1;
        }
    }

    if prefix == 0 && suffix == 0 {
        return None;
    }
    Some(TemplateDiff {
        prefix_ops: prefix,
        parent_suffix: p_len - suffix,
        variant_suffix: v_len - suffix,
        suffix_ops: suffix,
        suffix_col_shift: variant.field_count as i64 - parent.field_count as i64,
        prefix_columns: count_fields(&parent.ops, 0..prefix),
        suffix_columns: count_fields(&parent.ops, p_len - suffix..p_len),
    })
}

/// One matched record in a [`SpanParse`]: metadata plus ranges into the shared arenas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which of the supplied templates matched.
    pub template_index: u32,
    /// Byte span `[start, end)` of the record in the dataset text.
    pub byte_span: (usize, usize),
    /// Line span `[first, last)` of the record.
    pub line_span: (usize, usize),
    /// Range of this record's cells in [`SpanParse::cells`].
    pub cell_range: (u32, u32),
    /// Range of this record's array repetition counts in [`SpanParse::reps`]
    /// (pre-order by array occurrence in match order).
    pub rep_range: (u32, u32),
}

impl SpanRecord {
    /// Length of the record in bytes.
    pub fn byte_len(&self) -> usize {
        self.byte_span.1 - self.byte_span.0
    }
}

/// Flat, arena-backed extraction output of the span engine — the allocation-free
/// counterpart of [`ParseResult`].  All extracted information is here: record boundaries,
/// every field cell, and the repetition count of every array occurrence (the instantiation
/// tree is fully determined by the template plus these counts).
#[derive(Clone, Debug, Default)]
pub struct SpanParse {
    /// Matched records in document order.
    pub records: Vec<SpanRecord>,
    /// Field-cell arena (cells of each record are contiguous, in match order).
    pub cells: Vec<FieldCell>,
    /// Array repetition-count arena.
    pub reps: Vec<u32>,
    /// Indices of lines that belong to no record.
    pub noise_lines: Vec<usize>,
    /// Total bytes covered by records.
    pub record_bytes: usize,
    /// Total bytes covered by noise lines.
    pub noise_bytes: usize,
}

impl SpanParse {
    /// Empties the parse while keeping the arena capacity — lets evaluation loops recycle
    /// one allocation across thousands of candidate parses.
    pub fn clear(&mut self) {
        self.records.clear();
        self.cells.clear();
        self.reps.clear();
        self.noise_lines.clear();
        self.record_bytes = 0;
        self.noise_bytes = 0;
    }

    /// The cells of one record.
    pub fn record_cells(&self, rec: &SpanRecord) -> &[FieldCell] {
        &self.cells[rec.cell_range.0 as usize..rec.cell_range.1 as usize]
    }

    /// The repetition counts of one record.
    pub fn record_reps(&self, rec: &SpanRecord) -> &[u32] {
        &self.reps[rec.rep_range.0 as usize..rec.rep_range.1 as usize]
    }

    /// Total number of blocks (records plus noise lines) — the `m` of the MDL formula,
    /// identical to [`ParseResult::block_count`] on the materialized parse.
    pub fn block_count(&self) -> usize {
        self.records.len() + self.noise_lines.len()
    }

    /// Copies the parse into an owned [`ParseResult`]: each record's cell and repetition
    /// count slices become its [`RecordMatch`].  Identical to what
    /// [`crate::parser::parse_dataset`] produces on the same input — the differential suite
    /// compares the two directly.
    pub fn to_parse_result(&self) -> ParseResult {
        ParseResult {
            records: self
                .records
                .iter()
                .map(|rec| RecordMatch {
                    template_index: rec.template_index as usize,
                    byte_span: rec.byte_span,
                    line_span: rec.line_span,
                    reps: self.record_reps(rec).to_vec(),
                    fields: self.record_cells(rec).to_vec(),
                })
                .collect(),
            noise_lines: self.noise_lines.clone(),
            record_bytes: self.record_bytes,
            noise_bytes: self.noise_bytes,
        }
    }
}

/// Matcher work counters, accumulated into the [`SpanScratch`] every match goes through:
/// how many record-start questions were asked, how many went through the fused DFA
/// prefilter, and how many per-template trials the prefilter executed vs. eliminated.
/// The streaming extractor ([`crate::streaming::StreamSummary`]) keeps a running total
/// and the counters of its most recent windows; the CLI summary and
/// [`stream_report`](crate::export::stream_report) print them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Record-start questions answered (one per line dispatched to the matcher).
    pub lines_dispatched: u64,
    /// Lines answered through the fused DFA prefilter (0 under the trial reference or when
    /// fewer than two templates are live).
    pub fused_dispatches: u64,
    /// Per-template trial runs actually executed.
    pub templates_trialed: u64,
    /// Per-template trials skipped because the fused prefilter ruled the template out.
    pub templates_pruned: u64,
}

impl MatchStats {
    /// Adds `other`'s counters into `self` (chunk/window aggregation).
    pub fn merge(&mut self, other: &MatchStats) {
        self.lines_dispatched += other.lines_dispatched;
        self.fused_dispatches += other.fused_dispatches;
        self.templates_trialed += other.templates_trialed;
        self.templates_pruned += other.templates_pruned;
    }

    /// Counter deltas since an `earlier` snapshot of the same accumulating stats — how the
    /// streaming extractor carves per-window stats out of one long-lived scratch.
    pub fn since(&self, earlier: &MatchStats) -> MatchStats {
        MatchStats {
            lines_dispatched: self.lines_dispatched - earlier.lines_dispatched,
            fused_dispatches: self.fused_dispatches - earlier.fused_dispatches,
            templates_trialed: self.templates_trialed - earlier.templates_trialed,
            templates_pruned: self.templates_pruned - earlier.templates_pruned,
        }
    }

    /// Fraction of per-template trials the fused prefilter eliminated (the fused-dispatch
    /// hit rate): `pruned / (trialed + pruned)`, 0 when nothing was dispatched.
    pub fn prune_rate(&self) -> f64 {
        let total = self.templates_trialed + self.templates_pruned;
        if total == 0 {
            0.0
        } else {
            self.templates_pruned as f64 / total as f64
        }
    }

    /// Fraction of line dispatches that went through the fused prefilter.
    pub fn fused_dispatch_rate(&self) -> f64 {
        if self.lines_dispatched == 0 {
            0.0
        } else {
            self.fused_dispatches as f64 / self.lines_dispatched as f64
        }
    }
}

/// Reusable per-thread scratch for span matching: the array-nesting slots, the fused
/// prefilter's candidate mask and lazy DFA cache, and the work counters.
#[derive(Clone, Debug, Default)]
pub struct SpanScratch {
    stack: Vec<(usize, u32)>,
    fused_mask: Vec<u64>,
    fused_cache: FusedDfaCache,
    /// Work counters accumulated by every match performed through this scratch.
    pub stats: MatchStats,
}

impl SpanScratch {
    /// Number of fused-DFA states this scratch's lazy determinization has interned.
    pub fn fused_dfa_states(&self) -> usize {
        self.fused_cache.state_count()
    }

    /// `true` when this scratch's lazy determinization hit the state cap — walks degrade
    /// to conservative (unpruned) candidate sets beyond it.
    pub fn fused_dfa_overflowed(&self) -> bool {
        self.fused_cache.overflowed()
    }
}

/// Pre-compiled matcher for a fixed template set, the one way into dataset segmentation
/// (the tree walker [`crate::parser::parse_dataset`] is its test reference).  Owns its
/// compiled tables, so it borrows nothing and can be shared immutably across scoped
/// worker threads.
pub struct SpanLineMatcher {
    compiled: Vec<CompiledTemplate>,
    max_line_span: usize,
    fused: Option<CompiledTemplateSet>,
}

impl SpanLineMatcher {
    /// Compiles `templates`; `max_line_span` is the paper's `L` parameter.  With at least
    /// two live (non-empty) templates the set is also fused into one merged DFA prefilter;
    /// with fewer, the matcher trials every template in index order.
    pub fn new(templates: &[StructureTemplate], max_line_span: usize) -> Self {
        let compiled: Vec<CompiledTemplate> = templates.iter().map(compile).collect();
        let fused = CompiledTemplateSet::build(&compiled);
        SpanLineMatcher {
            compiled,
            max_line_span,
            fused,
        }
    }

    /// The test reference: the same matcher with the fused prefilter never built, so every
    /// record start trials every template in index order.  Only tests and the
    /// `reproduce -- matching` benchmark construct it.
    #[doc(hidden)]
    pub fn trial_reference(templates: &[StructureTemplate], max_line_span: usize) -> Self {
        SpanLineMatcher {
            compiled: templates.iter().map(compile).collect(),
            max_line_span,
            fused: None,
        }
    }

    /// The merged DFA prefilter, built when at least two templates are live.
    pub fn fused(&self) -> Option<&CompiledTemplateSet> {
        self.fused.as_ref()
    }

    /// Attempts to match one record starting at `line`, appending its cells and repetition
    /// counts to the supplied arenas.  Same template order and acceptance rules as the
    /// tree walker: first template whose match ends on a line boundary within the span
    /// limit wins.  With the fused prefilter, one DFA pass over the record's bytes first
    /// prunes the template set to the survivors — the trial order over survivors is the
    /// same index order, so the outcome is byte-identical.
    pub fn match_line_into(
        &self,
        dataset: &Dataset,
        line: usize,
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        scratch: &mut SpanScratch,
    ) -> Option<SpanRecord> {
        scratch.stats.lines_dispatched += 1;
        match &self.fused {
            Some(fused) => {
                let mut mask = std::mem::take(&mut scratch.fused_mask);
                let mut cache = std::mem::take(&mut scratch.fused_cache);
                fused.candidates_into(
                    &mut cache,
                    dataset.text().as_bytes(),
                    dataset.line_start(line),
                    &mut mask,
                );
                let rec = self.trial_candidates(dataset, line, &mask, cells, reps, scratch);
                scratch.fused_mask = mask;
                scratch.fused_cache = cache;
                rec
            }
            None => self.trial_all(dataset, line, cells, reps, scratch),
        }
    }

    /// The plain matching loop: trial every non-empty template in index order.
    fn trial_all(
        &self,
        dataset: &Dataset,
        line: usize,
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        scratch: &mut SpanScratch,
    ) -> Option<SpanRecord> {
        for (idx, ct) in self.compiled.iter().enumerate() {
            if ct.ops.is_empty() {
                continue;
            }
            if let Some(rec) = self.trial_one(idx, dataset, line, cells, reps, scratch) {
                return Some(rec);
            }
        }
        None
    }

    /// Trials only the templates whose bit is set in the fused prefilter's candidate
    /// `mask`, in the same index order as [`SpanLineMatcher::trial_all`].
    fn trial_candidates(
        &self,
        dataset: &Dataset,
        line: usize,
        mask: &[u64],
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        scratch: &mut SpanScratch,
    ) -> Option<SpanRecord> {
        scratch.stats.fused_dispatches += 1;
        let nonempty = self
            .fused
            .as_ref()
            .map(|f| f.n_nonempty as u64)
            .unwrap_or(0);
        let candidates: u64 = mask.iter().map(|w| u64::from(w.count_ones())).sum();
        scratch.stats.templates_pruned += nonempty.saturating_sub(candidates);
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(rec) = self.trial_one(idx, dataset, line, cells, reps, scratch) {
                    return Some(rec);
                }
            }
        }
        None
    }

    /// Runs template `idx` against one record start, counting the trial.
    #[inline]
    fn trial_one(
        &self,
        idx: usize,
        dataset: &Dataset,
        line: usize,
        cells: &mut Vec<FieldCell>,
        reps: &mut Vec<u32>,
        scratch: &mut SpanScratch,
    ) -> Option<SpanRecord> {
        scratch.stats.templates_trialed += 1;
        match_compiled(
            &self.compiled[idx],
            idx as u32,
            dataset,
            line,
            self.max_line_span,
            cells,
            reps,
            &mut scratch.stack,
        )
    }

    /// Greedy left-to-right segmentation of the whole dataset across `chunks` scoped
    /// worker threads (`0` or `1` runs sequentially).  The per-line match question depends
    /// only on the text from each line onward, so the workers fill a [`LineMatchTable`]
    /// and a sequential stitch replays the greedy segmentation from it, copying each
    /// selected record's arena slices into the merged arenas in document order: the parse
    /// is identical for any chunk count.
    pub fn parse(&self, dataset: &Dataset, chunks: usize) -> SpanParse {
        let mut out = SpanParse::default();
        if chunks <= 1 {
            self.parse_into_with(dataset, &mut out, &mut SpanScratch::default());
            return out;
        }
        let table = self.match_table(dataset, chunks);
        segment(dataset, &mut out, |line, out| {
            let (rec, cells, reps) = table.record_at(line)?;
            let cell_base = out.cells.len() as u32;
            let rep_base = out.reps.len() as u32;
            out.cells.extend_from_slice(cells);
            out.reps.extend_from_slice(reps);
            Some(SpanRecord {
                cell_range: (cell_base, out.cells.len() as u32),
                rep_range: (rep_base, out.reps.len() as u32),
                ..rec
            })
        });
        out
    }

    /// Sequential greedy segmentation into a caller-owned (recyclable) parse, reusing a
    /// caller-owned scratch whose [`SpanScratch::stats`] accumulate across calls.  With
    /// the fused prefilter built this runs the batched dispatch layer: candidate masks for
    /// up to ~1000 upcoming line starts are precomputed in one tight DFA loop, so the
    /// merged transition table, byte-class table, and arenas stay hot across the whole
    /// batch.
    pub fn parse_into_with(
        &self,
        dataset: &Dataset,
        out: &mut SpanParse,
        scratch: &mut SpanScratch,
    ) {
        let Some(fused) = &self.fused else {
            segment(dataset, out, |line, out| {
                self.match_line_into(dataset, line, &mut out.cells, &mut out.reps, scratch)
            });
            return;
        };
        let n = dataset.line_count();
        let text = dataset.text().as_bytes();
        let words = fused.words;
        let mut masks: Vec<u64> = Vec::new();
        let mut batch_first = 0usize;
        let mut batch_len = 0usize;
        segment(dataset, out, |line, out| {
            if line >= batch_first + batch_len {
                batch_first = line;
                batch_len = (n - line).min(FUSED_BATCH_LINES);
                masks.clear();
                masks.resize(batch_len * words, 0);
                let mut cache = std::mem::take(&mut scratch.fused_cache);
                for (k, row) in masks.chunks_exact_mut(words).enumerate() {
                    fused.walk(&mut cache, text, dataset.line_start(batch_first + k), row);
                }
                scratch.fused_cache = cache;
            }
            let row = &masks[(line - batch_first) * words..][..words];
            scratch.stats.lines_dispatched += 1;
            self.trial_candidates(dataset, line, row, &mut out.cells, &mut out.reps, scratch)
        });
    }

    /// Answers the per-line match question for the whole dataset across `chunks` scoped
    /// worker threads — the parallel engine's phase 1, also driven per window by the
    /// streaming extractor (see [`crate::streaming`]).  The per-line answers depend only
    /// on the text from each line onward, so the table is identical for any chunk count.
    pub fn match_table(&self, dataset: &Dataset, chunks: usize) -> LineMatchTable {
        let n = dataset.line_count();
        let bounds = chunk_bounds(n, chunks);
        let matcher = self;
        let chunks: Vec<ChunkMatches> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(first, last)| {
                    scope.spawn(move || {
                        let mut chunk = ChunkMatches {
                            first,
                            matches: Vec::with_capacity(last - first),
                            cells: Vec::new(),
                            reps: Vec::new(),
                            stats: MatchStats::default(),
                        };
                        let mut scratch = SpanScratch::default();
                        for line in first..last {
                            chunk.matches.push(matcher.match_line_into(
                                dataset,
                                line,
                                &mut chunk.cells,
                                &mut chunk.reps,
                                &mut scratch,
                            ));
                        }
                        chunk.stats = scratch.stats;
                        chunk
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("extraction worker panicked"))
                .collect()
        });
        LineMatchTable { chunks }
    }
}

// ---------------------------------------------------------------------------------------
// Delta parsing: re-parse only the dirty region of each record
// ---------------------------------------------------------------------------------------

/// Work counters of one [`delta_parse`] run — the delta-hit telemetry the
/// refiner aggregates and the pipeline report surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaParseStats {
    /// Records in the parent parse.
    pub parent_records: usize,
    /// Parent records whose start line the variant's greedy path visited.
    pub consulted_records: usize,
    /// Parent records fully copy-forwarded: shared prefix and suffix replayed from the
    /// parent arenas, only the dirty region re-matched, end position realigned.
    pub reused_records: usize,
    /// Parent records whose dirty region re-match succeeded but whose tail had to be
    /// re-matched against the text (no shared suffix, or the dirty region ended at a
    /// different byte position than the parent's).
    pub rematched_records: usize,
    /// Parent records the variant rejects (the re-matched region fails on their bytes).
    pub dropped_records: usize,
    /// Variant records discovered at lines where the parent had none.
    pub extra_records: usize,
    /// Full per-line matches run (parent noise lines, exposed mid-record lines).
    pub full_line_matches: usize,
}

impl DeltaParseStats {
    /// `true` when every variant cell in a shared-*prefix* column is a verbatim copy of the
    /// parent's: every parent record was visited and carried forward, and no record exists
    /// that the parent did not have.  Prefix-column aggregates can then be reused by the
    /// incremental scorer.
    pub fn prefix_aligned(&self) -> bool {
        self.consulted_records == self.parent_records
            && self.dropped_records == 0
            && self.extra_records == 0
    }

    /// `true` when shared-*suffix* columns are verbatim copies too: additionally, no
    /// record's suffix had to be re-matched against the text.
    pub fn suffix_aligned(&self) -> bool {
        self.prefix_aligned() && self.reused_records == self.parent_records
    }
}

/// Runs one compiled template against the record start at `line` and applies the shared
/// acceptance rules ([`accept_span`]), recording the match as `template_index`; the arenas
/// are rolled back on any failure.  Every per-template match goes through here: the
/// matcher's trial loop, the single-template parse and the delta parser's fallback.
#[allow(clippy::too_many_arguments)]
#[inline]
fn match_compiled(
    compiled: &CompiledTemplate,
    template_index: u32,
    dataset: &Dataset,
    line: usize,
    max_line_span: usize,
    cells: &mut Vec<FieldCell>,
    reps: &mut Vec<u32>,
    stack: &mut Vec<(usize, u32)>,
) -> Option<SpanRecord> {
    if compiled.ops.is_empty() {
        return None;
    }
    let text = dataset.text().as_bytes();
    let start = dataset.line_start(line);
    let cell_mark = cells.len() as u32;
    let rep_mark = reps.len() as u32;
    let end = compiled.run(text, start, cells, reps, stack)?;
    match accept_span(dataset, line, start, end, max_line_span) {
        Some(line_end) => Some(SpanRecord {
            template_index,
            byte_span: (start, end),
            line_span: (line, line_end),
            cell_range: (cell_mark, cells.len() as u32),
            rep_range: (rep_mark, reps.len() as u32),
        }),
        None => {
            // Matched but rejected by the boundary/span rules: roll the arenas back, exactly
            // like the tree walker.
            cells.truncate(cell_mark as usize);
            reps.truncate(rep_mark as usize);
            None
        }
    }
}

/// The greedy left-to-right segmentation every full-dataset parse runs: at each line ask
/// `match_at` for a record starting there (it appends the record's cells and repetition
/// counts to `out`'s arenas) and jump past it, or else count the line as noise and move
/// on by one.  `out` is cleared first.
#[inline]
fn segment<F>(dataset: &Dataset, out: &mut SpanParse, mut match_at: F)
where
    F: FnMut(usize, &mut SpanParse) -> Option<SpanRecord>,
{
    out.clear();
    let n = dataset.line_count();
    let mut line = 0usize;
    while line < n {
        match match_at(line, out) {
            Some(rec) => {
                out.record_bytes += rec.byte_len();
                line = rec.line_span.1;
                out.records.push(rec);
            }
            None => {
                let (s, e) = dataset.line_span(line);
                out.noise_bytes += e - s;
                out.noise_lines.push(line);
                line += 1;
            }
        }
    }
}

/// The record-acceptance rules shared by every span matching path
/// ([`SpanLineMatcher::match_line_into`], the delta parser, the compiled fallback): the
/// match must end on a line boundary, span at most `max_line_span` lines, and consume at
/// least one byte.  Returns the exclusive end line on acceptance.
fn accept_span(
    dataset: &Dataset,
    line: usize,
    start: usize,
    end: usize,
    max_line_span: usize,
) -> Option<usize> {
    let text_len = dataset.text().len();
    let n = dataset.line_count();
    let end_line = line_of_offset(dataset, end, line);
    let ends_on_boundary = end == text_len
        || end_line
            .map(|l| dataset.line_start(l) == end)
            .unwrap_or(false);
    let line_span_end = end_line.unwrap_or(n);
    if ends_on_boundary && line_span_end - line <= max_line_span && end > start {
        Some(line_span_end)
    } else {
        None
    }
}

/// Full greedy segmentation with a single already-compiled template into a caller-owned
/// (recyclable) parse — identical output to a [`SpanLineMatcher`] over that template
/// alone, without re-compiling it.  The refiner parses every from-scratch evaluation
/// through it, and it is the delta engine's exact fallback whenever no usable diff exists
/// (different charsets, no shared ops, no parent).
pub(crate) fn parse_compiled_into(
    dataset: &Dataset,
    compiled: &CompiledTemplate,
    max_line_span: usize,
    out: &mut SpanParse,
) {
    let mut stack: Vec<(usize, u32)> = Vec::new();
    segment(dataset, out, |line, out| {
        match_compiled(
            compiled,
            0,
            dataset,
            line,
            max_line_span,
            &mut out.cells,
            &mut out.reps,
            &mut stack,
        )
    });
}

/// Parses the dataset with a refinement variant by *delta* against its parent's parse:
/// wherever the parent has a record starting on the greedy path, the variant's shared
/// prefix is replayed from the parent's arenas (zero byte scanning), only the dirty op
/// range is re-matched against the text, and — when the dirty region ends exactly where
/// the parent's did — the shared suffix is copied forward too (cells renumbered through
/// [`TemplateDiff::suffix_col_shift`], repetition counts verbatim).  Lines without a
/// parent record fall back to a full single-template match.
///
/// The output is **identical** to `SpanLineMatcher::new(&[variant], max_line_span)`'s
/// parse for every template pair [`diff_compiled`] accepts: the per-line match question
/// depends only on the text from that line onward, the shared ranges match
/// byte-identically by construction (same ops, same charset, same start position), and
/// every divergence — failed dirty region, misaligned suffix — falls back to running the
/// real matcher.  Enforced by the delta property suite and
/// `tests/evaluation_equivalence.rs`.
#[allow(clippy::too_many_arguments)]
pub fn delta_parse(
    dataset: &Dataset,
    parent_compiled: &CompiledTemplate,
    parent: &SpanParse,
    variant_compiled: &CompiledTemplate,
    diff: &TemplateDiff,
    max_line_span: usize,
    out: &mut SpanParse,
) -> DeltaParseStats {
    let mut stats = DeltaParseStats {
        parent_records: parent.records.len(),
        ..Default::default()
    };
    let mut stack: Vec<(usize, u32)> = Vec::new();
    let mut rec_idx = 0usize;
    segment(dataset, out, |line, out| {
        // The parent record starting exactly at `line`, if any (records are in document
        // order, and the greedy cursor only moves forward).
        while rec_idx < parent.records.len() && parent.records[rec_idx].line_span.0 < line {
            rec_idx += 1;
        }
        let parent_rec = parent
            .records
            .get(rec_idx)
            .filter(|r| r.line_span.0 == line);
        match parent_rec {
            Some(prec) => {
                stats.consulted_records += 1;
                delta_match_record(
                    dataset,
                    parent_compiled,
                    parent,
                    prec,
                    variant_compiled,
                    diff,
                    max_line_span,
                    out,
                    &mut stack,
                    &mut stats,
                )
            }
            None => {
                stats.full_line_matches += 1;
                let rec = match_compiled(
                    variant_compiled,
                    0,
                    dataset,
                    line,
                    max_line_span,
                    &mut out.cells,
                    &mut out.reps,
                    &mut stack,
                );
                if rec.is_some() {
                    stats.extra_records += 1;
                }
                rec
            }
        }
    });
    stats
}

/// The per-record delta step: prefix replay + copy, dirty re-match, suffix realign-or-rerun.
#[allow(clippy::too_many_arguments)]
fn delta_match_record(
    dataset: &Dataset,
    parent_compiled: &CompiledTemplate,
    parent: &SpanParse,
    prec: &SpanRecord,
    variant_compiled: &CompiledTemplate,
    diff: &TemplateDiff,
    max_line_span: usize,
    out: &mut SpanParse,
    stack: &mut Vec<(usize, u32)>,
    stats: &mut DeltaParseStats,
) -> Option<SpanRecord> {
    let text = dataset.text().as_bytes();
    let pcells = parent.record_cells(prec);
    let preps = parent.record_reps(prec);
    let start = prec.byte_span.0;
    let line = prec.line_span.0;
    let cell_mark = out.cells.len() as u32;
    let rep_mark = out.reps.len() as u32;

    // 1. Shared prefix: replay against the parent's recorded match (no byte scanning) and
    //    copy the cells/reps forward verbatim — prefix column and array numbering is
    //    identical in both templates.
    let (c1, r1, pos1) = parent_compiled.replay_range(0, diff.prefix_ops, pcells, preps, start);
    out.cells.extend_from_slice(&pcells[..c1]);
    out.reps.extend_from_slice(&preps[..r1]);

    // 2. Dirty region: run the variant's real matcher over the text.
    let v_len = variant_compiled.ops.len();
    let dirty_end = match variant_compiled.run_range(
        text,
        pos1,
        diff.prefix_ops,
        diff.variant_suffix,
        &mut out.cells,
        &mut out.reps,
        stack,
    ) {
        Some(pos) => pos,
        None => {
            out.cells.truncate(cell_mark as usize);
            out.reps.truncate(rep_mark as usize);
            stats.dropped_records += 1;
            return None;
        }
    };

    // 3. Shared suffix, with *progressive resync*: the suffix ops are shared (modulo
    //    renumbering), so walk them segment by segment — each top-level array is one
    //    segment, maximal plain-op runs between arrays another — running the variant
    //    against the text while replaying the parent against its arenas, and switch to
    //    copy-forward the moment the two positions coincide (from a common position,
    //    common ops under a common charset consume identically).  An unfold realigns
    //    right after the edited array — the one-shot end check would re-scan the whole
    //    tail — and a fully aligned record resyncs immediately at the suffix entry.
    let (c2, r2, parent_dirty_end) = parent_compiled.replay_range(
        diff.prefix_ops,
        diff.parent_suffix,
        &pcells[c1..],
        &preps[r1..],
        pos1,
    );
    let mut v_ip = diff.variant_suffix;
    let mut v_pos = dirty_end;
    let mut p_ip = diff.parent_suffix;
    let mut p_pos = parent_dirty_end;
    let mut p_cell = c1 + c2;
    let mut p_rep = r1 + r2;
    let mut resynced_at_entry = false;
    let end = loop {
        if v_pos == p_pos {
            // Resync: the rest of the suffix consumes exactly what the parent's did —
            // copy the recorded cells forward with the constant column renumbering.
            for cell in &pcells[p_cell..] {
                out.cells.push(FieldCell {
                    column: (cell.column as i64 + diff.suffix_col_shift) as usize,
                    ..*cell
                });
            }
            out.reps.extend_from_slice(&preps[p_rep..]);
            resynced_at_entry = v_ip == diff.variant_suffix;
            break prec.byte_span.1;
        }
        if v_ip >= v_len {
            break v_pos;
        }
        // One segment: a whole top-level array, or the maximal plain-op run up to the
        // next array (positions can only re-converge at an array's variable-length exit,
        // so checking at segment boundaries loses nothing).
        let seg_len = match variant_compiled.ops[v_ip] {
            Op::ArrayBegin { end_ip, .. } => end_ip as usize + 1 - v_ip,
            _ => {
                let mut k = v_ip + 1;
                while k < v_len && !matches!(variant_compiled.ops[k], Op::ArrayBegin { .. }) {
                    k += 1;
                }
                k - v_ip
            }
        };
        match variant_compiled.run_range(
            text,
            v_pos,
            v_ip,
            v_ip + seg_len,
            &mut out.cells,
            &mut out.reps,
            stack,
        ) {
            Some(pos) => v_pos = pos,
            None => {
                out.cells.truncate(cell_mark as usize);
                out.reps.truncate(rep_mark as usize);
                stats.dropped_records += 1;
                return None;
            }
        }
        let (dc, dr, pos) = parent_compiled.replay_range(
            p_ip,
            p_ip + seg_len,
            &pcells[p_cell..],
            &preps[p_rep..],
            p_pos,
        );
        p_cell += dc;
        p_rep += dr;
        p_pos = pos;
        v_ip += seg_len;
        p_ip += seg_len;
    };

    if resynced_at_entry {
        stats.reused_records += 1;
        // Same end as the parent record, which already passed the acceptance rules.
        return Some(SpanRecord {
            template_index: 0,
            byte_span: prec.byte_span,
            line_span: prec.line_span,
            cell_range: (cell_mark, out.cells.len() as u32),
            rep_range: (rep_mark, out.reps.len() as u32),
        });
    }
    match accept_span(dataset, line, start, end, max_line_span) {
        Some(line_end) => {
            stats.rematched_records += 1;
            Some(SpanRecord {
                template_index: 0,
                byte_span: (start, end),
                line_span: (line, line_end),
                cell_range: (cell_mark, out.cells.len() as u32),
                rep_range: (rep_mark, out.reps.len() as u32),
            })
        }
        None => {
            out.cells.truncate(cell_mark as usize);
            out.reps.truncate(rep_mark as usize);
            stats.dropped_records += 1;
            None
        }
    }
}

// ---------------------------------------------------------------------------------------
// Fused multi-template matching: merged Glushkov NFA lowered to a byte-class DFA
// ---------------------------------------------------------------------------------------

/// State flag: at most one template is still alive — stop walking and trial it (the walk
/// can only shrink the candidate set further, and trialing one template is cheaper than
/// finishing the walk).  Also covers the dead state (zero alive templates).
const FUSED_EXIT_EARLY: u8 = 1;
/// State flag: entering this state completes at least one template's op table.
const FUSED_HAS_ACCEPTS: u8 = 2;
/// State flag: at least one byte self-transitions here — worth attempting the wide
/// self-byte sweep (field runs where every alive template is in a self-loop).
const FUSED_SWEEPS: u8 = 4;
/// State flag: the state is interned but its transition row has not been computed yet —
/// the lazy determinization builds it on first entry.
const FUSED_UNBUILT: u8 = 8;
/// Transition sentinel: the determinization state cap was hit before this target was
/// interned.  The walk stops and falls back to the last state's (conservative) alive set.
const FUSED_OVERFLOW: u32 = u32::MAX;
/// Hard cap on lazily interned DFA states per cache.  Determinization is *lazy* — only
/// states actually reached by walked text are interned, so even template sets whose full
/// static subset construction would explode (near-identical templates differing in one
/// byte class reach the powerset) stay small here; the cap bounds adversarial input,
/// degrading to a partial walk, never to wrong output.
const FUSED_MAX_STATES: usize = 32768;
/// Floor for the memory-budgeted state cap: even very wide sets (hundreds of templates,
/// large position bitsets) get at least this much pruning depth.
const FUSED_MIN_STATES: usize = 1024;
/// Approximate per-cache memory budget the state cap is derived from
/// ([`CompiledTemplateSet::build`] divides it by the per-state footprint).  Caches are
/// per-worker scratch, so the parallel engine holds one budget per thread.
const FUSED_CACHE_BUDGET: usize = 64 << 20;
/// Cap on bytes walked per record start — records are line-bounded and small, so pruning
/// precision is exhausted long before this; the cap bounds worst-case work on degenerate
/// inputs (one multi-megabyte line).
const FUSED_WALK_CAP: usize = 4096;
/// Lines per batched-dispatch refill in [`SpanLineMatcher::parse_into_with`].
const FUSED_BATCH_LINES: usize = 1024;

/// Byte capability of one NFA position: a single literal byte, the conservative
/// field-content byte set of one charset (deduped across templates), or a template's
/// virtual end marker (consumes nothing; reaching it means the op table completed).
#[derive(Clone, Copy)]
enum PosBytes {
    Single(u8),
    Field(u16),
    End,
}

/// Build-time merged NFA over a template set's op tables — one Glushkov position per
/// consumed byte, plus one virtual end position per template.  `Op::Byte` and each literal
/// byte contribute one exact-byte position; `Op::Field` contributes one position with a
/// self-loop over the charset's field-content bytes (one-or-more, over-approximating the
/// deterministic maximal-munch scan); `Op::ArrayBegin` is ε (the body runs at least once);
/// `Op::ArrayEnd` contributes the separator bytes (looping back to the body) and the
/// terminator bytes (falling through).  Wherever a position's continuation can complete
/// the op table, its follow set includes the template's end position.  Every real
/// execution of `CompiledTemplate::run` is one path through this NFA, so the DFA built
/// from it never prunes a template the trial loop would have matched.
#[derive(Default)]
struct FusedNfa {
    template_of: Vec<u32>,
    bytes_of: Vec<PosBytes>,
    follow: Vec<Vec<u32>>,
    field_sets: Vec<[bool; 256]>,
    start: Vec<u32>,
}

impl FusedNfa {
    fn add_template(&mut self, index: u32, ct: &CompiledTemplate) {
        if ct.ops.is_empty() {
            return;
        }
        // Conservative field-content set: every byte `scan_field` can possibly consume.
        // Bytes ≥ 0x80 are included wholesale (only Latin-1 formatting code points can
        // stop the scan, and only on some continuation bytes) — over-approximation keeps
        // the prefilter sound.
        let mut fs = [false; 256];
        for (b, slot) in fs.iter_mut().enumerate() {
            *slot = b >= 0x80 || !ct.class.fmt[b];
        }
        let fsid = match self.field_sets.iter().position(|s| *s == fs) {
            Some(i) => i as u16,
            None => {
                self.field_sets.push(fs);
                (self.field_sets.len() - 1) as u16
            }
        };

        // Positions are laid out in op order, so most follow edges are shift-by-one; the
        // template's virtual end position comes last.
        let base = self.template_of.len() as u32;
        let mut pos_start = Vec::with_capacity(ct.ops.len());
        let mut next = base;
        for op in &ct.ops {
            pos_start.push(next);
            next += match *op {
                Op::Byte { .. } | Op::Field { .. } => 1,
                Op::Literal { len, .. } => len,
                Op::ArrayBegin { .. } => 0,
                Op::ArrayEnd {
                    separator,
                    terminator,
                    ..
                } => u32::from(separator.len) + u32::from(terminator.len),
            };
        }
        let pe = next;

        // First positions of the continuation starting at op `ip`, plus whether the
        // template can end there.  `ArrayBegin` chains strictly increase `ip`, so the loop
        // terminates; an `ArrayEnd` continuation offers both its separator and terminator
        // (the runtime decides terminator-first, the NFA over-approximates with the union).
        let first = |mut ip: usize| -> (Vec<u32>, bool) {
            loop {
                if ip >= ct.ops.len() {
                    return (Vec::new(), true);
                }
                match ct.ops[ip] {
                    Op::ArrayBegin { .. } => ip += 1,
                    Op::ArrayEnd { separator, .. } => {
                        let p = pos_start[ip];
                        return (vec![p, p + u32::from(separator.len)], false);
                    }
                    _ => return (vec![pos_start[ip]], false),
                }
            }
        };

        // Continuation-can-complete becomes an edge to the end position.
        let seal = |mut f: Vec<u32>, acc: bool| -> Vec<u32> {
            if acc {
                f.push(pe);
            }
            f
        };

        for (ip, op) in ct.ops.iter().enumerate() {
            match *op {
                Op::Byte { byte } => {
                    let (f, acc) = first(ip + 1);
                    self.template_of.push(index);
                    self.bytes_of.push(PosBytes::Single(byte));
                    self.follow.push(seal(f, acc));
                }
                Op::Literal { start, len } => {
                    let lit = ct.lit(start, len);
                    let p = pos_start[ip];
                    for (j, &b) in lit.iter().enumerate() {
                        let (f, acc) = if j + 1 < lit.len() {
                            (vec![p + j as u32 + 1], false)
                        } else {
                            first(ip + 1)
                        };
                        self.template_of.push(index);
                        self.bytes_of.push(PosBytes::Single(b));
                        self.follow.push(seal(f, acc));
                    }
                }
                Op::Field { .. } => {
                    let p = pos_start[ip];
                    let (mut f, acc) = first(ip + 1);
                    f.push(p); // one-or-more: the field may keep consuming
                    self.template_of.push(index);
                    self.bytes_of.push(PosBytes::Field(fsid));
                    self.follow.push(seal(f, acc));
                }
                Op::ArrayBegin { .. } => {}
                Op::ArrayEnd {
                    body_ip,
                    separator,
                    terminator,
                } => {
                    let p = pos_start[ip];
                    let sep_len = separator.len as usize;
                    for j in 0..sep_len {
                        // A completed separator re-enters the body, which never ends the
                        // template.
                        let f = if j + 1 < sep_len {
                            vec![p + j as u32 + 1]
                        } else {
                            first(body_ip as usize).0
                        };
                        self.template_of.push(index);
                        self.bytes_of.push(PosBytes::Single(separator.bytes[j]));
                        self.follow.push(f);
                    }
                    let q = p + u32::from(separator.len);
                    let term_len = terminator.len as usize;
                    for j in 0..term_len {
                        let (f, acc) = if j + 1 < term_len {
                            (vec![q + j as u32 + 1], false)
                        } else {
                            first(ip + 1)
                        };
                        self.template_of.push(index);
                        self.bytes_of.push(PosBytes::Single(terminator.bytes[j]));
                        self.follow.push(seal(f, acc));
                    }
                }
            }
        }
        debug_assert_eq!(self.template_of.len() as u32, pe);
        self.template_of.push(index);
        self.bytes_of.push(PosBytes::End);
        self.follow.push(Vec::new());
        let (f, _) = first(0);
        self.start.extend(f);
    }
}

#[inline]
fn set_bit(words: &mut [u64], bit: usize) {
    words[bit >> 6] |= 1 << (bit & 63);
}

/// A template *set* compiled into one merged dispatch structure: the byte-class prefix
/// trie over the templates' op tables, determinized **lazily** against a per-worker
/// [`FusedDfaCache`] into a DFA whose single pass over a record's bytes answers *"which
/// templates can still match here?"* in `O(1)` per byte, independent of template count.
///
/// A DFA state is a set of NFA *cursor* positions — positions that may consume the next
/// byte — so `δ(S, b) = ∪ {follow(p) : p ∈ S, b ∈ bytes(p)}`, and the start state is the
/// union of the templates' first positions.  The walk tracks two sets: **alive**
/// (templates with a surviving cursor — the match could still complete further right) and
/// **accepted** (templates whose op table already completed at some walked prefix, i.e.
/// whose virtual end position was entered).  Their union is a proven superset of the
/// templates whose `CompiledTemplate::run` succeeds at that start, so trialing only the
/// survivors in index order reproduces the trial loop's output byte-for-byte — the span
/// acceptance rules (`accept_span`) still run per survivor, exactly as before.
///
/// Determinization is lazy because near-identical template sets (e.g. many templates
/// sharing one structure and differing in a single byte class, the common shape of
/// log-template catalogs) make the *static* subset construction explode toward the
/// powerset of templates, while the states actually reached by real record text number
/// in the hundreds.  States are interned and their transition rows computed on first
/// entry; the cache lives in [`SpanScratch`], so each worker warms its own table once
/// and every subsequent batch hits hot rows.
///
/// Everything degrades conservatively, never incorrectly: hitting the state cap, the walk
/// cap, or the end of text stops the walk with the current alive set still in the
/// candidate mask.
pub struct CompiledTemplateSet {
    n_templates: usize,
    n_nonempty: u32,
    /// Words per candidate mask: `ceil(n_templates / 64)`.
    words: usize,
    /// Words per NFA position bitset: `ceil(positions / 64)`.
    pw: usize,
    n_classes: usize,
    class_of: [u8; 256],
    /// Row-major `n_classes × pw` position columns: the NFA positions able to consume a
    /// byte of each class.
    class_cols: Vec<u64>,
    /// CSR-flattened follow sets: edges of position `p` are
    /// `follow_edges[follow_off[p]..follow_off[p + 1]]`.
    follow_off: Vec<u32>,
    follow_edges: Vec<u32>,
    /// Owning template of each NFA position.
    template_of: Vec<u32>,
    /// Bitset (`pw` words) of the per-template virtual end positions.
    is_end: Vec<u64>,
    /// The start state's position bitset (union of every template's first positions).
    start_bits: Box<[u64]>,
    /// Memory-budgeted cache state cap: [`FUSED_CACHE_BUDGET`] divided by this set's
    /// per-state footprint, clamped to `[FUSED_MIN_STATES, FUSED_MAX_STATES]`.
    max_states: usize,
    /// Unique identity for cache invalidation: a [`FusedDfaCache`] keyed to a different
    /// set resets itself before the first walk.
    set_id: u64,
}

/// Per-worker lazy-DFA state table for one [`CompiledTemplateSet`] — interned position
/// bitsets, transition rows, per-state alive/accept masks, self-byte sweep maps, and
/// flags, grown on demand as walks reach new states.  Lives in [`SpanScratch`] so the
/// batched dispatch reuses hot rows across lines, batches, and streaming windows.
#[derive(Clone, Debug, Default)]
pub struct FusedDfaCache {
    set_id: u64,
    /// Interned position bitsets; the intern map shares the same allocations.
    states: Vec<std::sync::Arc<[u64]>>,
    map: FxHashMap<std::sync::Arc<[u64]>, u32>,
    /// Row-major `states × n_classes`; rows are garbage until the state's
    /// [`FUSED_UNBUILT`] flag clears.
    trans: Vec<u32>,
    alive: Vec<u64>,
    accept: Vec<u64>,
    /// Row-major `states × 4` (256-bit) sets of bytes that keep the state unchanged.
    self_bytes: Vec<u64>,
    flags: Vec<u8>,
    /// Reusable target-bitset buffer for row construction.
    target: Vec<u64>,
    overflowed: bool,
}

impl FusedDfaCache {
    /// Number of DFA states interned so far (data-driven: only states some walked text
    /// actually reached).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// `true` when lazy determinization hit the state cap — walks beyond the cap degrade
    /// to conservative (unpruned) candidate sets.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }
}

/// Monotonic source of [`CompiledTemplateSet::set_id`] values.
static FUSED_SET_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl CompiledTemplateSet {
    /// Builds the merged DFA for `compiled`, or `None` when fewer than two templates have
    /// a non-empty op table (the per-template matcher is already optimal there, so the
    /// single-template path is the trial loop itself).
    pub fn build(compiled: &[CompiledTemplate]) -> Option<CompiledTemplateSet> {
        let n_nonempty = compiled.iter().filter(|c| !c.ops.is_empty()).count();
        if n_nonempty < 2 {
            return None;
        }
        let mut nfa = FusedNfa::default();
        for (i, ct) in compiled.iter().enumerate() {
            nfa.add_template(i as u32, ct);
        }
        let positions = nfa.template_of.len();
        let pw = positions.div_ceil(64);

        // Per-byte position columns, compressed into byte classes (bytes with identical
        // columns transition identically, so the DFA stores one column per class).  End
        // positions consume nothing and belong to no column.
        let mut cols: Vec<Vec<u64>> = vec![vec![0u64; pw]; 256];
        for (pos, pb) in nfa.bytes_of.iter().enumerate() {
            match *pb {
                PosBytes::Single(b) => set_bit(&mut cols[b as usize], pos),
                PosBytes::Field(fi) => {
                    let fs = nfa.field_sets[fi as usize];
                    for (b, col) in cols.iter_mut().enumerate() {
                        if fs[b] {
                            set_bit(col, pos);
                        }
                    }
                }
                PosBytes::End => {}
            }
        }
        let mut class_of = [0u8; 256];
        let mut class_cols: Vec<Vec<u64>> = Vec::new();
        {
            let mut seen: FxHashMap<&[u64], u8> = FxHashMap::default();
            for (b, col) in cols.iter().enumerate() {
                let id = match seen.get(col.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = class_cols.len() as u8;
                        seen.insert(col.as_slice(), id);
                        class_cols.push(col.clone());
                        id
                    }
                };
                class_of[b] = id;
            }
        }
        let n_classes = class_cols.len();

        // Flatten the NFA into the cache-friendly static tables the lazy determinization
        // walks: CSR follow sets, an end-position bitset, and the start-state bitset.
        let mut follow_off: Vec<u32> = Vec::with_capacity(positions + 1);
        let mut follow_edges: Vec<u32> = Vec::new();
        follow_off.push(0);
        for f in &nfa.follow {
            follow_edges.extend_from_slice(f);
            follow_off.push(follow_edges.len() as u32);
        }
        let mut is_end = vec![0u64; pw];
        for (pos, pb) in nfa.bytes_of.iter().enumerate() {
            if matches!(pb, PosBytes::End) {
                set_bit(&mut is_end, pos);
            }
        }
        let mut start_bits = vec![0u64; pw].into_boxed_slice();
        for &q in &nfa.start {
            set_bit(&mut start_bits, q as usize);
        }
        let flat_cols: Vec<u64> = class_cols.into_iter().flatten().collect();

        // Memory-budgeted cache cap: per interned state the cache holds the position
        // bitset, a transition row, alive/accept masks, the self-byte set, and a flag.
        let words = compiled.len().div_ceil(64).max(1);
        let per_state = pw * 8 + n_classes * 4 + words * 16 + 48;
        let max_states = (FUSED_CACHE_BUDGET / per_state).clamp(FUSED_MIN_STATES, FUSED_MAX_STATES);

        Some(CompiledTemplateSet {
            n_templates: compiled.len(),
            n_nonempty: n_nonempty as u32,
            words,
            pw,
            n_classes,
            class_of,
            class_cols: flat_cols,
            follow_off,
            follow_edges,
            template_of: nfa.template_of,
            is_end,
            start_bits,
            max_states,
            set_id: FUSED_SET_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Number of templates the set was compiled from.
    pub fn template_count(&self) -> usize {
        self.n_templates
    }

    /// Number of byte classes (bytes that transition identically share one class).
    pub fn byte_class_count(&self) -> usize {
        self.n_classes
    }

    /// Words per candidate mask (`ceil(template_count / 64)`).
    pub fn mask_words(&self) -> usize {
        self.words
    }

    /// Resets `cache` for this template set if it was built for a different one (or never
    /// built), interning the start state as state 0.
    fn ensure_cache(&self, cache: &mut FusedDfaCache) {
        if cache.set_id == self.set_id {
            return;
        }
        *cache = FusedDfaCache {
            set_id: self.set_id,
            target: vec![0u64; self.pw],
            ..FusedDfaCache::default()
        };
        let start = self.start_bits.clone();
        self.intern(cache, &start);
    }

    /// Interns the position bitset `bits` as a DFA state in `cache`, returning its id (or
    /// [`FUSED_OVERFLOW`] once the state cap is hit).  New states get their template
    /// alive/accept masks and flags computed eagerly but their transition row lazily
    /// ([`FUSED_UNBUILT`]): only rows the walked data actually enters are ever built, which
    /// is what keeps near-identical template sets from exploding into the powerset.
    fn intern(&self, cache: &mut FusedDfaCache, bits: &[u64]) -> u32 {
        if let Some(&id) = cache.map.get(bits) {
            return id;
        }
        if cache.states.len() >= self.max_states {
            cache.overflowed = true;
            return FUSED_OVERFLOW;
        }
        let id = cache.states.len() as u32;
        let shared: std::sync::Arc<[u64]> = bits.to_vec().into();
        cache.map.insert(shared.clone(), id);
        cache.states.push(shared);
        let base = cache.alive.len();
        cache.alive.resize(base + self.words, 0);
        cache.accept.resize(base + self.words, 0);
        for (w, &word) in bits.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                let pos = (w << 6) + b.trailing_zeros() as usize;
                b &= b - 1;
                let t = self.template_of[pos] as usize;
                if self.is_end[pos >> 6] >> (pos & 63) & 1 != 0 {
                    set_bit(&mut cache.accept[base..base + self.words], t);
                } else {
                    set_bit(&mut cache.alive[base..base + self.words], t);
                }
            }
        }
        let alive_count: u32 = cache.alive[base..base + self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let mut flags = FUSED_UNBUILT;
        if alive_count <= 1 {
            flags |= FUSED_EXIT_EARLY;
        }
        if cache.accept[base..base + self.words]
            .iter()
            .any(|&w| w != 0)
        {
            flags |= FUSED_HAS_ACCEPTS;
        }
        cache.flags.push(flags);
        cache
            .trans
            .resize(cache.trans.len() + self.n_classes, FUSED_OVERFLOW);
        cache.self_bytes.resize(cache.self_bytes.len() + 4, 0);
        id
    }

    /// Computes the transition row for state `s` (first entry during a walk): one
    /// δ(S, class) target per byte class, each interned on the fly, plus the self-byte
    /// sweep set.  Clears [`FUSED_UNBUILT`] and sets [`FUSED_SWEEPS`] as appropriate.
    fn build_row(&self, cache: &mut FusedDfaCache, s: usize) {
        let bits = cache.states[s].clone();
        let mut target = std::mem::take(&mut cache.target);
        for class in 0..self.n_classes {
            let col = &self.class_cols[class * self.pw..(class + 1) * self.pw];
            target.iter_mut().for_each(|w| *w = 0);
            for (w, (&sw, &cw)) in bits.iter().zip(col).enumerate() {
                let mut b = sw & cw;
                while b != 0 {
                    let pos = (w << 6) + b.trailing_zeros() as usize;
                    b &= b - 1;
                    let lo = self.follow_off[pos] as usize;
                    let hi = self.follow_off[pos + 1] as usize;
                    for &q in &self.follow_edges[lo..hi] {
                        set_bit(&mut target, q as usize);
                    }
                }
            }
            let id = self.intern(cache, &target);
            cache.trans[s * self.n_classes + class] = id;
        }
        cache.target = target;
        for b in 0..256usize {
            if cache.trans[s * self.n_classes + self.class_of[b] as usize] == s as u32 {
                set_bit(&mut cache.self_bytes[s * 4..s * 4 + 4], b);
            }
        }
        cache.flags[s] &= !FUSED_UNBUILT;
        if cache.self_bytes[s * 4..s * 4 + 4].iter().any(|&w| w != 0) {
            cache.flags[s] |= FUSED_SWEEPS;
        }
    }

    /// Walks the lazily-determinized DFA over `text` from `start`, OR-ing the
    /// candidate-template bits into the caller-zeroed `mask` (`mask_words()` words).  The
    /// walk runs byte by byte — accumulating accepts as template tables complete, taking
    /// the wide self-byte sweep through field runs, building transition rows on a state's
    /// first entry — and stops at early-exit, dead state, overflow, the walk cap, or end of
    /// text, whichever comes first.
    fn walk(&self, cache: &mut FusedDfaCache, text: &[u8], start: usize, mask: &mut [u64]) {
        debug_assert_eq!(mask.len(), self.words);
        self.ensure_cache(cache);
        let cap_end = text.len().min(start + FUSED_WALK_CAP);
        let nc = self.n_classes;
        let mut state = 0usize;
        let mut pos = start;
        // Flag handling runs at the *top* of the iteration for the state entered on the
        // previous byte (or in the epilogue for the final state); accept-OR is idempotent,
        // so processing a state once per entry or once per consumed byte is equivalent.
        // The steady-state common case (built, no sweep, no accepts) is one load and a
        // predictable branch per byte.
        while pos < cap_end {
            let mut f = cache.flags[state];
            if f != 0 {
                if f & FUSED_EXIT_EARLY != 0 {
                    break;
                }
                if f & FUSED_HAS_ACCEPTS != 0 {
                    let acc = &cache.accept[state * self.words..][..self.words];
                    for (m, a) in mask.iter_mut().zip(acc) {
                        *m |= a;
                    }
                }
                if f & FUSED_UNBUILT != 0 {
                    self.build_row(cache, state);
                    f = cache.flags[state];
                }
                if f & FUSED_SWEEPS != 0 {
                    let sb = &cache.self_bytes[state * 4..state * 4 + 4];
                    while pos < cap_end {
                        let b = text[pos] as usize;
                        if sb[b >> 6] & (1 << (b & 63)) == 0 {
                            break;
                        }
                        pos += 1;
                    }
                    if pos >= cap_end {
                        break;
                    }
                }
            }
            let class = self.class_of[text[pos] as usize] as usize;
            let next = cache.trans[state * nc + class];
            if next == FUSED_OVERFLOW {
                break;
            }
            pos += 1;
            state = next as usize;
        }
        // The final state may have been entered on the last consumed byte without a
        // top-of-loop visit: fold in its accepts along with everything still alive.
        let acc = &cache.accept[state * self.words..][..self.words];
        let alive = &cache.alive[state * self.words..][..self.words];
        for (m, (a, al)) in mask.iter_mut().zip(acc.iter().zip(alive)) {
            *m |= a | al;
        }
    }

    /// The candidate templates for a record starting at byte `start`: a bitmask (index →
    /// bit) guaranteed to contain every template `CompiledTemplate::run` would match
    /// there.  `mask` is cleared and resized to [`CompiledTemplateSet::mask_words`].
    /// `cache` holds the lazily-built DFA states; reusing one across calls (as
    /// [`SpanScratch`] does) is what makes the walk cheap.
    pub fn candidates_into(
        &self,
        cache: &mut FusedDfaCache,
        text: &[u8],
        start: usize,
        mask: &mut Vec<u64>,
    ) {
        mask.clear();
        mask.resize(self.words, 0);
        self.walk(cache, text, start, mask);
    }
}

/// Per-chunk worker output of the parallel engine: per-line match table plus the worker's
/// private arenas (ranges in the records are worker-local until the stitch).
struct ChunkMatches {
    first: usize,
    matches: Vec<Option<SpanRecord>>,
    cells: Vec<FieldCell>,
    reps: Vec<u32>,
    stats: MatchStats,
}

/// The answer to *"does a record start at line `i`?"* for every line of a range, computed
/// by scoped worker threads — phase 1 of the parallel engine, reusable by any consumer
/// that replays the greedy segmentation itself ([`SpanLineMatcher::parse`]'s stitch, the
/// streaming extractor's per-window loop).  Records reference the worker-local arenas held
/// inside the table.
pub struct LineMatchTable {
    chunks: Vec<ChunkMatches>,
}

impl LineMatchTable {
    /// The match at `line`, with the record's cells and repetition counts resolved against
    /// the owning chunk's arenas.
    pub fn record_at(&self, line: usize) -> Option<(SpanRecord, &[FieldCell], &[u32])> {
        let k = match self.chunks.binary_search_by(|chunk| chunk.first.cmp(&line)) {
            Ok(k) => k,
            Err(0) => return None,
            Err(k) => k - 1,
        };
        let chunk = &self.chunks[k];
        let rec = chunk.matches.get(line - chunk.first)?.as_ref()?;
        Some((
            *rec,
            &chunk.cells[rec.cell_range.0 as usize..rec.cell_range.1 as usize],
            &chunk.reps[rec.rep_range.0 as usize..rec.rep_range.1 as usize],
        ))
    }

    /// Matcher work counters summed across all worker chunks.
    pub fn stats(&self) -> MatchStats {
        let mut total = MatchStats::default();
        for chunk in &self.chunks {
            total.merge(&chunk.stats);
        }
        total
    }
}

/// The extraction pass the pipeline runs: the span engine sharded across
/// [`DatamaranConfig::extraction_threads`] workers (inputs under `MIN_CHUNK_LINES` lines
/// per worker use fewer), copied into an owned [`ParseResult`].
/// Output is byte-identical to [`crate::parser::parse_dataset`] for any thread count.
pub fn extract_records(
    dataset: &Dataset,
    templates: &[StructureTemplate],
    config: &DatamaranConfig,
) -> ParseResult {
    let chunks = effective_workers(
        resolve_threads(config.extraction_threads),
        dataset.line_count(),
        MIN_CHUNK_LINES,
    );
    SpanLineMatcher::new(templates, config.max_line_span)
        .parse(dataset, chunks)
        .to_parse_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dataset;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn array(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        reduce(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn assert_same(a: &ParseResult, b: &ParseResult, label: &str) {
        assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
        assert_eq!(a.noise_lines, b.noise_lines, "{label}: noise lines");
        assert_eq!(a.record_bytes, b.record_bytes, "{label}: record bytes");
        assert_eq!(a.noise_bytes, b.noise_bytes, "{label}: noise bytes");
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.template_index, y.template_index, "{label}");
            assert_eq!(x.byte_span, y.byte_span, "{label}");
            assert_eq!(x.line_span, y.line_span, "{label}");
            assert_eq!(x.fields, y.fields, "{label}");
            assert_eq!(x.reps, y.reps, "{label}");
        }
        // Field-drift backstop: whatever fields ParseResult grows, full equality holds.
        assert_eq!(a, b, "{label}: full ParseResult equality");
    }

    /// The production matcher's sequential parse.
    fn span(data: &Dataset, templates: &[StructureTemplate], max_line_span: usize) -> SpanParse {
        SpanLineMatcher::new(templates, max_line_span).parse(data, 1)
    }

    fn check(text: &str, templates: &[StructureTemplate], label: &str) {
        let data = Dataset::new(text);
        let legacy = parse_dataset(&data, templates, 10);
        let matcher = SpanLineMatcher::new(templates, 10);
        for chunks in [1, 2, 3, 7] {
            let par = matcher.parse(&data, chunks).to_parse_result();
            assert_same(&legacy, &par, &format!("{label} ({chunks} chunks)"));
        }
    }

    #[test]
    fn compile_round_trips_flat_and_array_templates() {
        for t in [
            flat("[01:05] alice\n", "[]: \n"),
            flat("a) (b\n", "() \n"),
            array("1,2,3\n", ",\n"),
            array("a,\"x,y,z\",b\n", ",\"\n"),
            array("k: 1\nk: 2\nk: 3\nEND\n", ": \n"),
            StructureTemplate::new(vec![]),
        ] {
            assert_eq!(decompile(&compile(&t)), t, "round trip of {t}");
        }
    }

    #[test]
    fn compiled_counts_match_template() {
        let t = array("a,\"x,y,z\",b\n", ",\"\n");
        let c = compile(&t);
        assert_eq!(c.field_count(), t.field_count());
        assert!(c.array_count() >= 1);
    }

    #[test]
    fn matches_simple_records_identically() {
        let st = flat("[01:05] alice\n", "[]: \n");
        check(
            "[01:05] alice\n[02:06] bob\nnoise here!!\n[03:07] carol\n",
            &[st],
            "simple",
        );
    }

    #[test]
    fn matches_array_records_identically() {
        let st = array("1,2,3\n", ",\n");
        check("1,2,3\n4,5\n6,7,8,9\nnoise;;\n10,11\n", &[st], "array");
    }

    #[test]
    fn matches_multi_line_and_interleaved_identically() {
        let a = flat("BEGIN 1\nvalue=10;ok\n", " =;\n");
        let b = flat("A|1\n", "|\n");
        let mut text = String::new();
        for i in 0..50 {
            if i % 3 == 0 {
                text.push_str(&format!("A|{i}\n"));
            } else {
                text.push_str(&format!("BEGIN {i}\nvalue={};ok\n", i * 7));
            }
            if i % 11 == 0 {
                text.push_str("### noise ###\n");
            }
        }
        check(&text, &[a, b], "interleaved");
    }

    #[test]
    fn nested_arrays_materialize_identically() {
        // A multi-line window whose reduction nests an array inside an array body.
        let text = "a|1\nb|2\nc|3\nd|4#\na|5\nb|6\nc|7\nd|8#\n";
        let st = array("a|1\nb|2\nc|3\nd|4#\n", "|#\n");
        assert!(st.has_array(), "test needs an array template: {st}");
        check(text, std::slice::from_ref(&st), "nested");
    }

    #[test]
    fn latin1_delimiters_match_byte_for_byte() {
        let st = flat("a§b\n", "§\n");
        check("a§b\nx§y\nplain line\n", &[st], "latin1");
    }

    #[test]
    fn non_latin1_content_is_field_material() {
        let st = flat("k=v\n", "=\n");
        check("k=v\n日本=語\nnoise\n", &[st], "utf8");
    }

    #[test]
    fn empty_template_never_matches() {
        let st = StructureTemplate::new(vec![]);
        check("a\nb\n", &[st], "empty");
    }

    #[test]
    fn span_limit_and_boundary_rules_replicated() {
        let st = flat("x:1\n", ":\n");
        let data = Dataset::new("x:1\nx:2\n");
        let span = span(&data, std::slice::from_ref(&st), 0);
        assert!(span.records.is_empty());
        assert_eq!(span.noise_lines.len(), 2);
        // Record ending mid-line is rejected.
        let st2 = flat("a-b\n", "-\n");
        check("a-b\nc-d junk-x\n", &[st2], "mid-line");
    }

    #[test]
    fn no_trailing_newline_still_matches() {
        let st = flat("k=v\n", "=\n");
        let data = Dataset::new("k=v\nk2=v2");
        // The final line lacks '\n', so only the first line matches — same as legacy.
        let legacy = parse_dataset(&data, std::slice::from_ref(&st), 10);
        let span = span(&data, std::slice::from_ref(&st), 10).to_parse_result();
        assert_same(&legacy, &span, "no trailing newline");
    }

    fn assert_span_parse_eq(a: &SpanParse, b: &SpanParse, label: &str) {
        assert_eq!(a.records, b.records, "{label}: records");
        assert_eq!(a.cells, b.cells, "{label}: cells");
        assert_eq!(a.reps, b.reps, "{label}: reps");
        assert_eq!(a.noise_lines, b.noise_lines, "{label}: noise lines");
        assert_eq!(a.record_bytes, b.record_bytes, "{label}: record bytes");
        assert_eq!(a.noise_bytes, b.noise_bytes, "{label}: noise bytes");
    }

    /// Delta-parses `variant` against a parent parse and asserts the result is identical
    /// to the from-scratch parse; returns the delta stats (`None` when no usable diff).
    fn check_delta(
        text: &str,
        parent: &StructureTemplate,
        variant: &StructureTemplate,
        label: &str,
    ) -> Option<DeltaParseStats> {
        let data = Dataset::new(text);
        let pc = compile(parent);
        let vc = compile(variant);
        let parent_parse = span(&data, std::slice::from_ref(parent), 10);
        let full = span(&data, std::slice::from_ref(variant), 10);
        let diff = diff_compiled(&pc, &vc)?;
        let mut delta = SpanParse::default();
        let stats = delta_parse(&data, &pc, &parent_parse, &vc, &diff, 10, &mut delta);
        assert_span_parse_eq(&full, &delta, label);
        assert_eq!(
            stats.consulted_records,
            stats.reused_records + stats.rematched_records + stats.dropped_records,
            "{label}: consulted = reused + rematched + dropped"
        );
        Some(stats)
    }

    #[test]
    fn diff_of_unfold_variant_shares_prefix_and_suffix() {
        // [F:F] (F.)*F GET\n  ->  unfold the IP array to 4 repetitions.
        let parent = array("[0:1] 1.2.3.4 GET\n", "[]:. \n");
        let paths = crate::refine::collect_array_paths(parent.nodes());
        assert!(!paths.is_empty());
        let variant = crate::refine::unfold_at(&parent, &paths[0], 4, false).unwrap();
        let diff = diff_compiled(&compile(&parent), &compile(&variant)).expect("usable diff");
        assert!(diff.has_common());
        assert!(diff.prefix_ops > 0, "prefix shared: {diff:?}");
        assert!(diff.suffix_ops > 0, "suffix shared: {diff:?}");
        assert_eq!(
            diff.suffix_col_shift,
            variant.field_count() as i64 - parent.field_count() as i64
        );
    }

    #[test]
    fn diff_rejects_charset_changes() {
        // Full unfold to a single repetition drops the separator from the template's
        // character set — field runs would delimit differently, so no diff.
        let parent = array("1,2,3\n", ",\n");
        let paths = crate::refine::collect_array_paths(parent.nodes());
        let variant = crate::refine::unfold_at(&parent, &paths[0], 1, false).unwrap();
        assert_ne!(parent.char_set(), variant.char_set());
        assert!(diff_compiled(&compile(&parent), &compile(&variant)).is_none());
    }

    #[test]
    fn delta_parse_matches_full_parse_on_unfolds() {
        // Constant-width section (delta reuses everything) plus ragged rows and noise
        // (delta drops / re-matches).
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("h{} 1.2.{}.{} ok\n", i % 7, i % 9, i % 5));
        }
        text.push_str("!! noise !!\nh8 1.2.3 ok\n");
        let parent = array("h9 1.2.3.4 ok\n", ". \n");
        assert!(parent.has_array());
        let paths = crate::refine::collect_array_paths(parent.nodes());
        for (reps, partial) in [(3, false), (1, true), (2, true), (4, false)] {
            if let Some(variant) = crate::refine::unfold_at(&parent, &paths[0], reps, partial) {
                let label = format!("unfold reps={reps} partial={partial}");
                let stats = check_delta(&text, &parent, &variant, &label);
                assert!(stats.is_some(), "{label}: expected a usable diff");
            }
        }
    }

    #[test]
    fn aligned_delta_parse_reuses_every_record() {
        let mut text = String::new();
        for i in 0..30 {
            text.push_str(&format!("a{} 10.0.0.{} x\n", i, i % 250));
        }
        let parent = array("a1 10.0.0.2 x\n", ". \n");
        let paths = crate::refine::collect_array_paths(parent.nodes());
        // Every record has exactly 4 IP components, so the full unfold to 4 realigns on
        // every record: nothing dropped, nothing extra, everything reused.
        let variant = crate::refine::unfold_at(&parent, &paths[0], 4, false).unwrap();
        let stats = check_delta(&text, &parent, &variant, "aligned unfold").unwrap();
        assert_eq!(stats.reused_records, stats.parent_records);
        assert!(
            stats.prefix_aligned() && stats.suffix_aligned(),
            "{stats:?}"
        );
        assert_eq!(stats.dropped_records, 0);
        assert_eq!(stats.extra_records, 0);
    }

    #[test]
    fn delta_parse_matches_full_parse_on_shift_rotations() {
        let mut text = String::new();
        for i in 0..25 {
            text.push_str(&format!("HDR {i}\nval={i};st=ok\n"));
        }
        let parent = flat("HDR 1\nval=2;st=ok\n", " =;\n");
        let mut checked = 0usize;
        for variant in crate::refine::shift_variants(&parent) {
            if check_delta(&text, &parent, &variant, &format!("shift to {variant}")).is_some() {
                checked += 1;
            }
        }
        assert!(checked > 0, "at least one rotation has a usable diff");
    }

    #[test]
    fn parse_compiled_into_matches_span_parse() {
        let text = "1,2,3\n4,5\n!! noise\n6,7,8,9\n";
        let data = Dataset::new(text);
        let t = array("1,2,3\n", ",\n");
        let full = span(&data, std::slice::from_ref(&t), 10);
        let mut out = SpanParse::default();
        parse_compiled_into(&data, &compile(&t), 10, &mut out);
        assert_span_parse_eq(&full, &out, "parse_compiled_into");
    }

    #[test]
    fn match_table_agrees_with_sequential_matching() {
        let mut text = String::new();
        for i in 0..60 {
            text.push_str(&format!("k{}=v{}\n", i, i * 3));
            if i % 13 == 2 {
                text.push_str("### noise ###\n");
            }
        }
        let data = Dataset::new(text);
        let t = flat("k=v\n", "=\n");
        let matcher = SpanLineMatcher::new(std::slice::from_ref(&t), 10);
        for chunks in [2, 3, 7] {
            let table = matcher.match_table(&data, chunks);
            let mut scratch = SpanScratch::default();
            let mut cells = Vec::new();
            let mut reps = Vec::new();
            for line in 0..data.line_count() {
                cells.clear();
                reps.clear();
                let direct =
                    matcher.match_line_into(&data, line, &mut cells, &mut reps, &mut scratch);
                let tabled = table.record_at(line);
                match (direct, tabled) {
                    (None, None) => {}
                    (Some(d), Some((t, tc, tr))) => {
                        assert_eq!(d.byte_span, t.byte_span, "line {line} ({chunks} chunks)");
                        assert_eq!(d.line_span, t.line_span, "line {line}");
                        assert_eq!(&cells[..], tc, "line {line}");
                        assert_eq!(&reps[..], tr, "line {line}");
                    }
                    (d, t) => panic!("line {line}: direct {d:?} vs table {t:?}"),
                }
            }
        }
    }

    #[test]
    fn extract_records_matches_the_tree_reference() {
        // Enough lines that three extraction threads really shard (512 lines per chunk).
        let mut text = String::new();
        for i in 0..1200 {
            text.push_str(&format!("{i},{},{}\n", i * 2, i % 5));
            if i % 97 == 3 {
                text.push_str(",, noise ,,\n");
            }
        }
        let data = Dataset::new(text);
        let templates = vec![array("1,2,3\n", ",\n")];
        let reference = parse_dataset(&data, &templates, 10);
        for threads in [1, 3] {
            let config = DatamaranConfig::default().with_extraction_threads(threads);
            let parse = extract_records(&data, &templates, &config);
            assert_same(&parse, &reference, &format!("{threads} threads"));
        }
    }

    /// Interleaved fixture over three record shapes (flat bracket, flat csv, array) plus
    /// noise; the csv/array rows collide on their first bytes so pruning must stay exact.
    fn interleaved_text() -> String {
        let mut text = String::new();
        for i in 0..80u32 {
            match i % 4 {
                0 => text.push_str(&format!("[{:02}:{:02}] host{} ok\n", i % 24, i % 60, i % 5)),
                1 => text.push_str(&format!("{i},{},{}\n", i * 7 % 40, i % 9)),
                2 => text.push_str(&format!("{};{};{}\n", i, i * 3 % 50, i % 7)),
                _ => text.push_str("### noise line ###\n"),
            }
        }
        text
    }

    fn fused_vs_trial(text: &str, templates: &[StructureTemplate], label: &str) {
        let data = Dataset::new(text);
        let trial = SpanLineMatcher::trial_reference(templates, 10).parse(&data, 1);
        let matcher = SpanLineMatcher::new(templates, 10);
        assert!(
            matcher.fused().is_some(),
            "{label}: the fused prefilter is built"
        );
        assert_span_parse_eq(&trial, &matcher.parse(&data, 1), label);
    }

    #[test]
    fn fused_matches_trial_on_mixed_template_sets() {
        let text = interleaved_text();
        let bracket = flat("[00:01] host1 ok\n", "[:] \n");
        let csv = flat("1,2,3\n", ",\n");
        let semi = array("1;2;3\n", ";\n");
        fused_vs_trial(&text, &[bracket.clone(), csv.clone()], "bracket+csv");
        fused_vs_trial(&text, &[csv.clone(), bracket.clone()], "csv+bracket");
        fused_vs_trial(
            &text,
            &[bracket.clone(), csv.clone(), semi.clone()],
            "bracket+csv+array",
        );
        fused_vs_trial(&text, &[semi, csv, bracket], "array+csv+bracket");
    }

    #[test]
    fn fused_matches_trial_on_multiline_templates() {
        let mut text = String::new();
        for i in 0..30 {
            text.push_str(&format!("[{i}] start\n  detail d{i}\n"));
            text.push_str(&format!("{i},{}\n", i * 2));
        }
        let two_line = flat("[1] start\n  detail d1\n", "[] \n");
        let csv = flat("1,2\n", ",\n");
        fused_vs_trial(&text, &[two_line, csv], "multiline+csv");
    }

    #[test]
    fn fused_build_requires_two_nonempty_templates() {
        let one = vec![flat("a,b\n", ",\n")];
        let matcher = SpanLineMatcher::new(&one, 10);
        assert!(matcher.fused().is_none(), "single template stays on trial");

        let two = vec![flat("a,b\n", ",\n"), flat("[x] y\n", "[] \n")];
        let matcher = SpanLineMatcher::new(&two, 10);
        let set = matcher.fused().expect("two templates compile to a set");
        assert_eq!(set.template_count(), 2);
        assert!(set.byte_class_count() >= 2);
        assert_eq!(set.mask_words(), 1);
        let data = Dataset::new("a,b\n[x] y\n");
        let mut out = SpanParse::default();
        let mut scratch = SpanScratch::default();
        matcher.parse_into_with(&data, &mut out, &mut scratch);
        assert_eq!(out.records.len(), 2);
        assert!(scratch.fused_dfa_states() >= 2, "walks interned DFA states");
        assert!(!scratch.fused_dfa_overflowed());

        let trial = SpanLineMatcher::trial_reference(&two, 10);
        assert!(
            trial.fused().is_none(),
            "the trial reference never compiles a set"
        );
    }

    #[test]
    fn fused_stats_track_pruning() {
        let text = interleaved_text();
        let data = Dataset::new(&text);
        let templates = vec![
            flat("[00:01] host1 ok\n", "[:] \n"),
            flat("1,2,3\n", ",\n"),
            array("1;2;3\n", ";\n"),
        ];
        let matcher = SpanLineMatcher::new(&templates, 10);
        let mut out = SpanParse::default();
        let mut scratch = SpanScratch::default();
        matcher.parse_into_with(&data, &mut out, &mut scratch);
        // Every line goes through the prefilter, which leaves its own template first.
        let fused = scratch.stats;
        assert_eq!(
            fused,
            MatchStats {
                lines_dispatched: 80,
                fused_dispatches: 80,
                templates_trialed: 80,
                templates_pruned: 120,
            }
        );

        // Trial reference: no line goes through a prefilter, so nothing is pruned, and the
        // loop trials templates in order until the first success.
        let trial = SpanLineMatcher::trial_reference(&templates, 10);
        let mut scratch = SpanScratch::default();
        trial.parse_into_with(&data, &mut out, &mut scratch);
        assert_eq!(
            scratch.stats,
            MatchStats {
                lines_dispatched: 80,
                fused_dispatches: 0,
                templates_trialed: 180,
                templates_pruned: 0,
            }
        );

        // Parallel match tables merge their per-chunk stats into the same totals.
        assert_eq!(matcher.match_table(&data, 3).stats(), fused);
    }

    #[test]
    fn parallel_backends_agree_with_explicit_backend() {
        let text = interleaved_text();
        let data = Dataset::new(&text);
        let templates = vec![flat("[00:01] host1 ok\n", "[:] \n"), flat("1,2,3\n", ",\n")];
        let trial = SpanLineMatcher::trial_reference(&templates, 10).parse(&data, 3);
        let fused = SpanLineMatcher::new(&templates, 10).parse(&data, 3);
        assert_span_parse_eq(&trial, &fused, "parallel fused vs trial");
    }
}
