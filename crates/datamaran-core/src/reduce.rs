//! Reduction of record templates into *minimal* structure templates (generation step 4).
//!
//! The generation step extracts a record template from every candidate record and then folds
//! repeated patterns into array-type regular expressions, producing a structure template that
//! "cannot be reduced further".  Records that instantiate the same logical structure with
//! different repetition counts (`F,F,F\n` and `F,F,F,F,F\n`) thereby land in the same hash
//! bin.
//!
//! The reduction is deterministic (leftmost position, smallest repetition period), which is
//! what makes the hash-table grouping of the generation step meaningful.  As the paper notes
//! (Appendix 9.1), determinism does not guarantee that *every* instantiation reduces to the
//! same template, so the coverage computed during generation is an underestimate.
//!
//! The folding pass (`reduce_codes`) writes the minimal template as a run of flat `u32`
//! codes, not as a tree: a formatting character is its own code (`c as u32`), a field is
//! `FIELD`, and an array is `ARRAY_OPEN`, its body's codes, `ARRAY_CLOSE`, then its
//! separator and terminator.  The three markers lie above `char::MAX`, so the run decodes
//! unambiguously (`decode`) and two runs are equal exactly when their templates are: the
//! generation step keys its hash table on the runs and builds a [`StructureTemplate`] only
//! for the few that become candidates.

use crate::record::{RecordTemplate, TemplateToken};
use crate::structure::{Node, StructureTemplate};

/// Maximum repetition-unit length (in template tokens) considered while folding.
/// Multi-line units (e.g. a repeated `key: value\n` line) comfortably fit.
pub(crate) const MAX_UNIT_TOKENS: usize = 48;

/// Minimum number of adjacent unit repetitions (before the trailing copy) required to fold.
pub(crate) const MIN_REPS: usize = 2;

/// Maximum token count on which tandem-repeat folding is attempted.  [`fold_at`] counts a
/// unit's copies as far as they repeat, so a long periodic run that never folds (its copies
/// run to the end without a distinct terminator) costs every start inside it
/// `O(tokens × MAX_UNIT_TOKENS)`: quadratic in the window length.  Real candidate records
/// sit far below this cap (an `L`-line window of ordinary log lines is a few hundred
/// tokens); a pathological window (very long lines, or thousands of short repeated groups)
/// is left as a flat Struct template instead of stalling the generation step.  The
/// generation engine and its reference share this function, so the cap cannot break their
/// differential equivalence.
pub(crate) const MAX_FOLD_TOKENS: usize = 4096;

/// Code of a field placeholder: the first value above `char::MAX`.
pub(crate) const FIELD: u32 = char::MAX as u32 + 1;

/// Code opening an array; the array's body codes follow.
pub(crate) const ARRAY_OPEN: u32 = FIELD + 1;

/// Code closing an array's body; the separator and terminator codes follow.
pub(crate) const ARRAY_CLOSE: u32 = FIELD + 2;

/// Reduces a record template to its minimal structure template: the decode of the codes
/// the folding pass emits for its tokens (see the module docs).
pub fn reduce(rt: &RecordTemplate) -> StructureTemplate {
    let mut codes = Vec::new();
    reduce_codes(rt.tokens(), &mut codes);
    decode(&codes)
}

/// The code of one unfolded token.
fn token_code(token: TemplateToken) -> u32 {
    match token {
        TemplateToken::Field => FIELD,
        TemplateToken::Ch(c) => c as u32,
    }
}

/// Appends the codes of a token sequence without folding: each token's own code.  Equals
/// [`reduce_codes`]'s output whenever [`tokens_have_fold_from`]`(tokens, 0)` is false *or*
/// the sequence exceeds [`MAX_FOLD_TOKENS`] — the equality the generation step's window
/// fast path relies on.
pub(crate) fn flat_codes(tokens: &[TemplateToken], out: &mut Vec<u32>) {
    out.extend(tokens.iter().map(|&token| token_code(token)));
}

/// Converts a token sequence to nodes without folding, merging adjacent characters into
/// one literal: what [`decode`] makes of the [`flat_codes`] run, so it equals [`reduce`]'s
/// output under the same conditions.
pub(crate) fn flat_nodes(tokens: &[TemplateToken]) -> Vec<Node> {
    let mut nodes = Vec::new();
    for &token in tokens {
        push_token(&mut nodes, token);
    }
    nodes
}

/// Appends one unfolded token: a field node, or a character merged into a trailing literal.
fn push_token(nodes: &mut Vec<Node>, token: TemplateToken) {
    match token {
        TemplateToken::Field => nodes.push(Node::Field),
        TemplateToken::Ch(c) => match nodes.last_mut() {
            Some(Node::Literal(s)) => s.push(c),
            _ => nodes.push(Node::Literal(c.to_string())),
        },
    }
}

/// `true` when the token sequence contains a foldable tandem repeat whose start index is
/// `>= min_start` — the fold predicate [`fold_at`] over a restricted start range, for the
/// generation step's incremental window scan.
///
/// The restriction is what makes window growth cheap: when a window known to be fold-free
/// is extended by one line (`old_len` → `n` tokens), any fold spec valid in the extended
/// window either lay entirely inside the old window (contradiction — it was fold-free) or
/// has its terminator at index `>= old_len`; in the latter case, trimming the repeat run
/// to its last [`MIN_REPS`] copies yields an equally valid spec starting at
/// `terminator - (MIN_REPS + 1) * unit_len + 1 >= old_len - (MIN_REPS + 1) * MAX_UNIT_TOKENS`.
/// Scanning only from that bound therefore decides fold-freeness of the whole window.
pub(crate) fn tokens_have_fold_from(tokens: &[TemplateToken], min_start: usize) -> bool {
    (min_start..tokens.len()).any(|start| fold_at(tokens, start).is_some())
}

/// Appends the minimal structure template of a token sequence to `out` as flat codes (see
/// the module docs), in one left-to-right pass: where a tandem repeat starts ([`fold_at`])
/// the pass emits its array, body reduced recursively, and jumps past the folded region;
/// every other token emits its own code.  Sequences longer than [`MAX_FOLD_TOKENS`] stay
/// flat (see the cap's doc).
///
/// One pass finds the same folds as searching the whole sequence for the leftmost fold and
/// starting over after each one: a fold region is made of plain tokens only, so a fold
/// starting before an earlier fold's start would lie wholly in tokens that fold did not
/// change, and the earlier search would already have found it.
pub(crate) fn reduce_codes(tokens: &[TemplateToken], out: &mut Vec<u32>) {
    if tokens.len() > MAX_FOLD_TOKENS {
        flat_codes(tokens, out);
        return;
    }
    let mut i = 0;
    while i < tokens.len() {
        match fold_at(tokens, i) {
            Some(fold) => {
                out.push(ARRAY_OPEN);
                reduce_codes(&tokens[i..i + fold.unit_len - 1], out);
                out.extend([ARRAY_CLOSE, fold.separator as u32, fold.terminator as u32]);
                i += fold.len();
            }
            None => {
                out.push(token_code(tokens[i]));
                i += 1;
            }
        }
    }
}

/// Decodes a code run written by [`reduce_codes`] into its structure template: characters
/// merge into literals, and each array's body is decoded up to its [`ARRAY_CLOSE`].
pub(crate) fn decode(codes: &[u32]) -> StructureTemplate {
    StructureTemplate::new(decode_nodes(&mut codes.iter()))
}

/// Decodes nodes until the run ends or an [`ARRAY_CLOSE`] ends the body being decoded.
fn decode_nodes(codes: &mut std::slice::Iter<'_, u32>) -> Vec<Node> {
    let mut nodes = Vec::new();
    while let Some(&code) = codes.next() {
        match code {
            FIELD => nodes.push(Node::Field),
            ARRAY_OPEN => {
                let body = decode_nodes(codes);
                let separator = decode_char(codes.next());
                let terminator = decode_char(codes.next());
                nodes.push(Node::Array {
                    body,
                    separator,
                    terminator,
                });
            }
            ARRAY_CLOSE => break,
            _ => push_token(&mut nodes, TemplateToken::Ch(decode_char(Some(&code)))),
        }
    }
    nodes
}

/// The character behind a code of [`reduce_codes`]'s output (any code below [`FIELD`]).
fn decode_char(code: Option<&u32>) -> char {
    code.and_then(|&c| char::from_u32(c))
        .expect("a template code run holds a character here")
}

/// A tandem repeat `({body}separator)^reps {body}terminator`, where the unit is the body
/// plus its separator.
struct Fold {
    unit_len: usize,
    reps: usize,
    separator: char,
    terminator: char,
}

impl Fold {
    /// Tokens covered: `reps` whole units, one trailing body copy, and the terminator.
    fn len(&self) -> usize {
        (self.reps + 1) * self.unit_len
    }
}

/// The fold starting exactly at `start`: the smallest unit length that admits one, with as
/// many repetitions as the unit has.  A fold with unit length `len` requires:
/// * the unit's final token to be a formatting character `x` (the separator),
/// * at least [`MIN_REPS`] adjacent copies of the unit,
/// * the unit body (`unit` minus the separator) to appear once more right after the copies,
/// * the next token to be a formatting character `y != x` (the terminator).
fn fold_at(tokens: &[TemplateToken], start: usize) -> Option<Fold> {
    let n = tokens.len();
    let max_len = MAX_UNIT_TOKENS.min((n - start) / 2);
    for unit_len in 1..=max_len {
        // A fold needs at least [`MIN_REPS`] adjacent copies, so the second copy's first
        // token must equal the unit's first — rejects almost every length in O(1).
        if tokens[start] != tokens[start + unit_len] {
            continue;
        }
        let TemplateToken::Ch(separator) = tokens[start + unit_len - 1] else {
            continue;
        };
        let unit = &tokens[start..start + unit_len];
        let mut reps = 1;
        while start + (reps + 1) * unit_len <= n
            && tokens[start + reps * unit_len..start + (reps + 1) * unit_len] == *unit
        {
            reps += 1;
        }
        if reps < MIN_REPS {
            continue;
        }
        // Only the maximal run can end the fold: with fewer repetitions the next tokens
        // are another whole unit, whose final token is the separator.  Behind the maximal
        // run, a body copy followed by the separator would be one more unit, so a character
        // there is a terminator distinct from the separator.
        let tail = start + reps * unit_len;
        let body = &unit[..unit_len - 1];
        if tail + body.len() < n && tokens[tail..tail + body.len()] == *body {
            if let TemplateToken::Ch(terminator) = tokens[tail + body.len()] {
                return Some(Fold {
                    unit_len,
                    reps,
                    separator,
                    terminator,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn template(text: &str, charset: &str) -> RecordTemplate {
        RecordTemplate::from_instantiated(text, &CharSet::from_chars(charset.chars()))
    }

    /// The code run of the single pass over `tokens`.
    fn codes_of(tokens: &[TemplateToken]) -> Vec<u32> {
        let mut codes = Vec::new();
        reduce_codes(tokens, &mut codes);
        codes
    }

    /// Encodes a node sequence the way [`reduce_codes`] would have emitted it — the inverse
    /// of [`decode`].
    fn encode(nodes: &[Node], out: &mut Vec<u32>) {
        for node in nodes {
            match node {
                Node::Field => out.push(FIELD),
                Node::Literal(s) => out.extend(s.chars().map(|c| c as u32)),
                Node::Array {
                    body,
                    separator,
                    terminator,
                } => {
                    out.push(ARRAY_OPEN);
                    encode(body, out);
                    out.extend([ARRAY_CLOSE, *separator as u32, *terminator as u32]);
                }
            }
        }
    }

    /// The splice-and-rescan reduction, the oracle of the single pass: fold the leftmost
    /// smallest-period repeat, splice its array into the work list, and search again from
    /// index 0 until no fold is left.
    fn rescan_reduce(tokens: &[TemplateToken]) -> Vec<Node> {
        let mut items: Vec<Item> = tokens.iter().copied().map(Item::Tok).collect();

        while items.len() <= MAX_FOLD_TOKENS {
            let Some(fold) = find_fold(&items) else { break };
            let FoldSpec {
                start,
                unit_len,
                reps,
                separator,
                terminator,
            } = fold;

            let unit_toks: Vec<TemplateToken> = items[start..start + unit_len]
                .iter()
                .map(|it| match it {
                    Item::Tok(t) => *t,
                    Item::Arr(_) => unreachable!("folds only span plain tokens"),
                })
                .collect();
            let body = rescan_reduce(&unit_toks[..unit_len - 1]);
            let array = Node::Array {
                body,
                separator,
                terminator,
            };
            // The folded region covers `reps` whole units, one trailing body copy, and the
            // terminator token.
            let end = start + reps * unit_len + (unit_len - 1) + 1;
            items.splice(start..end, std::iter::once(Item::Arr(array)));
        }

        // Convert the remaining items into nodes, merging adjacent literal characters.
        let mut nodes: Vec<Node> = Vec::new();
        for item in items {
            match item {
                Item::Tok(TemplateToken::Field) => nodes.push(Node::Field),
                Item::Tok(TemplateToken::Ch(c)) => match nodes.last_mut() {
                    Some(Node::Literal(s)) => s.push(c),
                    _ => nodes.push(Node::Literal(c.to_string())),
                },
                Item::Arr(node) => nodes.push(node),
            }
        }
        nodes
    }

    /// Work item of the oracle: a still-unprocessed template token or an already folded
    /// array node.
    #[derive(Clone, Debug)]
    enum Item {
        Tok(TemplateToken),
        Arr(Node),
    }

    impl Item {
        fn as_char(&self) -> Option<char> {
            match self {
                Item::Tok(TemplateToken::Ch(c)) => Some(*c),
                _ => None,
            }
        }
        fn is_plain(&self) -> bool {
            matches!(self, Item::Tok(_))
        }
        fn same_plain(&self, other: &Item) -> bool {
            match (self, other) {
                (Item::Tok(a), Item::Tok(b)) => a == b,
                _ => false,
            }
        }
    }

    struct FoldSpec {
        start: usize,
        unit_len: usize,
        reps: usize,
        separator: char,
        terminator: char,
    }

    /// The oracle's fold search: the leftmost foldable tandem repeat with the smallest
    /// repetition period, over plain tokens and already folded arrays.
    fn find_fold(items: &[Item]) -> Option<FoldSpec> {
        let n = items.len();
        // `plain_run[i]`: length of the longest all-plain run starting at `i`.
        let mut plain_run = vec![0usize; n + 1];
        for i in (0..n).rev() {
            plain_run[i] = if items[i].is_plain() {
                plain_run[i + 1] + 1
            } else {
                0
            };
        }
        for start in 0..n {
            let max_len = MAX_UNIT_TOKENS.min((n - start) / 2).min(plain_run[start]);
            for unit_len in 1..=max_len {
                if !items[start].same_plain(&items[start + unit_len]) {
                    continue;
                }
                let Some(separator) = items[start + unit_len - 1].as_char() else {
                    continue;
                };
                let mut max_reps = 1;
                while start + (max_reps + 1) * unit_len <= n
                    && (0..unit_len).all(|k| {
                        items[start + max_reps * unit_len + k].same_plain(&items[start + k])
                    })
                {
                    max_reps += 1;
                }
                if max_reps < MIN_REPS {
                    continue;
                }
                let mut reps = max_reps;
                while reps >= MIN_REPS {
                    let tail_start = start + reps * unit_len;
                    let body_len = unit_len - 1;
                    let tail_fits = tail_start + body_len < n
                        && (0..body_len)
                            .all(|k| items[tail_start + k].same_plain(&items[start + k]));
                    if tail_fits {
                        if let Some(terminator) = items[tail_start + body_len].as_char() {
                            if terminator != separator {
                                return Some(FoldSpec {
                                    start,
                                    unit_len,
                                    reps,
                                    separator,
                                    terminator,
                                });
                            }
                        }
                    }
                    reps -= 1;
                }
            }
        }
        None
    }

    /// Formatting characters the sequence generator draws its alphabets from.  `\n` is one
    /// of them, so repetition units span lines whenever an alphabet draws it.  `\u{1}`–`\u{3}`
    /// are the field and array markers of [`StructureTemplate::canonical_string`], and the
    /// Latin-1 letters are multi-byte in UTF-8: neither may confuse the code encoding.
    const CHAR_POOL: [char; 13] = [
        ',', ';', ':', ' ', '\n', '|', '=', '.', '\u{1}', '\u{2}', '\u{3}', 'é', 'ÿ',
    ];

    /// Random token sequences shaped to exercise folding: a small alphabet (`F` plus 2–5
    /// characters), interleaving single tokens with injected periodic runs.
    struct SequenceGen {
        rng: StdRng,
        alphabet: Vec<TemplateToken>,
    }

    impl SequenceGen {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool = CHAR_POOL.to_vec();
            let mut alphabet = vec![TemplateToken::Field];
            for _ in 0..rng.gen_range(2..6usize) {
                let c = pool.swap_remove(rng.gen_range(0..pool.len()));
                alphabet.push(TemplateToken::Ch(c));
            }
            SequenceGen { rng, alphabet }
        }

        fn token(&mut self) -> TemplateToken {
            self.alphabet[self.rng.gen_range(0..self.alphabet.len())]
        }

        fn char_token(&mut self) -> TemplateToken {
            self.alphabet[self.rng.gen_range(1..self.alphabet.len())]
        }

        /// A repetition unit of 1–8 tokens, usually ending in a character (a possible
        /// separator).  A top-level unit sometimes opens with a periodic run of its own, so
        /// repeats nest.
        fn unit(&mut self, nested: bool) -> Vec<TemplateToken> {
            let mut unit = Vec::new();
            if !nested && self.rng.gen_bool(0.25) {
                self.push_run(&mut unit, true);
            }
            for _ in 1..self.rng.gen_range(1..9usize) {
                let token = self.token();
                unit.push(token);
            }
            let last = if self.rng.gen_bool(0.8) {
                self.char_token()
            } else {
                self.token()
            };
            unit.push(last);
            unit
        }

        /// Appends 1–6 copies of a unit, usually followed by the unit's body (the unit
        /// minus its final token) and one more token, a possible terminator.
        fn push_run(&mut self, out: &mut Vec<TemplateToken>, nested: bool) {
            let unit = self.unit(nested);
            for _ in 0..self.rng.gen_range(1..7usize) {
                out.extend_from_slice(&unit);
            }
            if self.rng.gen_bool(0.6) {
                out.extend_from_slice(&unit[..unit.len() - 1]);
                let token = self.token();
                out.push(token);
            }
        }

        /// A sequence of exactly `len` tokens.
        fn sequence(&mut self, len: usize) -> Vec<TemplateToken> {
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                if self.rng.gen_bool(0.5) {
                    self.push_run(&mut out, false);
                } else {
                    let token = self.token();
                    out.push(token);
                }
            }
            out.truncate(len);
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn single_pass_matches_the_rescan_oracle(seed in any::<u64>(), len in 0usize..200) {
            let tokens = SequenceGen::new(seed).sequence(len);
            prop_assert_eq!(
                decode(&codes_of(&tokens)),
                StructureTemplate::new(rescan_reduce(&tokens)),
                "tokens {:?}",
                tokens
            );
        }

        #[test]
        fn code_runs_encode_the_reduced_tree_one_to_one(
            seed in any::<u64>(),
            len_a in 0usize..40,
            len_b in 0usize..40,
        ) {
            // Two sequences over one alphabet, short enough that their reductions often
            // coincide (a repeat folded at different counts reduces to one tree).
            let mut gen = SequenceGen::new(seed);
            let a = gen.sequence(len_a);
            let b = gen.sequence(len_b);
            let (codes_a, codes_b) = (codes_of(&a), codes_of(&b));
            let (tree_a, tree_b) = (rescan_reduce(&a), rescan_reduce(&b));
            // Decoding the pass's codes gives the oracle's tree, node for node ...
            let decoded = decode(&codes_a);
            prop_assert_eq!(decoded.nodes(), tree_a.as_slice(), "tokens {:?}", a);
            // ... re-encoding that tree gives the same codes ...
            let mut reencoded = Vec::new();
            encode(&tree_a, &mut reencoded);
            prop_assert_eq!(&reencoded, &codes_a, "tokens {:?}", a);
            // ... and codes are equal exactly when the trees are.
            prop_assert_eq!(
                codes_a == codes_b,
                tree_a == tree_b,
                "tokens {:?} and {:?}",
                a,
                b
            );
        }

        #[test]
        fn fold_scan_agrees_with_reduce(seed in any::<u64>(), len in 0usize..200) {
            // `tokens_have_fold_from(_, 0)` and a reduction that folds must agree within
            // the cap — the generation fast path treats them as the same predicate.
            let tokens = SequenceGen::new(seed).sequence(len);
            let reduced = reduce(&RecordTemplate::from_tokens(tokens.clone()));
            prop_assert_eq!(
                tokens_have_fold_from(&tokens, 0),
                reduced.has_array(),
                "tokens {:?}",
                tokens
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn single_pass_matches_the_rescan_oracle_at_the_fold_cap(seed in any::<u64>()) {
            for len in [MAX_FOLD_TOKENS, MAX_FOLD_TOKENS + 1] {
                let tokens = SequenceGen::new(seed).sequence(len);
                prop_assert_eq!(
                    decode(&codes_of(&tokens)),
                    StructureTemplate::new(rescan_reduce(&tokens)),
                    "length {}",
                    len
                );
            }
        }
    }

    #[test]
    fn csv_line_reduces_to_array() {
        let rt = template("1,2,3,4,5\n", ",\n");
        let st = reduce(&rt);
        assert_eq!(st.to_string(), "(F,)*F\\n");
    }

    #[test]
    fn two_field_line_is_not_reduced() {
        let rt = template("a,b\n", ",\n");
        let st = reduce(&rt);
        assert_eq!(st.to_string(), "F,F\\n");
        assert!(!st.has_array());
    }

    #[test]
    fn three_field_line_reduces() {
        let rt = template("a,b,c\n", ",\n");
        let st = reduce(&rt);
        assert_eq!(st.to_string(), "(F,)*F\\n");
    }

    #[test]
    fn quoted_list_reduces_inside_quotes() {
        // F,"F,F,F",F\n reduces so that the quoted list becomes an array.
        let rt = template("a,\"x,y,z\",b\n", ",\"\n");
        let st = reduce(&rt);
        let s = st.to_string();
        assert!(s.contains("(F,)*F"), "expected inner array, got {s}");
    }

    #[test]
    fn multi_line_repeated_key_value_reduces_to_array() {
        let text = "k: 1\nk: 2\nk: 3\nEND\n";
        let rt = template(text, ": \n");
        let st = reduce(&rt);
        // Unit is "F: F\n" repeated, trailing body is the END field followed by '\n'.
        assert!(st.has_array(), "expected an array, got {st}");
    }

    #[test]
    fn reduction_is_idempotent_on_expansion() {
        // Reducing a larger instantiation of the same logical structure yields the same
        // minimal template as the smaller one.
        let small = reduce(&template("1,2,3\n", ",\n"));
        let large = reduce(&template("1,2,3,4,5,6,7,8\n", ",\n"));
        assert_eq!(small, large);
    }

    #[test]
    fn csv_line_codes_spell_out_the_array() {
        // `(F,)*F\n`: open, the body's field, close, separator, terminator — then nothing,
        // since the array's terminator is the line's newline.
        let small = codes_of(template("1,2,3\n", ",\n").tokens());
        let large = codes_of(template("1,2,3,4,5,6,7,8\n", ",\n").tokens());
        assert_eq!(
            small,
            [ARRAY_OPEN, FIELD, ARRAY_CLOSE, ',' as u32, '\n' as u32]
        );
        assert_eq!(small, large);
    }

    #[test]
    fn syslog_line_folds_space_separated_words() {
        let rt = template("Apr 24 04:02:24 srv7 snort shutdown succeeded\n", ": \n");
        let st = reduce(&rt);
        assert!(st.has_array(), "free-text suffix should fold: {st}");
    }

    #[test]
    fn no_fold_without_distinct_terminator() {
        // "a,b,c," ends with the separator: the grammar ({A}x)*{A}y cannot describe it.
        let rt = template("a,b,c,", ",");
        let st = reduce(&rt);
        assert!(!st.has_array());
    }

    #[test]
    fn nested_multi_line_records_fold_line_unit() {
        // Three repeated `F|F\n` lines followed by a structurally identical line with a
        // distinct terminator: folds into ({F|F}\n)*{F|F}#... per Assumption 3.
        let text = "a|1\nb|2\nc|3\nd|4#\n";
        let rt = template(text, "|#\n");
        let st = reduce(&rt);
        assert!(st.has_array(), "line unit should fold: {st}");
        // The array body contains the inner F|F structure.
        let rendered = st.to_string();
        assert!(rendered.contains("F|F"), "got {rendered}");
    }

    #[test]
    fn trailing_repeat_without_distinct_terminator_stays_flat() {
        // `F|F\n` repeated with nothing after it cannot be described by ({A}x)*{A}y with
        // x != y, so it must stay a flat struct.
        let text = "1|x\n2|y\n3|z\n#\n";
        let rt = template(text, "|#\n");
        let st = reduce(&rt);
        assert!(!st.has_array(), "got {st}");
    }

    #[test]
    fn pathological_long_window_skips_folding_fast() {
        // A multi-line window made of thousands of small repeated groups.  Every group
        // folds on its own, but the line unit repeats to the window's end with no distinct
        // terminator, so each line start counts copies up to the end: quadratic in the
        // window length (uncapped, this 21k-token window takes ~0.5 s in a release build on
        // a 2-vCPU VM).  With the `MAX_FOLD_TOKENS` cap it reduces (to a flat Struct) in
        // microseconds.
        let mut text = String::new();
        for i in 0..3000 {
            text.push_str(&format!("a{i},b,c;\n"));
        }
        let rt = template(&text, ",;\n");
        assert!(
            rt.len() > super::MAX_FOLD_TOKENS,
            "window must exceed the cap"
        );
        let started = std::time::Instant::now();
        let st = reduce(&rt);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "capped reduction must be near-instant"
        );
        assert!(!st.has_array(), "above the cap the window stays flat");
        assert_eq!(st.field_count(), rt.field_count());
    }

    #[test]
    fn windows_below_the_cap_still_fold() {
        // The same shape just below the cap folds normally (the cap only affects
        // pathological windows).
        let mut text = String::new();
        for i in 0..300 {
            text.push_str(&format!("a{i},b,c;\n"));
        }
        let rt = template(&text, ",;\n");
        assert!(rt.len() <= super::MAX_FOLD_TOKENS);
        assert!(reduce(&rt).has_array());
    }

    #[test]
    fn flat_nodes_equals_reduce_on_fold_free_sequences() {
        let cases = [("a,b\n", ",\n"), ("a,b,c,", ","), ("[1] x\n", "[]\n")];
        for (text, charset) in cases {
            let rt = template(text, charset);
            assert!(
                !tokens_have_fold_from(rt.tokens(), 0),
                "{text:?} must be fold-free"
            );
            assert_eq!(
                StructureTemplate::new(flat_nodes(rt.tokens())),
                reduce(&rt),
                "flat shortcut diverged on {text:?}"
            );
            let mut own_codes = Vec::new();
            flat_codes(rt.tokens(), &mut own_codes);
            assert_eq!(
                codes_of(rt.tokens()),
                own_codes,
                "codes diverged on {text:?}"
            );
        }
    }

    #[test]
    fn restricted_fold_scan_decides_extended_windows() {
        // Grow a window line by line; whenever the prefix is fold-free, the restricted
        // scan from `old_len - (MIN_REPS + 1) * MAX_UNIT_TOKENS` must agree with the full
        // scan on the grown window (the incremental invariant of the generation step).
        let lines = [
            "BEGIN 7\n",
            "v=1;\n",
            "v=2;\n",
            "v=3;\n",
            "END.\n",
            "plain text here\n",
        ];
        let charset = CharSet::from_chars("=;.\n".chars());
        let mut tokens: Vec<TemplateToken> = Vec::new();
        let mut fold_free = true;
        for line in lines {
            let old_len = tokens.len();
            tokens.extend_from_slice(RecordTemplate::from_instantiated(line, &charset).tokens());
            let full = tokens_have_fold_from(&tokens, 0);
            if fold_free {
                let min_start = old_len.saturating_sub((MIN_REPS + 1) * MAX_UNIT_TOKENS);
                assert_eq!(
                    tokens_have_fold_from(&tokens, min_start),
                    full,
                    "restricted scan missed a fold after appending {line:?}"
                );
            }
            fold_free = !full;
        }
    }

    #[test]
    fn empty_template_reduces_to_empty() {
        let rt = template("", ",\n");
        let st = reduce(&rt);
        assert!(st.is_empty());
    }

    #[test]
    fn reduced_template_min_expansion_matches_small_instance() {
        // The minimal expansion of (F,)*F\n is F\n.
        let st = reduce(&template("1,2,3,4\n", ",\n"));
        assert_eq!(st.min_expansion().to_string(), "F\\n");
    }

    #[test]
    fn reduce_preserves_charset() {
        let rt = template("[1] a b c d e\n", "[] \n");
        let st = reduce(&rt);
        let cs = st.char_set();
        assert!(cs.contains('['));
        assert!(cs.contains(']'));
        assert!(cs.contains(' '));
        assert!(cs.contains('\n'));
    }
}
