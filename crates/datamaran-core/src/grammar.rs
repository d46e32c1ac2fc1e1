//! Explicit LL(1) grammar construction for structure templates (§3.3, Remark).
//!
//! The paper observes that every structure template of Assumption 3 "can be rewritten as an
//! equivalent LL(1) grammar", so the final extraction pass runs in linear time with a
//! canonical predictive parser.  The hand-written matcher in [`crate::parser`] exploits this
//! implicitly; this module makes the claim explicit and checkable:
//!
//! * [`Grammar::from_template`] builds the grammar — nonterminals, productions, and the
//!   terminal alphabet (one terminal per formatting character plus the *field character*
//!   class covering everything else);
//! * [`Grammar::first_sets`] / [`Grammar::follow_sets`] compute the classic FIRST/FOLLOW
//!   sets;
//! * [`Grammar::is_ll1`] verifies the LL(1) condition (no FIRST/FIRST or FIRST/FOLLOW
//!   conflicts), which holds for every template satisfying Assumptions 2–3;
//! * [`Grammar::match_at`] is a table-driven predictive parser that recognizes one
//!   instantiated record and reports the same field spans as the recursive-descent matcher
//!   (the two are compared in tests and in the `grammar_equivalence` integration suite).
//!
//! The module is self-contained and has no effect on the main pipeline; it exists to justify
//! the linear-time extraction claim and to cross-check the production matcher.

use crate::chars::CharSet;
use crate::parser::FieldCell;
use crate::structure::{Node, StructureTemplate};
use std::collections::BTreeSet;
use std::fmt;

/// A terminal symbol class of the record grammar.
///
/// Under Assumption 2 the formatting characters (`RT-CharSet`) and the field characters are
/// disjoint, so a single lookahead character always falls into exactly one class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Terminal {
    /// One specific formatting character of the template.
    Ch(char),
    /// Any character *not* in the template's formatting character set.
    FieldChar,
    /// End of input.
    End,
}

impl fmt::Display for Terminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminal::Ch('\n') => write!(f, "'\\n'"),
            Terminal::Ch('\t') => write!(f, "'\\t'"),
            Terminal::Ch(c) => write!(f, "'{c}'"),
            Terminal::FieldChar => write!(f, "fieldchar"),
            Terminal::End => write!(f, "$"),
        }
    }
}

/// A grammar symbol: terminal or nonterminal (by index).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Symbol {
    /// A terminal symbol.
    T(Terminal),
    /// A nonterminal, identified by its index in [`Grammar::nonterminals`].
    N(usize),
}

/// What a nonterminal stands for, used when printing the grammar and when the predictive
/// parser needs to emit field spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NonTerminalKind {
    /// The start symbol (the whole record).
    Start,
    /// A field leaf; the payload is the field's column index (pre-order).
    Field(usize),
    /// The "rest of a field value" helper (`R_k -> fieldchar R_k | ε`).
    FieldRest(usize),
    /// The body sequence of an array node (pre-order array id).
    ArrayBody(usize),
    /// The separator-or-terminator decision point of an array node.
    ArrayTail(usize),
}

/// One production `lhs -> rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Production {
    /// Index of the left-hand-side nonterminal.
    pub lhs: usize,
    /// Right-hand-side symbols; empty for an ε-production.
    pub rhs: Vec<Symbol>,
}

impl Production {
    /// `true` for an ε-production.
    pub fn is_epsilon(&self) -> bool {
        self.rhs.is_empty()
    }
}

/// An LL(1) grammar generated from a structure template.
#[derive(Clone, Debug)]
pub struct Grammar {
    /// Nonterminal descriptors; index 0 is the start symbol.
    nonterminals: Vec<NonTerminalKind>,
    /// All productions, grouped implicitly by `lhs`.
    productions: Vec<Production>,
    /// The template's formatting character set (terminal alphabet minus `FieldChar`).
    charset: CharSet,
}

/// FIRST or FOLLOW set: a set of terminal classes, plus (for FIRST) whether ε is derivable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TerminalSet {
    /// The terminal classes in the set.
    pub terminals: BTreeSet<Terminal>,
    /// Whether the associated nonterminal can derive the empty string (FIRST sets only).
    pub nullable: bool,
}

impl Grammar {
    /// Builds the LL(1) grammar of a structure template.
    ///
    /// Every field leaf becomes a pair of nonterminals (`F_k -> fieldchar R_k`,
    /// `R_k -> fieldchar R_k | ε`), every array node becomes a body nonterminal and a
    /// tail nonterminal (`TAIL -> sep BODY TAIL | term`), and literals are inlined as
    /// terminal sequences.
    pub fn from_template(template: &StructureTemplate) -> Self {
        let mut grammar = Grammar {
            nonterminals: vec![NonTerminalKind::Start],
            productions: Vec::new(),
            charset: template.char_set(),
        };
        let mut column = 0usize;
        let mut array_id = 0usize;
        let rhs = grammar.sequence_symbols(template.nodes(), &mut column, &mut array_id);
        grammar.productions.push(Production { lhs: 0, rhs });
        grammar
    }

    /// Converts a node sequence into a symbol sequence, adding helper nonterminals on the way.
    fn sequence_symbols(
        &mut self,
        nodes: &[Node],
        column: &mut usize,
        array_id: &mut usize,
    ) -> Vec<Symbol> {
        let mut rhs = Vec::new();
        for node in nodes {
            match node {
                Node::Field => {
                    let col = *column;
                    *column += 1;
                    let f = self.add_nonterminal(NonTerminalKind::Field(col));
                    let r = self.add_nonterminal(NonTerminalKind::FieldRest(col));
                    // F_k -> fieldchar R_k
                    self.productions.push(Production {
                        lhs: f,
                        rhs: vec![Symbol::T(Terminal::FieldChar), Symbol::N(r)],
                    });
                    // R_k -> fieldchar R_k | ε
                    self.productions.push(Production {
                        lhs: r,
                        rhs: vec![Symbol::T(Terminal::FieldChar), Symbol::N(r)],
                    });
                    self.productions.push(Production {
                        lhs: r,
                        rhs: vec![],
                    });
                    rhs.push(Symbol::N(f));
                }
                Node::Literal(s) => {
                    rhs.extend(s.chars().map(|c| Symbol::T(Terminal::Ch(c))));
                }
                Node::Array {
                    body,
                    separator,
                    terminator,
                } => {
                    let my_id = *array_id;
                    *array_id += 1;
                    let body_nt = self.add_nonterminal(NonTerminalKind::ArrayBody(my_id));
                    let tail_nt = self.add_nonterminal(NonTerminalKind::ArrayTail(my_id));
                    let column_before = *column;
                    let body_rhs = self.sequence_symbols(body, column, array_id);
                    // Every repetition reuses the same body nonterminals (and therefore the
                    // same column indices), matching the recursive-descent matcher.
                    let _ = column_before;
                    self.productions.push(Production {
                        lhs: body_nt,
                        rhs: body_rhs,
                    });
                    // TAIL -> sep BODY TAIL | term
                    self.productions.push(Production {
                        lhs: tail_nt,
                        rhs: vec![
                            Symbol::T(Terminal::Ch(*separator)),
                            Symbol::N(body_nt),
                            Symbol::N(tail_nt),
                        ],
                    });
                    self.productions.push(Production {
                        lhs: tail_nt,
                        rhs: vec![Symbol::T(Terminal::Ch(*terminator))],
                    });
                    rhs.push(Symbol::N(body_nt));
                    rhs.push(Symbol::N(tail_nt));
                }
            }
        }
        rhs
    }

    fn add_nonterminal(&mut self, kind: NonTerminalKind) -> usize {
        self.nonterminals.push(kind);
        self.nonterminals.len() - 1
    }

    /// The nonterminal descriptors (index 0 is the start symbol).
    pub fn nonterminals(&self) -> &[NonTerminalKind] {
        &self.nonterminals
    }

    /// All productions of the grammar.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// The formatting character set (the terminal alphabet without the field-character class).
    pub fn charset(&self) -> &CharSet {
        &self.charset
    }

    /// Classifies one lookahead character into a terminal class.
    pub fn classify(&self, c: char) -> Terminal {
        if self.charset.contains(c) {
            Terminal::Ch(c)
        } else {
            Terminal::FieldChar
        }
    }

    /// Computes the FIRST set of every nonterminal.
    pub fn first_sets(&self) -> Vec<TerminalSet> {
        let mut first: Vec<TerminalSet> = vec![TerminalSet::default(); self.nonterminals.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for p in &self.productions {
                let (add, nullable) = self.first_of_sequence(&p.rhs, &first);
                let entry = &mut first[p.lhs];
                for t in add {
                    if entry.terminals.insert(t) {
                        changed = true;
                    }
                }
                if nullable && !entry.nullable {
                    entry.nullable = true;
                    changed = true;
                }
            }
        }
        first
    }

    /// FIRST of a symbol sequence given per-nonterminal FIRST sets; also reports whether the
    /// whole sequence can derive ε.
    fn first_of_sequence(
        &self,
        seq: &[Symbol],
        first: &[TerminalSet],
    ) -> (BTreeSet<Terminal>, bool) {
        let mut out = BTreeSet::new();
        for sym in seq {
            match sym {
                Symbol::T(t) => {
                    out.insert(*t);
                    return (out, false);
                }
                Symbol::N(n) => {
                    out.extend(first[*n].terminals.iter().copied());
                    if !first[*n].nullable {
                        return (out, false);
                    }
                }
            }
        }
        (out, true)
    }

    /// Computes the FOLLOW set of every nonterminal (the start symbol's FOLLOW contains
    /// [`Terminal::End`]).
    pub fn follow_sets(&self) -> Vec<TerminalSet> {
        let first = self.first_sets();
        let mut follow: Vec<TerminalSet> = vec![TerminalSet::default(); self.nonterminals.len()];
        follow[0].terminals.insert(Terminal::End);
        let mut changed = true;
        while changed {
            changed = false;
            for p in &self.productions {
                for (i, sym) in p.rhs.iter().enumerate() {
                    let Symbol::N(n) = sym else { continue };
                    let (tail_first, tail_nullable) =
                        self.first_of_sequence(&p.rhs[i + 1..], &first);
                    let before = follow[*n].terminals.len();
                    follow[*n].terminals.extend(tail_first);
                    if tail_nullable {
                        let lhs_follow: Vec<Terminal> =
                            follow[p.lhs].terminals.iter().copied().collect();
                        follow[*n].terminals.extend(lhs_follow);
                    }
                    if follow[*n].terminals.len() != before {
                        changed = true;
                    }
                }
            }
        }
        follow
    }

    /// Checks the LL(1) condition: for every nonterminal, the prediction sets of its
    /// productions are pairwise disjoint.  Returns the list of conflicting
    /// (nonterminal, terminal) pairs; an empty list means the grammar is LL(1).
    pub fn ll1_conflicts(&self) -> Vec<(usize, Terminal)> {
        let first = self.first_sets();
        let follow = self.follow_sets();
        let mut conflicts = Vec::new();
        for (nt, follow_set) in follow.iter().enumerate() {
            let mut seen: BTreeSet<Terminal> = BTreeSet::new();
            for p in self.productions.iter().filter(|p| p.lhs == nt) {
                let (mut predict, nullable) = self.first_of_sequence(&p.rhs, &first);
                if nullable {
                    predict.extend(follow_set.terminals.iter().copied());
                }
                for t in predict {
                    if !seen.insert(t) {
                        conflicts.push((nt, t));
                    }
                }
            }
        }
        conflicts
    }

    /// `true` if the grammar satisfies the LL(1) condition.
    pub fn is_ll1(&self) -> bool {
        self.ll1_conflicts().is_empty()
    }

    /// Builds the LL(1) parse table: for every nonterminal, the production chosen for each
    /// lookahead terminal class.  Returns `None` when the grammar is not LL(1).
    pub fn parse_table(&self) -> Option<ParseTable> {
        if !self.is_ll1() {
            return None;
        }
        let first = self.first_sets();
        let follow = self.follow_sets();
        let mut rows: Vec<Vec<(Terminal, usize)>> = vec![Vec::new(); self.nonterminals.len()];
        for (pi, p) in self.productions.iter().enumerate() {
            let (mut predict, nullable) = self.first_of_sequence(&p.rhs, &first);
            if nullable {
                predict.extend(follow[p.lhs].terminals.iter().copied());
            }
            for t in predict {
                rows[p.lhs].push((t, pi));
            }
        }
        Some(ParseTable { rows })
    }

    /// Runs the table-driven predictive parser at byte offset `start` of `text`.
    ///
    /// On success returns the end offset of the matched record and the extracted field cells
    /// (column indices follow the same pre-order numbering as [`crate::parser`]).  Returns
    /// `None` if no record of this template starts at `start`.
    pub fn match_at(&self, text: &str, start: usize) -> Option<(usize, Vec<FieldCell>)> {
        let table = self.parse_table()?;
        let start_production = self
            .productions
            .iter()
            .position(|p| p.lhs == 0)
            .expect("start symbol has a production");
        let mut stack: Vec<Symbol> = self.productions[start_production]
            .rhs
            .iter()
            .rev()
            .copied()
            .collect();
        let mut pos = start;
        let mut fields: Vec<FieldCell> = Vec::new();
        let mut open_field: Option<(usize, usize)> = None;

        while let Some(top) = stack.pop() {
            let lookahead = match text[pos..].chars().next() {
                Some(c) => self.classify(c),
                None => Terminal::End,
            };
            match top {
                Symbol::T(expected) => {
                    if lookahead != expected || lookahead == Terminal::End {
                        return None;
                    }
                    let c = text[pos..].chars().next().expect("non-empty at terminal");
                    pos += c.len_utf8();
                }
                Symbol::N(nt) => {
                    let pi = table.choose(nt, lookahead)?;
                    let production = &self.productions[pi];
                    match self.nonterminals[nt] {
                        NonTerminalKind::Field(col) => {
                            open_field = Some((col, pos));
                        }
                        NonTerminalKind::FieldRest(col) if production.is_epsilon() => {
                            let (open_col, field_start) =
                                open_field.take().expect("field opened before its rest");
                            debug_assert_eq!(open_col, col);
                            fields.push(FieldCell {
                                column: col,
                                start: field_start,
                                end: pos,
                            });
                        }
                        _ => {}
                    }
                    for sym in production.rhs.iter().rev() {
                        stack.push(*sym);
                    }
                }
            }
        }
        Some((pos, fields))
    }

    /// Human-readable rendering of the productions (for documentation and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.productions {
            out.push_str(&self.nonterminal_name(p.lhs));
            out.push_str(" -> ");
            if p.rhs.is_empty() {
                out.push('ε');
            } else {
                for (i, sym) in p.rhs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    match sym {
                        Symbol::T(t) => out.push_str(&t.to_string()),
                        Symbol::N(n) => out.push_str(&self.nonterminal_name(*n)),
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    fn nonterminal_name(&self, idx: usize) -> String {
        match self.nonterminals[idx] {
            NonTerminalKind::Start => "S".to_string(),
            NonTerminalKind::Field(c) => format!("F{c}"),
            NonTerminalKind::FieldRest(c) => format!("R{c}"),
            NonTerminalKind::ArrayBody(a) => format!("B{a}"),
            NonTerminalKind::ArrayTail(a) => format!("T{a}"),
        }
    }
}

/// The LL(1) parse table: one row per nonterminal mapping lookahead terminals to productions.
#[derive(Clone, Debug)]
pub struct ParseTable {
    rows: Vec<Vec<(Terminal, usize)>>,
}

impl ParseTable {
    /// The production to expand for `nonterminal` on `lookahead`, if any.
    pub fn choose(&self, nonterminal: usize, lookahead: Terminal) -> Option<usize> {
        self.rows[nonterminal]
            .iter()
            .find(|(t, _)| *t == lookahead)
            .map(|(_, p)| *p)
    }

    /// Total number of populated table cells.
    pub fn cell_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::dataset::Dataset;
    use crate::extract::SpanLineMatcher;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn flat(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        StructureTemplate::from_record_template(&RecordTemplate::from_instantiated(example, &cs))
    }

    fn arrayed(example: &str, charset: &str) -> StructureTemplate {
        let cs = CharSet::from_chars(charset.chars());
        reduce(&RecordTemplate::from_instantiated(example, &cs))
    }

    #[test]
    fn flat_template_grammar_is_ll1() {
        let st = flat("[01:05] 10.0.0.1 GET /x\n", "[]:. /\n");
        let g = Grammar::from_template(&st);
        assert!(g.is_ll1(), "conflicts: {:?}", g.ll1_conflicts());
        assert!(g.parse_table().is_some());
    }

    #[test]
    fn array_template_grammar_is_ll1() {
        let st = arrayed("1,2,3,4\n", ",\n");
        assert_eq!(st.to_string(), "(F,)*F\\n");
        let g = Grammar::from_template(&st);
        assert!(g.is_ll1(), "conflicts: {:?}", g.ll1_conflicts());
    }

    #[test]
    fn nested_array_grammar_is_ll1() {
        // F,"(F,)*F",F\n — quoted list inside a csv row (Figure 6 of the paper).
        let st = arrayed("a,\"x,y,z\",b\n", ",\"\n");
        let g = Grammar::from_template(&st);
        assert!(g.has_array_nonterminals());
        assert!(g.is_ll1(), "conflicts: {:?}", g.ll1_conflicts());
    }

    impl Grammar {
        fn has_array_nonterminals(&self) -> bool {
            self.nonterminals
                .iter()
                .any(|k| matches!(k, NonTerminalKind::ArrayBody(_)))
        }
    }

    #[test]
    fn first_sets_of_field_contain_fieldchar() {
        let st = flat("a=b\n", "=\n");
        let g = Grammar::from_template(&st);
        let first = g.first_sets();
        // Find the Field(0) nonterminal.
        let f0 = g
            .nonterminals()
            .iter()
            .position(|k| *k == NonTerminalKind::Field(0))
            .unwrap();
        assert!(first[f0].terminals.contains(&Terminal::FieldChar));
        assert!(!first[f0].nullable);
    }

    #[test]
    fn follow_of_field_rest_is_the_next_formatting_char() {
        let st = flat("a=b\n", "=\n");
        let g = Grammar::from_template(&st);
        let follow = g.follow_sets();
        let r0 = g
            .nonterminals()
            .iter()
            .position(|k| *k == NonTerminalKind::FieldRest(0))
            .unwrap();
        assert!(follow[r0].terminals.contains(&Terminal::Ch('=')));
    }

    #[test]
    fn match_at_agrees_with_recursive_descent_on_flat_records() {
        let text = "[01:05] alice\n[02:06] bob\n";
        let st = flat("[01:05] alice\n", "[]: \n");
        let g = Grammar::from_template(&st);
        let data = Dataset::new(text);
        let parse = SpanLineMatcher::new(std::slice::from_ref(&st), 10)
            .parse(&data, 1)
            .to_parse_result();
        assert_eq!(parse.records.len(), 2);
        for rec in &parse.records {
            let (end, fields) = g.match_at(text, rec.byte_span.0).expect("grammar matches");
            assert_eq!(end, rec.byte_span.1);
            assert_eq!(fields, rec.fields);
        }
    }

    #[test]
    fn match_at_agrees_with_recursive_descent_on_array_records() {
        let text = "1,2,3\n4,5\n6,7,8,9\n";
        let st = arrayed("1,2,3\n", ",\n");
        let g = Grammar::from_template(&st);
        let data = Dataset::new(text);
        let parse = SpanLineMatcher::new(std::slice::from_ref(&st), 10)
            .parse(&data, 1)
            .to_parse_result();
        assert_eq!(parse.records.len(), 3);
        for rec in &parse.records {
            let (end, fields) = g.match_at(text, rec.byte_span.0).expect("grammar matches");
            assert_eq!(end, rec.byte_span.1);
            assert_eq!(fields, rec.fields);
        }
    }

    #[test]
    fn match_at_rejects_non_matching_prefixes() {
        let st = flat("a=b\n", "=\n");
        let g = Grammar::from_template(&st);
        assert!(g.match_at("no equals sign here\n", 0).is_none());
        assert!(g.match_at("=leading\n", 0).is_none());
        assert!(g.match_at("", 0).is_none());
    }

    #[test]
    fn match_at_handles_truncated_input() {
        let st = flat("a=b\n", "=\n");
        let g = Grammar::from_template(&st);
        // Missing the trailing newline: the grammar requires it.
        assert!(g.match_at("a=b", 0).is_none());
    }

    #[test]
    fn parse_table_has_one_entry_per_prediction() {
        let st = arrayed("1,2,3\n", ",\n");
        let g = Grammar::from_template(&st);
        let table = g.parse_table().unwrap();
        assert!(table.cell_count() >= g.productions().len());
        // The array tail decides between ',' and '\n'.
        let tail = g
            .nonterminals()
            .iter()
            .position(|k| matches!(k, NonTerminalKind::ArrayTail(_)))
            .unwrap();
        assert!(table.choose(tail, Terminal::Ch(',')).is_some());
        assert!(table.choose(tail, Terminal::Ch('\n')).is_some());
        assert!(table.choose(tail, Terminal::FieldChar).is_none());
    }

    #[test]
    fn render_lists_every_production() {
        let st = flat("a=b\n", "=\n");
        let g = Grammar::from_template(&st);
        let rendered = g.render();
        assert_eq!(rendered.lines().count(), g.productions().len());
        assert!(rendered.contains("S ->"));
        assert!(rendered.contains("ε"));
    }

    #[test]
    fn grammar_size_is_linear_in_template_size() {
        let st = flat("a=b=c=d=e=f=g=h\n", "=\n");
        let g = Grammar::from_template(&st);
        // 8 fields -> 8 * (F + R with 2 productions) + start production.
        assert_eq!(g.nonterminals().len(), 1 + 8 * 2);
        assert_eq!(g.productions().len(), 1 + 8 * 3);
    }
}
