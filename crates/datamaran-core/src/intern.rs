//! Hash-consing of structure templates into dense [`TemplateId`]s, in two stores.
//!
//! * [`TemplateInterner`] interns [`StructureTemplate`] trees.  The pipeline's ranked dedup
//!   keys on its ids; the refinement step's score memo keys on the templates themselves
//!   (`refine.rs`).
//! * `CodeInterner` (crate-private) interns minimal templates as the flat code runs of
//!   [`mod@crate::reduce`], back to back in one arena, for the generation step.  Each worker
//!   interns every novel candidate window's template there, tens of thousands per call, of
//!   which only the few that reach the coverage threshold are ever decoded into a tree
//!   (`generation.rs`), so a probe must not allocate and dropping the store must be cheap.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::structure::StructureTemplate;
use std::hash::{Hash, Hasher};

/// Dense identifier of an interned [`StructureTemplate`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TemplateId(u32);

impl TemplateId {
    /// The id as a dense index (`0..interner.len()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash-consing table assigning dense [`TemplateId`]s to structure templates.
#[derive(Clone, Debug, Default)]
pub struct TemplateInterner {
    by_template: FxHashMap<StructureTemplate, TemplateId>,
    templates: Vec<StructureTemplate>,
}

impl TemplateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a template, returning its id (existing id if already known).
    pub fn intern(&mut self, template: StructureTemplate) -> TemplateId {
        if let Some(&id) = self.by_template.get(&template) {
            return id;
        }
        let id = TemplateId(self.templates.len() as u32);
        self.templates.push(template.clone());
        self.by_template.insert(template, id);
        id
    }

    /// The id of an already-interned template, without interning it (used by hot paths that
    /// want a dedup / memo probe without cloning the template).
    pub fn lookup(&self, template: &StructureTemplate) -> Option<TemplateId> {
        self.by_template.get(template).copied()
    }

    /// The template behind an id.
    pub fn get(&self, id: TemplateId) -> &StructureTemplate {
        &self.templates[id.index()]
    }

    /// Number of distinct templates interned.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// `true` when no template has been interned.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// Hash-consing table assigning dense [`TemplateId`]s to code runs, stored back to back in
/// one arena.  The index maps a run's hash to the newest id with that hash, and `older`
/// chains each id to the previous one sharing its hash, so a probe hashes the run once and
/// compares slices: interning allocates nothing per run beyond the arena's own growth.
#[derive(Debug, Default)]
pub(crate) struct CodeInterner {
    /// Every interned run, in id order.
    arena: Vec<u32>,
    /// `arena` end of each run; run `i` starts where run `i - 1` ends.
    ends: Vec<usize>,
    /// Run hash → newest id with that hash.
    by_hash: FxHashMap<u64, TemplateId>,
    /// Per id: the next older id whose run has the same hash.
    older: Vec<Option<TemplateId>>,
}

impl CodeInterner {
    /// Interns a run, returning its id (the existing id if the run is already known).
    pub(crate) fn intern(&mut self, codes: &[u32]) -> TemplateId {
        let mut hasher = FxHasher::default();
        codes.hash(&mut hasher);
        self.intern_hashed(codes, hasher.finish())
    }

    /// [`intern`](Self::intern) with the run's hash given.
    fn intern_hashed(&mut self, codes: &[u32], hash: u64) -> TemplateId {
        let newest = self.by_hash.get(&hash).copied();
        let mut probe = newest;
        while let Some(id) = probe {
            if self.codes(id) == codes {
                return id;
            }
            probe = self.older[id.index()];
        }
        let id = TemplateId(self.ends.len() as u32);
        self.arena.extend_from_slice(codes);
        self.ends.push(self.arena.len());
        self.older.push(newest);
        self.by_hash.insert(hash, id);
        id
    }

    /// The run behind an id.
    pub(crate) fn codes(&self, id: TemplateId) -> &[u32] {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::CharSet;
    use crate::record::RecordTemplate;
    use crate::reduce::reduce;

    fn reduced(text: &str, charset: &str) -> StructureTemplate {
        reduce(&RecordTemplate::from_instantiated(
            text,
            &CharSet::from_chars(charset.chars()),
        ))
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = TemplateInterner::new();
        let a = reduced("1,2\n", ",\n");
        let b = reduced("x;y\n", ";\n");
        let ia = interner.intern(a.clone());
        let ib = interner.intern(b.clone());
        assert_ne!(ia, ib);
        assert_eq!(interner.intern(a.clone()), ia);
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_eq!(interner.get(ia), &a);
        assert_eq!(interner.get(ib), &b);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
    }

    #[test]
    fn expansions_of_one_structure_intern_to_one_id() {
        let mut interner = TemplateInterner::new();
        // Different repetition counts of the same logical structure reduce to one template.
        let small = interner.intern(reduced("1,2,3\n", ",\n"));
        let large = interner.intern(reduced("1,2,3,4,5,6\n", ",\n"));
        assert_eq!(small, large);
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.get(small).to_string(), "(F,)*F\\n");
    }

    #[test]
    fn code_runs_intern_densely_and_read_back() {
        let mut interner = CodeInterner::default();
        let runs: [&[u32]; 4] = [&[1, 2, 3], &[], &[1, 2], &[3, 2, 1]];
        let ids: Vec<TemplateId> = runs.iter().map(|run| interner.intern(run)).collect();
        // Distinct runs, the empty one included, get dense ids in first-seen order.
        assert_eq!(
            ids.iter().map(|id| id.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        for (&run, &id) in runs.iter().zip(&ids) {
            assert_eq!(interner.intern(run), id, "re-interning {run:?}");
            assert_eq!(interner.codes(id), run);
        }
        // Re-interning took no id: the next distinct run gets the next one.
        assert_eq!(interner.intern(&[9]).index(), runs.len());
    }

    #[test]
    fn code_runs_sharing_a_hash_are_told_apart_by_content() {
        // Every run filed under one hash: the collision chain alone must keep them apart.
        let mut interner = CodeInterner::default();
        let runs: [&[u32]; 4] = [&[7], &[], &[7, 7], &[8]];
        let ids: Vec<TemplateId> = runs
            .iter()
            .map(|run| interner.intern_hashed(run, 42))
            .collect();
        for (&run, &id) in runs.iter().zip(&ids) {
            assert_eq!(interner.intern_hashed(run, 42), id, "re-interning {run:?}");
            assert_eq!(interner.codes(id), run);
        }
        assert_eq!(
            ids.iter().map(|id| id.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }
}
