//! Size reduction of tree automata.
//!
//! Two reductions are provided, matching the AutoQ paper:
//!
//! * **Trimming** — removing states that are not *productive* (cannot derive
//!   any tree) or not *accessible* (cannot be reached top-down from a root).
//! * **Successor merging** — the paper's lightweight simulation-based
//!   reduction (footnote 6): states with exactly the same outgoing
//!   transitions generate the same tree language, so they can be merged; the
//!   merge is iterated to a fixpoint.
//!
//! Both run after every gate of the engine's hot loop, so they are built for
//! speed.  Trimming is a worklist pass over the adjacency index
//! (O(states + transitions), no fixpoint-over-all-transitions).  Merging is
//! one children-first pass: states are visited in Kahn order over the
//! child-occurrence index, and each gets its integer signature (interned
//! symbol ids, child class ids, leaf `AmpId`s) once, looked up in a
//! signature → class table that persists across the pass.  That table and
//! the symbol-interning map are keyed only by program-generated ids, so they
//! hash with [`IdHasher`](crate::IdHasher) instead of SipHash.  A class keeps the
//! id of its first visited member and records its minimum member, onto which
//! the final rewrite maps every state.  States on or above a cycle follow the
//! Kahn order in the same worklist; a parent is re-signatured only when a
//! child's class changes after the parent was signatured, which never
//! happens on acyclic input.  [`TreeAutomaton::reduce`] is a trim followed by
//! one merge.  A deliberately naive implementation is retained as
//! [`TreeAutomaton::reduce_reference`] and cross-validated against the fast
//! path by property tests, which require structurally equal results.

use std::collections::HashMap;

use autoq_amplitude::{resolve, Algebraic};

use crate::{
    IdHashMap, InternalSymbol, InternalTransition, LeafTransition, StateId, TreeAutomaton,
};

impl TreeAutomaton {
    /// Removes useless states and transitions (non-productive or
    /// inaccessible) and renumbers the remaining states densely.
    pub fn trim(&self) -> TreeAutomaton {
        let index = self.index();
        let n = self.num_states as usize;
        // 1. Productive states: worklist from the leaves upwards.  `need`
        //    counts the not-yet-productive child slots of each transition;
        //    a transition fires (marks its parent productive) at zero.
        let mut productive = vec![false; n];
        let mut need: Vec<u8> = vec![2; self.internal.len()];
        let mut worklist: Vec<StateId> = Vec::new();
        for t in &self.leaves {
            if !productive[t.parent.index()] {
                productive[t.parent.index()] = true;
                worklist.push(t.parent);
            }
        }
        while let Some(state) = worklist.pop() {
            for &position in index.occurrences_as_child(state) {
                need[position as usize] -= 1;
                if need[position as usize] == 0 {
                    let parent = self.internal[position as usize].parent;
                    if !productive[parent.index()] {
                        productive[parent.index()] = true;
                        worklist.push(parent);
                    }
                }
            }
        }
        // 2. Accessible states: from the roots downwards, only through
        //    transitions whose children are productive.
        let mut accessible = vec![false; n];
        let mut worklist: Vec<StateId> = Vec::new();
        for &root in &self.roots {
            if productive[root.index()] && !accessible[root.index()] {
                accessible[root.index()] = true;
                worklist.push(root);
            }
        }
        while let Some(state) = worklist.pop() {
            for &position in index.internal_of(state) {
                let t = &self.internal[position as usize];
                if productive[t.left.index()] && productive[t.right.index()] {
                    for child in [t.left, t.right] {
                        if !accessible[child.index()] {
                            accessible[child.index()] = true;
                            worklist.push(child);
                        }
                    }
                }
            }
        }
        // 3. Renumber (ascending ids, as before), through the fields rather
        //    than `add_state`, which takes the index-cache lock per call.
        let mut mapping: Vec<Option<StateId>> = vec![None; n];
        let mut result = TreeAutomaton::new(self.num_vars);
        for (q, slot) in mapping.iter_mut().enumerate() {
            if productive[q] && accessible[q] {
                *slot = Some(StateId::new(result.num_states));
                result.num_states += 1;
            }
        }
        for &root in &self.roots {
            if let Some(mapped) = mapping[root.index()] {
                result.add_root(mapped);
            }
        }
        for t in &self.internal {
            if let (Some(parent), Some(left), Some(right)) = (
                mapping[t.parent.index()],
                mapping[t.left.index()],
                mapping[t.right.index()],
            ) {
                result.internal.push(InternalTransition {
                    parent,
                    symbol: t.symbol,
                    left,
                    right,
                });
            }
        }
        for t in &self.leaves {
            if let Some(parent) = mapping[t.parent.index()] {
                result.leaves.push(LeafTransition { parent, amp: t.amp });
            }
        }
        result.dedup_transitions();
        result
    }

    /// The paper's lightweight reduction: trim, then merge states that have
    /// exactly the same outgoing transitions ("the same successors") to the
    /// fixpoint, which is a sound under-approximation of bottom-up
    /// bisimulation.  One merge suffices: at its fixpoint no two surviving
    /// classes share a signature, and the final trim only drops states, never
    /// an outgoing transition of a surviving one.
    pub fn reduce(&self) -> TreeAutomaton {
        self.trim().merge_identical_states().0
    }

    /// Merges states with identical outgoing-transition signatures, to the
    /// fixpoint, in one children-first pass.  Returns the merged automaton
    /// and whether anything changed.
    ///
    /// A state's signature is its sorted, deduplicated leaf `AmpId`s plus
    /// its sorted, deduplicated `(symbol-id, left-class, right-class)`
    /// tuples, built in one reusable buffer and looked up in a
    /// signature → class table that lives for the whole pass.  States are
    /// visited in Kahn order over the child-occurrence index, so on acyclic
    /// input every child's class is final before its parent is signatured
    /// and each state is signatured exactly once.  States on or above a
    /// cycle follow in id order; whenever a class changes after a parent
    /// was signatured, that parent is queued again, until the table is
    /// consistent.
    fn merge_identical_states(&self) -> (TreeAutomaton, bool) {
        let n = self.num_states as usize;
        let index = self.index();
        let parent_of = |position: u32| self.internal[position as usize].parent.raw();

        // Intern symbols into dense integer ids.  Leaf values arrive already
        // interned process-wide: the `AmpId` raw integer is the signature id.
        let mut symbol_ids: IdHashMap<InternalSymbol, u32> = IdHashMap::default();
        let transition_symbols: Vec<u32> = self
            .internal
            .iter()
            .map(|t| {
                let next = symbol_ids.len() as u32;
                *symbol_ids.entry(t.symbol).or_insert(next)
            })
            .collect();

        // Children-first order (Kahn): a state is ready once every child slot
        // of its transitions is.  States on or above a cycle never become
        // ready and follow in id order.
        let mut pending: Vec<usize> = (0..n as u32)
            .map(|q| 2 * index.internal_of(StateId::new(q)).len())
            .collect();
        let mut work: Vec<u32> = (0..n as u32)
            .filter(|&q| pending[q as usize] == 0)
            .collect();
        let mut next = 0;
        while next < work.len() {
            for &position in index.occurrences_as_child(StateId::new(work[next])) {
                let parent = parent_of(position) as usize;
                pending[parent] -= 1;
                if pending[parent] == 0 {
                    work.push(parent as u32);
                }
            }
            next += 1;
        }
        work.extend((0..n as u32).filter(|&q| pending[q as usize] != 0));

        // An unvisited state is a singleton class with its own id; a class
        // keeps the id of its first visited member, and `min_member` records
        // its smallest member, the representative of the rewrite.
        let mut class: Vec<u32> = (0..n as u32).collect();
        let mut min_member = class.clone();
        let mut visited = vec![false; n];
        let mut queued = vec![true; n];
        let mut table = IdHashMap::default();
        let (mut tuples, mut moved): (Vec<(u32, u32, u32)>, _) = (Vec::new(), Vec::new());
        let mut changed = false;
        let mut next = 0;
        while next < work.len() {
            let q = work[next];
            next += 1;
            queued[q as usize] = false;
            tuples.clear();
            tuples.extend(index.internal_of(StateId::new(q)).iter().map(|&position| {
                let t = &self.internal[position as usize];
                (
                    transition_symbols[position as usize],
                    class[t.left.index()],
                    class[t.right.index()],
                )
            }));
            // Leaf values enter as `(u32::MAX, amp, 0)`: symbol ids count the
            // distinct symbols, so they never reach `u32::MAX`.
            tuples.extend(
                index
                    .leaves_of(StateId::new(q))
                    .iter()
                    .map(|&position| (u32::MAX, self.leaves[position as usize].amp.raw(), 0)),
            );
            tuples.sort_unstable();
            tuples.dedup();

            // Entries are never overwritten.  A class id that moves never
            // returns, so an entry made stale by a move names a dead id that
            // no fresh signature contains: every hit is a current signature.
            let old = class[q as usize];
            let new = match table.get(&tuples[..]) {
                Some(&existing) => existing,
                None => {
                    table.insert(Box::from(tuples.as_slice()), old);
                    old
                }
            };
            let first_visit = !std::mem::replace(&mut visited[q as usize], true);
            if new == old {
                continue;
            }
            // The whole class `old` joins `new`: on a first visit that is q
            // alone; on a revisit (cyclic input only) every member moves, and
            // every already-signatured parent of a moved state is queued.
            changed = true;
            min_member[new as usize] = min_member[new as usize].min(min_member[old as usize]);
            moved.clear();
            if first_visit {
                moved.push(q);
            } else {
                moved.extend((0..n as u32).filter(|&s| class[s as usize] == old));
            }
            for &s in &moved {
                class[s as usize] = new;
                for &position in index.occurrences_as_child(StateId::new(s)) {
                    let parent = parent_of(position);
                    if !std::mem::replace(&mut queued[parent as usize], true) {
                        work.push(parent);
                    }
                }
            }
        }

        if !changed {
            return (self.clone(), false);
        }
        // Single rewrite pass onto each class's minimum member, then one
        // trim to drop the absorbed states and renumber densely.
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = self.num_states;
        let remap = |s: StateId| StateId::new(min_member[class[s.index()] as usize]);
        for &root in &self.roots {
            result.roots.insert(remap(root));
        }
        for t in &self.internal {
            result.internal.push(InternalTransition {
                parent: remap(t.parent),
                symbol: t.symbol,
                left: remap(t.left),
                right: remap(t.right),
            });
        }
        for t in &self.leaves {
            result.leaves.push(LeafTransition {
                parent: remap(t.parent),
                amp: t.amp,
            });
        }
        result.dedup_transitions();
        (result.trim(), true)
    }

    /// A deliberately naive reduction kept as a cross-validation oracle for
    /// [`TreeAutomaton::reduce`]: same trim-then-merge-to-fixpoint semantics,
    /// but each merge round rebuilds every state's signature from scratch as
    /// an explicit (sorted, via the structural `Ord` on `Algebraic`) list of
    /// outgoing transitions and compares them structurally.  Quadratic and allocation-heavy — use only in tests.
    #[doc(hidden)]
    pub fn reduce_reference(&self) -> TreeAutomaton {
        let mut current = self.trim();
        loop {
            let (merged, changed) = current.merge_identical_states_reference();
            current = merged;
            if !changed {
                return current;
            }
        }
    }

    /// One naive merge round: group states by their exact outgoing
    /// transitions, merge every group into its smallest member, rewrite.
    fn merge_identical_states_reference(&self) -> (TreeAutomaton, bool) {
        type Signature = (Vec<(InternalSymbol, StateId, StateId)>, Vec<Algebraic>);
        let mut signatures: HashMap<Signature, Vec<StateId>> = HashMap::new();
        for state_index in 0..self.num_states {
            let state = StateId::new(state_index);
            let mut internal_sig: Vec<(InternalSymbol, StateId, StateId)> = self
                .internal
                .iter()
                .filter(|t| t.parent == state)
                .map(|t| (t.symbol, t.left, t.right))
                .collect();
            internal_sig.sort();
            internal_sig.dedup();
            let mut leaf_sig: Vec<Algebraic> = self
                .leaves
                .iter()
                .filter(|t| t.parent == state)
                .map(|t| resolve(t.amp))
                .collect();
            leaf_sig.sort();
            signatures
                .entry((internal_sig, leaf_sig))
                .or_default()
                .push(state);
        }
        let mut mapping: HashMap<StateId, StateId> = HashMap::new();
        let mut changed = false;
        for group in signatures.values() {
            let representative = *group.iter().min().unwrap();
            for &state in group {
                if state != representative {
                    changed = true;
                }
                mapping.insert(state, representative);
            }
        }
        if !changed {
            return (self.clone(), false);
        }
        let remap = |s: StateId| *mapping.get(&s).unwrap_or(&s);
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = self.num_states;
        for &root in &self.roots {
            result.roots.insert(remap(root));
        }
        for t in &self.internal {
            result.internal.push(InternalTransition {
                parent: remap(t.parent),
                symbol: t.symbol,
                left: remap(t.left),
                right: remap(t.right),
            });
        }
        for t in &self.leaves {
            result.leaves.push(LeafTransition {
                parent: remap(t.parent),
                amp: t.amp,
            });
        }
        result.dedup_transitions();
        (result.trim(), true)
    }
}

#[cfg(test)]
mod tests {
    use autoq_amplitude::Algebraic;

    use crate::{InternalSymbol, Tree, TreeAutomaton};

    fn all_basis(n: u32) -> TreeAutomaton {
        let trees: Vec<Tree> = (0..crate::basis::basis_count(n))
            .map(|b| Tree::basis_state(n, b))
            .collect();
        TreeAutomaton::from_trees(n, &trees)
    }

    #[test]
    fn trim_removes_unreachable_states() {
        let mut automaton = TreeAutomaton::from_tree(&Tree::basis_state(2, 0));
        // Add a dangling state with no transitions and an unproductive chain.
        let dangling = automaton.add_state();
        let unproductive = automaton.add_state();
        automaton.add_internal(unproductive, InternalSymbol::new(0), dangling, dangling);
        let before = automaton.state_count();
        let trimmed = automaton.trim();
        assert!(trimmed.state_count() < before);
        trimmed.validate().unwrap();
        assert!(trimmed.accepts(&Tree::basis_state(2, 0)));
        assert_eq!(trimmed.enumerate(10).len(), 1);
    }

    #[test]
    fn trim_preserves_language() {
        let automaton = all_basis(3);
        let trimmed = automaton.trim();
        let original: Vec<Tree> = automaton.enumerate(100);
        for tree in &original {
            assert!(trimmed.accepts(tree));
        }
        assert_eq!(trimmed.enumerate(100).len(), original.len());
    }

    #[test]
    fn reduce_merges_identical_subtrees() {
        // Duplicate an automaton side by side (as the primed-copy gate
        // constructions do); the successor-merging reduction must collapse
        // the two copies back into one while preserving the language.
        let automaton = all_basis(4);
        let mut redundant = automaton.clone();
        let offset = redundant.import_disjoint(&automaton);
        let copied_roots: Vec<_> = automaton.roots.iter().map(|r| r.offset(offset)).collect();
        for root in copied_roots {
            redundant.add_root(root);
        }
        assert_eq!(redundant.state_count(), 2 * automaton.state_count());
        let reduced = redundant.reduce();
        assert!(reduced.state_count() <= automaton.state_count());
        assert!(reduced.state_count() < redundant.state_count());
        assert_eq!(reduced.enumerate(100).len(), 16);
        for b in 0..16u128 {
            assert!(reduced.accepts(&Tree::basis_state(4, b)));
        }
        reduced.validate().unwrap();
    }

    #[test]
    fn reduce_is_idempotent() {
        let automaton = all_basis(3).reduce();
        let twice = automaton.reduce();
        assert_eq!(automaton.state_count(), twice.state_count());
        assert_eq!(automaton.transition_count(), twice.transition_count());
    }

    #[test]
    fn reduce_matches_the_reference_oracle_on_structured_automata() {
        for automaton in [
            all_basis(4),
            TreeAutomaton::from_trees(
                3,
                &[
                    Tree::basis_state(3, 1),
                    Tree::basis_state(3, 5),
                    Tree::from_fn(3, |b| Algebraic::from_int((b % 3) as i64)),
                ],
            ),
        ] {
            let fast = automaton.reduce();
            let reference = automaton.reduce_reference();
            assert_eq!(fast, reference);
            assert!(crate::equivalence(&fast, &automaton).holds());
        }
    }

    #[test]
    fn chained_merges_converge() {
        // A three-deep merge chain: the duplicate leaf merges first, which
        // makes B/A equal to C, which makes P equal to Q.  The children-first
        // order must signature every state after its children's classes are
        // final, or P and Q never meet.
        let mut automaton = TreeAutomaton::new(2);
        let d1 = automaton.add_state();
        let d2 = automaton.add_state();
        automaton.add_leaf(d1, Algebraic::one());
        automaton.add_leaf(d2, Algebraic::one());
        let c = automaton.add_state();
        let b = automaton.add_state();
        let a = automaton.add_state();
        automaton.add_internal(c, InternalSymbol::new(1), d1, d1);
        automaton.add_internal(b, InternalSymbol::new(1), d2, d2);
        automaton.add_internal(a, InternalSymbol::new(1), d2, d2);
        let p = automaton.add_state();
        let q = automaton.add_state();
        automaton.add_internal(p, InternalSymbol::new(0), a, a);
        automaton.add_internal(q, InternalSymbol::new(0), c, c);
        automaton.add_root(p);
        automaton.add_root(q);
        let fast = automaton.reduce();
        let reference = automaton.reduce_reference();
        assert_eq!(fast.state_count(), 3, "leaf, middle and root must merge");
        assert_eq!(fast, reference);
        assert!(crate::equivalence(&fast, &automaton).holds());
    }

    #[test]
    fn reduce_keeps_superposition_amplitudes_distinct() {
        let bell = Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let flipped = Tree::from_fn(2, |b| match b {
            1 | 2 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let automaton = TreeAutomaton::from_trees(2, &[bell.clone(), flipped.clone()]);
        let reduced = automaton.reduce();
        assert!(reduced.accepts(&bell));
        assert!(reduced.accepts(&flipped));
        // The spurious cross-combinations must not be accepted.
        let wrong = Tree::from_fn(2, |b| match b {
            0 | 1 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        assert!(!reduced.accepts(&wrong));
    }

    #[test]
    fn empty_automaton_trims_to_empty() {
        let automaton = TreeAutomaton::new(2);
        let trimmed = automaton.trim();
        assert_eq!(trimmed.state_count(), 0);
        assert_eq!(trimmed.enumerate(10).len(), 0);
    }
}
