//! Cross-validation of the fast children-first reduction against the
//! retained naive reference implementation
//! (`TreeAutomaton::reduce_reference`), plus regression properties:
//!
//! * on random small automata (with deliberately injected redundancy), the
//!   fast `reduce` returns an automaton structurally equal (`==`) to the
//!   reference's, and preserves the original language;
//! * on random automata with arbitrary (often cyclic) transition graphs,
//!   and on fixed cyclic shapes, the fast `reduce` equals the reference;
//! * `reduce` is idempotent.

use std::collections::HashSet;

use autoq_amplitude::Algebraic;
use autoq_treeaut::{equivalence, InternalSymbol, StateId, Tree, TreeAutomaton};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a random small automaton: the basis states selected by `mask`
/// plus one superposition tree derived from `seed`, optionally with a
/// duplicated copy of itself unioned in (the redundancy shape the gate
/// constructions create, which reduction must collapse).
fn random_automaton(n: u32, mask: u64, seed: u32, duplicate: bool) -> TreeAutomaton {
    let space = autoq_treeaut::basis::basis_count(n);
    let mut trees: Vec<Tree> = (0..space)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| Tree::basis_state(n, b))
        .collect();
    trees.push(Tree::from_fn(n, |b| {
        Algebraic::from_int(((seed as u128 + b) % 4) as i64)
    }));
    let mut automaton = TreeAutomaton::from_trees(n, &trees);
    if duplicate {
        let copy = automaton.clone();
        let offset = automaton.import_disjoint(&copy);
        let copied_roots: Vec<_> = copy.roots.iter().map(|r| r.offset(offset)).collect();
        for root in copied_roots {
            automaton.add_root(root);
        }
    }
    automaton
}

/// Builds a random automaton over an arbitrary transition graph: cycles,
/// self-loops and states above cycles are all likely, and some states are
/// exact copies of others (the redundancy reduction must collapse).
fn random_graph_automaton(seed: u64) -> TreeAutomaton {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut automaton = TreeAutomaton::new(2);
    let states = automaton.add_states(rng.gen_range(2..=7u32));
    let pick = |rng: &mut rand::rngs::StdRng| states[rng.gen_range(0..states.len())];
    for &state in &states {
        if rng.gen_bool(0.4) {
            automaton.add_leaf(state, Algebraic::from_int(rng.gen_range(0..2i64)));
        }
    }
    for _ in 0..rng.gen_range(1..=10usize) {
        let (parent, left, right) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        automaton.add_internal(
            parent,
            InternalSymbol::new(rng.gen_range(0..2u32)),
            left,
            right,
        );
    }
    for _ in 0..rng.gen_range(0..=3usize) {
        let original = pick(&mut rng);
        let copy = automaton.add_state();
        let transitions: Vec<_> = automaton
            .internal
            .iter()
            .filter(|t| t.parent == original)
            .map(|t| (t.symbol, t.left, t.right))
            .collect();
        for (symbol, left, right) in transitions {
            automaton.add_internal(copy, symbol, left, right);
        }
        if let Some(value) = automaton.leaf_value(original) {
            automaton.add_leaf(copy, value);
        }
    }
    for _ in 0..rng.gen_range(1..=3usize) {
        let root = StateId::new(rng.gen_range(0..automaton.num_states));
        automaton.add_root(root);
    }
    automaton
}

fn language(automaton: &TreeAutomaton) -> HashSet<Tree> {
    automaton.enumerate(100).into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn reduce_matches_reference_on_random_automata(
        n in 1u32..=3,
        mask in 0u64..256,
        seed in any::<u32>(),
        duplicate in 0u8..2,
    ) {
        let automaton = random_automaton(n, mask, seed, duplicate == 1);
        let fast = automaton.reduce();
        let reference = automaton.reduce_reference();
        // Same language, element for element.
        prop_assert_eq!(language(&fast), language(&reference));
        // Same reduction power: the children-first pass must find every
        // merge the naive fixpoint finds, and nothing more.
        prop_assert_eq!(fast.state_count(), reference.state_count());
        prop_assert_eq!(fast.transition_count(), reference.transition_count());
        // And the very same automaton: same representatives, same state
        // numbering, same transition order.
        prop_assert_eq!(&fast, &reference);
        // And the language is exactly the original automaton's.
        prop_assert!(equivalence(&fast, &automaton).holds());
        fast.validate().unwrap();
    }

    #[test]
    fn reduce_matches_reference_on_random_cyclic_automata(seed in any::<u64>()) {
        let automaton = random_graph_automaton(seed);
        let fast = automaton.reduce();
        prop_assert_eq!(&fast, &automaton.reduce_reference());
        fast.validate().unwrap();
    }

    #[test]
    fn reduce_is_idempotent_on_random_automata(
        n in 1u32..=3,
        mask in 0u64..256,
        seed in any::<u32>(),
    ) {
        let reduced = random_automaton(n, mask, seed, true).reduce();
        let twice = reduced.reduce();
        prop_assert_eq!(reduced.state_count(), twice.state_count());
        prop_assert_eq!(reduced.transition_count(), twice.transition_count());
        prop_assert_eq!(language(&reduced), language(&twice));
    }
}

/// The duplicated-copy shape must collapse back to (at most) the original
/// size — the core guarantee the per-gate reduction relies on.
#[test]
fn duplicated_automaton_collapses_to_single_copy() {
    let single = random_automaton(3, 0b1010_0101, 7, false);
    let doubled = random_automaton(3, 0b1010_0101, 7, true);
    let reduced = doubled.reduce();
    assert!(reduced.state_count() <= single.reduce().state_count());
    assert!(equivalence(&reduced, &single).holds());
}

/// An automaton with one leaf state (amplitude 1) and `count` further states.
fn with_leaf(count: u32) -> (TreeAutomaton, StateId, Vec<StateId>) {
    let mut automaton = TreeAutomaton::new(2);
    let leaf = automaton.add_state();
    automaton.add_leaf(leaf, Algebraic::one());
    let states = automaton.add_states(count);
    (automaton, leaf, states)
}

/// Reduces `automaton`, asserts equality with the reference and returns the
/// reduced state count.
fn reduced_state_count(automaton: &TreeAutomaton) -> usize {
    let fast = automaton.reduce();
    assert_eq!(fast, automaton.reduce_reference());
    fast.validate().unwrap();
    fast.state_count()
}

#[test]
fn self_loops_reduce_like_the_reference() {
    // p → x0(p, a) | x0(a, a) loops on itself; r has p's exact successors
    // and merges into it, q loops on itself instead and stays apart.
    let (mut automaton, a, states) = with_leaf(3);
    let (p, q, r) = (states[0], states[1], states[2]);
    let x0 = InternalSymbol::new(0);
    for (parent, child) in [(p, p), (q, q), (r, p)] {
        automaton.add_internal(parent, x0, child, a);
        automaton.add_internal(parent, x0, a, a);
        automaton.add_root(parent);
    }
    assert_eq!(reduced_state_count(&automaton), 3);
}

#[test]
fn a_two_cycle_does_not_merge() {
    // p → x0(q, a), q → x0(p, a): each signature names the other state, so
    // merging them would need the merge it justifies.
    let (mut automaton, a, states) = with_leaf(2);
    let (p, q) = (states[0], states[1]);
    let x0 = InternalSymbol::new(0);
    automaton.add_internal(p, x0, q, a);
    automaton.add_internal(q, x0, p, a);
    for state in [p, q] {
        automaton.add_internal(state, x0, a, a);
        automaton.add_root(state);
    }
    assert_eq!(reduced_state_count(&automaton), 3);
}

#[test]
fn states_above_a_cycle_with_equal_successors_merge() {
    // The 2-cycle p ⇄ q sits below r and s (equal successors), which sit
    // below t and u (equal once r and s are one class).  The parents get
    // the lower ids, so they are signatured before their children and the
    // merge of r and s must reach them afterwards.
    let (mut automaton, a, states) = with_leaf(6);
    let (t, u, r, s, p, q) = (
        states[0], states[1], states[2], states[3], states[4], states[5],
    );
    let (x0, x1) = (InternalSymbol::new(0), InternalSymbol::new(1));
    automaton.add_internal(p, x0, q, a);
    automaton.add_internal(q, x0, p, a);
    automaton.add_internal(p, x0, a, a);
    automaton.add_internal(q, x0, a, a);
    automaton.add_internal(r, x1, p, a);
    automaton.add_internal(s, x1, p, a);
    automaton.add_internal(t, x0, r, a);
    automaton.add_internal(u, x0, s, a);
    automaton.add_root(t);
    automaton.add_root(u);
    // a, p, q, {r, s}, {t, u}.
    assert_eq!(reduced_state_count(&automaton), 5);
}
