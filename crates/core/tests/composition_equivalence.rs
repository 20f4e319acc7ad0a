//! Cross-validation of the fused composition pipeline against the retained
//! reference swap ladder:
//!
//! * on random automata (tagged and untagged, varying qubit depth), the
//!   fused [`project_with`] — indexed swap passes, ladder-wide interning,
//!   in-ladder reduction — accepts exactly the same (tagged) language as
//!   the unfused [`project_reference`] ladder;
//! * a reference recursive formula evaluator built from the same unfused
//!   pieces agrees with the fused/parallel [`evaluate_with`];
//! * tag structure survives in-ladder reduction: reducing a tagged
//!   automaton never merges states whose signatures disagree on tags, and
//!   never invents or drops tags;
//! * on every tagged intermediate automaton of real H/Rx/CNOT formulas
//!   (each swap of each projection ladder, each subterm), the fast
//!   `reduce` returns an automaton structurally equal to the naive
//!   `reduce_reference`.

use std::collections::HashSet;

use autoq_amplitude::Algebraic;
use autoq_circuit::Gate;
use autoq_core::composition::{
    self, backward_swap, binary_op, evaluate_with, forward_swap, multiply, project_reference,
    project_with, restrict, subtree_copy_in_place, tag, CompositionOptions,
};
use autoq_core::formula::{update_formula, UpdateExpr};
use autoq_core::CompositionOptions as ReexportedOptions;
use autoq_treeaut::{equivalence, Tag, Tree, TreeAutomaton};
use proptest::prelude::*;

/// Builds a random small automaton: the basis states selected by `mask`
/// plus one superposition tree derived from `seed`, optionally tagged (the
/// shape every composition-encoded gate works on).
fn random_automaton(n: u32, mask: u64, seed: u32, tagged: bool) -> TreeAutomaton {
    let space = autoq_treeaut::basis::basis_count(n);
    let mut trees: Vec<Tree> = (0..space)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| Tree::basis_state(n, b))
        .collect();
    trees.push(Tree::from_fn(n, |b| {
        Algebraic::from_int(((seed as u128 + b) % 4) as i64)
    }));
    let automaton = TreeAutomaton::from_trees(n, &trees);
    if tagged {
        tag(&automaton)
    } else {
        automaton
    }
}

/// The fused options under test: growth factor 1 forces an in-ladder
/// reduction at every opportunity, so the property exercises reduction
/// interleaved with every swap pass, not just the pass mechanics.
fn aggressive_options() -> CompositionOptions {
    CompositionOptions {
        ladder_growth_factor: Some(1),
        eval_threads: 1,
    }
}

/// Reference recursive evaluator: the pre-fusion semantics, term by term,
/// with the unfused projection ladder and owned operands everywhere.
fn evaluate_reference(expr: &UpdateExpr, tagged_source: &TreeAutomaton) -> TreeAutomaton {
    match expr {
        UpdateExpr::Source => tagged_source.clone(),
        UpdateExpr::Proj { qubit, bit } => project_reference(tagged_source, *qubit, *bit),
        UpdateExpr::Restrict { qubit, bit, inner } => {
            restrict(&evaluate_reference(inner, tagged_source), *qubit, *bit)
        }
        UpdateExpr::Scale { factor, inner } => {
            multiply(&evaluate_reference(inner, tagged_source), *factor)
        }
        UpdateExpr::Combine { sign, lhs, rhs } => binary_op(
            &evaluate_reference(lhs, tagged_source),
            &evaluate_reference(rhs, tagged_source),
            *sign,
        ),
    }
}

/// Asserts that the fast reduction of `automaton` is the very automaton the
/// naive oracle returns, and passes `automaton` through.
fn reduced_like_reference(automaton: TreeAutomaton) -> TreeAutomaton {
    assert_eq!(automaton.reduce(), automaton.reduce_reference());
    automaton
}

/// The reference evaluator, checking the reduction on every intermediate
/// automaton: after each forward and backward swap of each projection
/// ladder, after the subtree copy, and on every subterm's result.
fn evaluate_checking_reduction(expr: &UpdateExpr, tagged_source: &TreeAutomaton) -> TreeAutomaton {
    let result = match expr {
        UpdateExpr::Source => tagged_source.clone(),
        UpdateExpr::Proj { qubit, bit } => {
            let swaps = tagged_source.num_vars - 1 - qubit;
            let mut current = tagged_source.clone();
            for _ in 0..swaps {
                current = reduced_like_reference(forward_swap(&current, *qubit));
            }
            subtree_copy_in_place(&mut current, *qubit, *bit);
            for _ in 0..swaps {
                current = reduced_like_reference(backward_swap(&current, *qubit));
            }
            current
        }
        UpdateExpr::Restrict { qubit, bit, inner } => restrict(
            &evaluate_checking_reduction(inner, tagged_source),
            *qubit,
            *bit,
        ),
        UpdateExpr::Scale { factor, inner } => {
            multiply(&evaluate_checking_reduction(inner, tagged_source), *factor)
        }
        UpdateExpr::Combine { sign, lhs, rhs } => binary_op(
            &evaluate_checking_reduction(lhs, tagged_source),
            &evaluate_checking_reduction(rhs, tagged_source),
            *sign,
        ),
    };
    reduced_like_reference(result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fused_projection_matches_the_reference_ladder(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
        qubit_seed in any::<u32>(),
        bit_choice in 0u8..2,
        tagged_choice in 0u8..2,
    ) {
        let (bit, tagged) = (bit_choice == 1, tagged_choice == 1);
        let automaton = random_automaton(n, mask, seed, tagged);
        let qubit = qubit_seed % n;
        let fused = project_with(&automaton, qubit, bit, &aggressive_options());
        let reference = project_reference(&automaton, qubit, bit);
        // Tags are part of the symbols, so this compares the *tagged*
        // languages — exactly what the downstream binary operation matches
        // transitions on.
        prop_assert!(
            equivalence(&fused, &reference).holds(),
            "fused projection diverged (n = {}, qubit = {}, bit = {}, tagged = {})",
            n, qubit, bit, tagged
        );
    }

    #[test]
    fn fused_formula_evaluation_matches_the_reference_evaluator(
        n in 2u32..=3,
        mask in 0u64..64,
        seed in any::<u32>(),
        gate_seed in any::<u32>(),
        threads in 1usize..=4,
    ) {
        let tagged = random_automaton(n, mask, seed, true);
        let target = gate_seed % n;
        let gate = match gate_seed % 3 {
            0 => Gate::H(target),
            1 => Gate::RxPi2(target),
            _ => Gate::RyPi2(target),
        };
        let formula = update_formula(&gate).expect("superposing gates have formulae");
        let opts = CompositionOptions {
            eval_threads: threads,
            ..aggressive_options()
        };
        let fused = evaluate_with(&formula, &tagged, &opts);
        let reference = evaluate_reference(&formula, &tagged);
        prop_assert!(
            equivalence(&fused.untagged(), &reference.untagged()).holds(),
            "fused evaluation diverged ({gate:?}, {threads} thread(s))"
        );
    }

    #[test]
    fn mid_ladder_reduction_matches_the_reference_exactly(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
        gate_seed in any::<u32>(),
    ) {
        let tagged = random_automaton(n, mask, seed, true);
        let target = gate_seed % n;
        let gate = match gate_seed % 3 {
            0 => Gate::H(target),
            1 => Gate::RxPi2(target),
            _ => Gate::Cnot {
                control: (target + 1) % n,
                target,
            },
        };
        let formula = update_formula(&gate).expect("H, Rx and CNOT have formulae");
        let untagged = evaluate_checking_reduction(&formula, &tagged).untagged();
        prop_assert_eq!(untagged.reduce(), untagged.reduce_reference());
    }

    #[test]
    fn in_ladder_reduction_preserves_tag_structure(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
    ) {
        // Reduce a tagged automaton with injected redundancy (the shape the
        // in-ladder reduction sees mid-swap): the tagged language must be
        // unchanged and no tag may appear that the input did not carry.
        let mut automaton = random_automaton(n, mask, seed, true);
        let copy = automaton.clone();
        let offset = automaton.import_disjoint(&copy);
        let copied_roots: Vec<_> = copy.roots.iter().map(|r| r.offset(offset)).collect();
        for root in copied_roots {
            automaton.add_root(root);
        }
        let reduced = automaton.reduce();
        prop_assert!(reduced.state_count() <= copy.state_count());
        prop_assert!(equivalence(&reduced, &copy).holds(), "tagged language changed");
        let original_tags: HashSet<Tag> =
            copy.internal.iter().map(|t| t.symbol.tag).collect();
        for transition in &reduced.internal {
            prop_assert!(
                original_tags.contains(&transition.symbol.tag),
                "reduction invented tag {:?}",
                transition.symbol.tag
            );
        }
    }
}

/// Pins the tag-preservation contract the fused ladder relies on: two
/// states that are identical *except for their tags* must never be merged
/// by the reduction (tags live in the symbols, so their signatures differ).
#[test]
fn reduction_never_merges_across_tags() {
    let mut automaton = TreeAutomaton::new(1);
    let zero = automaton.leaf_state(&Algebraic::zero());
    let one = automaton.leaf_state(&Algebraic::one());
    let a = automaton.add_state();
    let b = automaton.add_state();
    automaton.add_internal(
        a,
        autoq_treeaut::InternalSymbol::new(0).with_tag(Tag::Single(1)),
        zero,
        one,
    );
    automaton.add_internal(
        b,
        autoq_treeaut::InternalSymbol::new(0).with_tag(Tag::Single(2)),
        zero,
        one,
    );
    automaton.add_root(a);
    automaton.add_root(b);
    let reduced = automaton.reduce();
    // Both tagged transitions survive: the two trees differ only in tags,
    // and the binary operation downstream depends on that distinction.
    assert_eq!(reduced.internal.len(), 2);
    let tags: HashSet<Tag> = reduced.internal.iter().map(|t| t.symbol.tag).collect();
    assert!(tags.contains(&Tag::Single(1)) && tags.contains(&Tag::Single(2)));
}

/// The composition options are re-exported at the crate root (the engine's
/// public tuning surface) and default to in-ladder reduction at growth
/// factor 2 with the machine-derived thread budget.
#[test]
fn composition_options_default_and_reexport() {
    let options: ReexportedOptions = CompositionOptions::default();
    assert_eq!(options.ladder_growth_factor, Some(2));
    assert!(options.eval_threads >= 1);
    assert_eq!(options.eval_threads, composition::default_eval_threads());
}
