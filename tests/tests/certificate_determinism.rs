//! Certificates and output automata do not depend on the term-evaluation
//! thread count: Table 2 presets verified under `CertifyPolicy::OnHolds`
//! with one and with two evaluation threads, twice each in one process,
//! must produce byte-identical `AQIC` bundles and byte-identical `AQTD`
//! encodings of the output automaton.  The daemon caches and serves these
//! bytes, so they must be a function of the job alone.

use autoq_circuit::generators::{bernstein_vazirani, grover_single, mc_toffoli};
use autoq_circuit::Circuit;
use autoq_core::presets::{bv_spec, mc_toffoli_spec};
use autoq_core::{compare_with_post_certified, CertifyPolicy, Engine, SpecMode, StateSet};
use autoq_simulator::DenseState;
use autoq_treeaut::format;

/// Verifies `circuit` with 1, 2, 1 and 2 evaluation threads and asserts
/// that every run yields the same certificate bundle and output encoding.
fn assert_thread_count_invariant(name: &str, pre: &StateSet, circuit: &Circuit, post: &StateSet) {
    let mut runs: Vec<(usize, Vec<u8>, Vec<u8>)> = Vec::new();
    for threads in [1, 2, 1, 2] {
        let engine = Engine::hybrid().with_eval_threads(threads);
        let (output, _) = engine.apply_circuit_with_stats(pre, circuit);
        let (outcome, certified) =
            compare_with_post_certified(&output, post, SpecMode::Equality, CertifyPolicy::OnHolds)
                .unwrap_or_else(|violation| panic!("{name}: {violation:?}"));
        assert!(outcome.holds(), "{name} must verify");
        let (record, bundle) = certified.unwrap_or_else(|| panic!("{name}: no certificate"));
        assert!(record.checker_passed, "{name}: checker rejected the bundle");
        runs.push((threads, bundle, format::to_binary(output.automaton())));
    }
    let (_, first_bundle, first_output) = &runs[0];
    for (threads, bundle, output) in &runs[1..] {
        assert!(
            bundle == first_bundle,
            "{name}: certificate bytes differ at {threads} threads"
        );
        assert!(
            output == first_output,
            "{name}: output automaton bytes differ at {threads} threads"
        );
    }
}

#[test]
fn bv_certificates_do_not_depend_on_thread_count() {
    let hidden = [true, false, true, true, false, true, false, true];
    let spec = bv_spec(&hidden);
    let circuit = bernstein_vazirani(&hidden);
    assert_thread_count_invariant("BV8", &spec.pre, &circuit, &spec.post);
}

#[test]
fn grover_single_certificates_do_not_depend_on_thread_count() {
    let (circuit, _) = grover_single(3, 0b101, None);
    let n = circuit.num_qubits();
    let pre = StateSet::basis_state(n, 0);
    let post = StateSet::from_state_maps(n, &[DenseState::run(&circuit, 0).to_amplitude_map()]);
    assert_thread_count_invariant("Grover-Sing3", &pre, &circuit, &post);
}

#[test]
fn mc_toffoli_certificates_do_not_depend_on_thread_count() {
    let circuit = mc_toffoli(6);
    let spec = mc_toffoli_spec(&circuit);
    assert_thread_count_invariant("MCToffoli6", &spec.pre, &circuit, &spec.post);
}
