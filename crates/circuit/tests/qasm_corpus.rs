//! Golden-corpus round-trip tests for the OpenQASM subset:
//! `parse_qasm(write_qasm(C)) == C` over generated benchmark circuits and
//! hand-written sources, plus error-position assertions — a malformed
//! statement must be reported with its 1-based source line.

mod corpus;

use autoq_circuit::generators::{bernstein_vazirani, grover_single, mc_toffoli};
use autoq_circuit::qasm::{parse_qasm, write_qasm};
use autoq_circuit::Circuit;
use corpus::golden_corpus;

#[test]
fn golden_sources_parse_to_their_circuits_and_round_trip() {
    for (index, (source, expected)) in golden_corpus().into_iter().enumerate() {
        let parsed = parse_qasm(source).unwrap_or_else(|e| panic!("corpus {index}: {e}"));
        assert_eq!(parsed, expected, "corpus {index}");
        // write → parse is the identity on the parsed circuit.
        let rewritten = parse_qasm(&write_qasm(&parsed)).unwrap();
        assert_eq!(rewritten, parsed, "corpus {index} round trip");
    }
}

#[test]
fn generated_benchmark_circuits_round_trip() {
    let circuits: Vec<Circuit> = vec![
        bernstein_vazirani(&[true, false, true, true]),
        mc_toffoli(3),
        grover_single(2, 0b01, Some(1)).0,
    ];
    for circuit in circuits {
        let qasm = write_qasm(&circuit);
        let parsed = parse_qasm(&qasm).unwrap();
        assert_eq!(parsed, circuit);
        // And the writer is stable: writing the re-parsed circuit is
        // byte-identical.
        assert_eq!(write_qasm(&parsed), qasm);
    }
}

/// Asserts that `source` fails to parse with an error on `line` whose
/// message contains `needle`.
fn assert_error_at(source: &str, line: usize, needle: &str) {
    let err = parse_qasm(source).expect_err("source must be rejected");
    assert_eq!(
        err.line, line,
        "wrong line for {needle:?}: got line {} ({})",
        err.line, err.message
    );
    assert!(
        err.message.contains(needle),
        "error {:?} does not mention {needle:?}",
        err.message
    );
}

#[test]
fn parse_errors_carry_their_source_line() {
    // Unsupported gate on line 4.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(pi/4) q[0];\n",
        4,
        "unsupported gate",
    );
    // Unsupported rotation angle on line 3.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[1];\nrx(pi/4) q[0];\n",
        3,
        "only rotations by pi/2",
    );
    // Wrong register name on line 5 (blank + comment lines still count).
    assert_error_at(
        "OPENQASM 2.0;\n// a comment\n\nqreg q[2];\nh r[0];\n",
        5,
        "unknown register",
    );
    // Arity error on line 2 of a two-statement line: the *line* is
    // reported, not the statement index.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[3]; cx q[0];\n",
        2,
        "expects 2 qubits",
    );
    // Malformed qreg on line 2.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[two];\n",
        2,
        "malformed register size",
    );
    // Duplicate qreg on line 3.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[1];\nqreg p[1];\n",
        3,
        "multiple qreg declarations",
    );
    // Malformed qubit index on line 2.
    assert_error_at(
        "OPENQASM 2.0;\nqreg q[2];\nh q[x];\n",
        3,
        "malformed qubit index",
    );
    // A file with no qreg at all reports pseudo-line 0.
    assert_error_at("OPENQASM 2.0;\n", 0, "no qreg declaration");
}

#[test]
fn out_of_range_qubits_are_rejected_by_circuit_construction() {
    // Once the qreg width is known the parser checks every index, so the
    // error names the offending statement's line (Circuit::from_gates stays
    // the backstop for a gate before the qreg).
    let err = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[7];\n").expect_err("must fail");
    assert_eq!(err.line, 3);
    assert!(!err.message.is_empty());
}
