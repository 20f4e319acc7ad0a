//! Seeded fuzz test for the OpenQASM parser, which the verification daemon
//! runs on untrusted job text: over random byte strings, random token soup
//! and mutations of the golden corpus, `parse_qasm` must never panic, and
//! every error must name a line that exists (`0` for file-scoped errors).
//!
//! The default run takes well under a second in debug; the `#[ignore]`d
//! variant runs 100× the cases and is meant for release builds:
//! `cargo test --release -p autoq-circuit --test qasm_fuzz -- --include-ignored`.

mod corpus;

use std::panic::catch_unwind;

use autoq_circuit::generators::{bernstein_vazirani, grover_single, mc_toffoli};
use autoq_circuit::qasm::{parse_qasm, write_qasm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inputs per generator in the default run.
const CASES: usize = 3_000;

/// Characters whose misplacement the parser must survive.
const DELIMITERS: &[u8] = b"[](){};,";

/// Fragments of the QASM subset, glued at random into token soup.
const TOKENS: &[&str] = &[
    "OPENQASM 2.0",
    "include \"qelib1.inc\"",
    "qreg",
    "creg",
    "measure",
    "barrier",
    "->",
    "q",
    "r",
    "c",
    "h",
    "x",
    "cx",
    "ccx",
    "cswap",
    "rx",
    "ry",
    "pi/2",
    "0.5*pi",
    "pi/4",
    "0",
    "1",
    "2",
    "7",
    "4294967296",
    "-1",
    "[",
    "]",
    "(",
    ")",
    ";",
    ",",
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "//",
    "é",
    "\u{2009}",
];

/// Parses `source` and checks the contract: no panic, and an error's line
/// is within the source.
fn check(source: &str) {
    let outcome = catch_unwind(|| parse_qasm(source));
    match outcome {
        Err(_) => panic!("parse_qasm panicked on {source:?}"),
        Ok(Err(err)) => assert!(
            err.line <= source.lines().count(),
            "error line {} past the end of a {}-line source {source:?}: {}",
            err.line,
            source.lines().count(),
            err.message
        ),
        Ok(Ok(_)) => {}
    }
}

/// The golden corpus plus writer output of generated benchmark circuits.
fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = corpus::golden_corpus()
        .into_iter()
        .map(|(source, _)| source.to_string())
        .collect();
    seeds.push(write_qasm(&bernstein_vazirani(&[true, false, true])));
    seeds.push(write_qasm(&mc_toffoli(3)));
    seeds.push(write_qasm(&grover_single(2, 0b01, Some(1)).0));
    seeds
}

fn random_bytes(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..64);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

fn token_soup(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..40);
    (0..len)
        .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
        .collect()
}

/// Applies one to four random edits to `seed`: bit flips, a truncation,
/// and swapped, duplicated or deleted delimiters.
fn mutate(rng: &mut StdRng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let delimiters: Vec<usize> = (0..bytes.len())
            .filter(|&i| DELIMITERS.contains(&bytes[i]))
            .collect();
        match rng.gen_range(0..5) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => bytes.truncate(at),
            2 if delimiters.len() >= 2 => {
                let i = delimiters[rng.gen_range(0..delimiters.len())];
                let j = delimiters[rng.gen_range(0..delimiters.len())];
                bytes.swap(i, j);
            }
            3 if !delimiters.is_empty() => {
                let i = delimiters[rng.gen_range(0..delimiters.len())];
                bytes.insert(i, bytes[i]);
            }
            4 if !delimiters.is_empty() => {
                bytes.remove(delimiters[rng.gen_range(0..delimiters.len())]);
            }
            _ => bytes.insert(at, DELIMITERS[rng.gen_range(0..DELIMITERS.len())]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fuzz(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds = seeds();
    for _ in 0..cases {
        check(&random_bytes(&mut rng));
        check(&token_soup(&mut rng));
        let source = &seeds[rng.gen_range(0..seeds.len())];
        check(&mutate(&mut rng, source));
    }
}

#[test]
fn reversed_brackets_are_errors_on_their_line() {
    for (source, line) in [
        ("qreg q]3[;", 1),
        ("h)(x q[0];", 1),
        ("OPENQASM 2.0;\nqreg q[2];\nx q]0[;\n", 3),
        ("qreg q[2];\ncx q[0], q]1[;", 2),
    ] {
        check(source);
        let err = parse_qasm(source).expect_err("reversed brackets must be rejected");
        assert_eq!(err.line, line, "{source:?}: {}", err.message);
    }
}

#[test]
fn parser_survives_random_and_mutated_inputs() {
    fuzz(0x5eed_0a5e, CASES);
}

#[test]
#[ignore = "100x the default cases; run in release"]
fn parser_survives_random_and_mutated_inputs_at_length() {
    fuzz(0x5eed_1005, 100 * CASES);
}
