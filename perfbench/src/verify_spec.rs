//! `verify-spec`: a seeded stream of Table 2 jobs, each
//! `parse_qasm` → `apply_circuit` → `compare_with_post_certified(OnHolds)`.
//!
//! The families repeat in a fixed cycle so every run has the same mix; the
//! seed picks hidden strings, marked strings and perturbations.  One job
//! in four gets a post-condition that is wrong by construction (a flipped
//! output bit or a dropped basis state), so its verdict is known to be
//! violated and it returns a witness.

use rand::rngs::StdRng;
use rand::Rng;

use crate::adapter::{self, inputs, oracle, StateMap, StateSet};
use crate::host;
use crate::jobs::{fingerprint, job_rng, Counters, JobRecord, KnownAnswer, KnownSet, Status};
use crate::trace::Tracer;

#[derive(Clone, Copy)]
enum Family {
    BvSmall,
    BvWide,
    GroverSing,
    GroverAll,
    McToffoli,
}

/// One cycle of the stream: nine small jobs and one wide BV job, so the
/// median job is a small one and the 95th percentile falls in the middle
/// of the wide ones.  The wide job comes last, so even a short run covers
/// the small families first.
const CYCLE: [Family; 10] = [
    Family::BvSmall,
    Family::GroverSing,
    Family::McToffoli,
    Family::GroverAll,
    Family::BvSmall,
    Family::GroverSing,
    Family::McToffoli,
    Family::GroverAll,
    Family::BvSmall,
    Family::BvWide,
];

const BV_SMALL: [u32; 4] = [8, 16, 24, 32];
/// Hidden-string widths of the paper's BV rows, including the ones past
/// 64 bits that a `u64` closed form cannot express.
const BV_WIDE: [u32; 5] = [64, 80, 96, 112, 125];
const GROVER_SING: [u32; 2] = [2, 3];
const GROVER_ALL: [u32; 2] = [2, 3];
const MC_TOFFOLI: [u32; 4] = [6, 8, 10, 12];

pub struct VerifyJob {
    family: &'static str,
    qasm: String,
    pre: StateSet,
    post: StateSet,
    answer: KnownAnswer,
    composition: u64,
}

pub fn generate(seed: u64, index: u64) -> VerifyJob {
    let cycle = index / CYCLE.len() as u64;
    let slot = (index % CYCLE.len() as u64) as usize;
    let perturb = (cycle + slot as u64) % 4 == 3;
    let pick = |sizes: &[u32]| sizes[((cycle * 3 + slot as u64) % sizes.len() as u64) as usize];
    let mut rng = job_rng(seed, 0, index, 0);
    match CYCLE[slot] {
        Family::BvSmall => bv("bv-small", pick(&BV_SMALL), perturb, &mut rng),
        Family::BvWide => bv(
            "bv-wide",
            BV_WIDE[(cycle % BV_WIDE.len() as u64) as usize],
            perturb,
            &mut rng,
        ),
        Family::GroverSing => grover_sing(pick(&GROVER_SING), perturb, &mut rng),
        Family::GroverAll => grover_all(pick(&GROVER_ALL), perturb, &mut rng),
        Family::McToffoli => mc_toffoli(pick(&MC_TOFFOLI), perturb, &mut rng),
    }
}

fn basis_map(basis: u128) -> StateMap {
    StateMap::from([(basis, oracle::amplitude_one())])
}

fn states(maps: impl IntoIterator<Item = StateMap>) -> KnownSet {
    KnownSet::States(maps.into_iter().collect())
}

fn job(
    family: &'static str,
    circuit: adapter::Circuit,
    pre: StateSet,
    post: StateSet,
    answer: KnownAnswer,
) -> VerifyJob {
    VerifyJob {
        family,
        qasm: inputs::qasm(&circuit),
        composition: inputs::composition_primitives(&circuit),
        pre,
        post,
        answer,
    }
}

/// Bernstein–Vazirani: the output is `|s⟩|1⟩`, computed here as a `u128`.
/// The hidden string has exactly half its bits set (the seed picks which),
/// so its CNOT count, and with it the job's cost, does not vary by seed.
fn bv(family: &'static str, bits: u32, perturb: bool, rng: &mut StdRng) -> VerifyJob {
    let mut hidden: Vec<bool> = (0..bits).map(|i| i < bits / 2).collect();
    for i in (1..hidden.len()).rev() {
        hidden.swap(i, rng.gen_range(0..=i));
    }
    let qubits = bits + 1;
    let expected = hidden
        .iter()
        .fold(0u128, |acc, &bit| (acc << 1) | u128::from(bit))
        << 1
        | 1;
    let post_basis = if perturb {
        expected ^ (1u128 << rng.gen_range(0..qubits))
    } else {
        expected
    };
    job(
        family,
        inputs::bernstein_vazirani(&hidden),
        inputs::basis_state(qubits, 0),
        inputs::basis_state(qubits, post_basis),
        KnownAnswer {
            outputs: states([basis_map(expected)]),
            post: states([basis_map(post_basis)]),
        },
    )
}

/// Grover-Sing: the output state comes from exact simulation; the
/// perturbation flips one qubit of it.
fn grover_sing(m: u32, perturb: bool, rng: &mut StdRng) -> VerifyJob {
    let marked = rng.gen_range(0..1u64 << m);
    let circuit = inputs::grover_single(m, marked);
    let qubits = circuit.num_qubits();
    let output = oracle::simulate(&circuit, 0);
    let post = if perturb {
        let flip = inputs::qubit_bit(qubits, rng.gen_range(0..qubits));
        output
            .iter()
            .map(|(&basis, amplitude)| (basis ^ flip, amplitude.clone()))
            .collect()
    } else {
        output.clone()
    };
    let post_set = inputs::from_maps(qubits, std::slice::from_ref(&post));
    job(
        "grover-sing",
        circuit,
        inputs::basis_state(qubits, 0),
        post_set,
        KnownAnswer {
            outputs: states([output]),
            post: states([post]),
        },
    )
}

/// Grover-All: one simulation per oracle value; the perturbation drops one
/// output state.
fn grover_all(m: u32, perturb: bool, rng: &mut StdRng) -> VerifyJob {
    let (circuit, oracle_qubits) = inputs::grover_all(m);
    let qubits = circuit.num_qubits();
    let outputs: Vec<StateMap> = (0..1u32 << m)
        .map(|value| {
            let basis = oracle_qubits
                .iter()
                .enumerate()
                .filter(|(bit, _)| value >> bit & 1 == 1)
                .map(|(_, &qubit)| inputs::qubit_bit(qubits, qubit))
                .sum();
            oracle::simulate(&circuit, basis)
        })
        .collect();
    let mut post = outputs.clone();
    if perturb {
        post.remove(rng.gen_range(0..post.len()));
    }
    job(
        "grover-all",
        circuit,
        inputs::basis_pattern(qubits, 0, &oracle_qubits),
        inputs::from_maps(qubits, &post),
        KnownAnswer {
            outputs: states(outputs),
            post: states(post),
        },
    )
}

/// MCToffoli: the set with controls and target free (work qubits clean) is
/// mapped onto itself.  The perturbation drops one basis state `d`, built
/// as the union of the patterns that first differ from `d` at each free
/// qubit.
fn mc_toffoli(controls: u32, perturb: bool, rng: &mut StdRng) -> VerifyJob {
    let circuit = inputs::mc_toffoli(controls);
    let qubits = circuit.num_qubits();
    let free: Vec<u32> = (0..controls).chain([qubits - 1]).collect();
    let free_mask: u128 = free.iter().map(|&q| inputs::qubit_bit(qubits, q)).sum();
    let pre = inputs::basis_pattern(qubits, 0, &free);
    let (post, except) = if perturb {
        let dropped = rng.gen::<u128>() & free_mask;
        let mut union: Option<StateSet> = None;
        let mut prefix = 0u128;
        for (k, &qubit) in free.iter().enumerate() {
            let bit = inputs::qubit_bit(qubits, qubit);
            let part = inputs::basis_pattern(qubits, prefix | (bit & !dropped), &free[k + 1..]);
            union = Some(match union {
                Some(set) => inputs::union(&set, &part),
                None => part,
            });
            prefix |= dropped & bit;
        }
        (union.expect("at least one free qubit"), Some(dropped))
    } else {
        (pre.clone(), None)
    };
    job(
        "mc-toffoli",
        circuit,
        pre,
        post,
        KnownAnswer {
            outputs: KnownSet::Pattern {
                free_mask,
                except: None,
            },
            post: KnownSet::Pattern { free_mask, except },
        },
    )
}

/// Runs one job (the timed part is the `job` span) and checks it against
/// its known answer.  `plant_wrong` inverts the expected verdict, which
/// must make the run fail.
pub fn run(
    tracer: &Tracer,
    job: &VerifyJob,
    index: u64,
    plant_wrong: bool,
    counters: &mut Counters,
) -> JobRecord {
    let start = std::time::Instant::now();
    let clock = host::begin();
    let (stats, result) = tracer.span("job", || {
        let circuit = adapter::parse(tracer, &job.qasm);
        let (output, stats) = adapter::apply(tracer, &job.pre, &circuit);
        (
            stats,
            adapter::compare_certified(tracer, &output, &job.post),
        )
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (cpu_ms, at_s) = host::end(clock);
    counters.add_engine_run(&stats, job.composition);
    let expected = job.answer.holds() != plant_wrong;
    let record = |status, fingerprint| JobRecord {
        lane: 0,
        index,
        family: job.family,
        ms,
        cpu_ms,
        at_s,
        status,
        cached: false,
        fingerprint,
    };
    let (outcome, certified) = match result {
        Ok(result) => result,
        Err(violation) => {
            counters.wrong(format!("job {index} ({}): {violation}", job.family));
            return record(Status::Failed, fingerprint(&[b"soundness"]));
        }
    };
    if outcome.holds() != expected {
        counters.wrong(format!(
            "job {index} ({}): verdict holds={} expected {expected}",
            job.family,
            outcome.holds()
        ));
    }
    let mut witness_bytes = Vec::new();
    let mut reachable_but_forbidden = false;
    if let adapter::VerificationOutcome::Violated {
        witness,
        reachable_but_forbidden: rbf,
    } = &outcome
    {
        reachable_but_forbidden = *rbf;
        witness_bytes = adapter::encode_witness(tracer, witness);
        counters.witnesses += 1;
        counters.witness_bytes += witness_bytes.len() as u64;
        if !job.answer.witness_ok(&oracle::witness_map(witness), *rbf) {
            counters.wrong(format!(
                "job {index} ({}): witness outside the known difference",
                job.family
            ));
        }
    }
    let certificate_digest = match (&certified, outcome.holds()) {
        (Some((record, bytes)), true) => {
            let digest = oracle::digest(bytes);
            if !record.checker_passed
                || record.digest.0 != digest
                || oracle::certificate_count(bytes) != Some(2)
            {
                counters.wrong(format!(
                    "job {index} ({}): bad certificate record",
                    job.family
                ));
            }
            counters.certificates += 1;
            counters.certificate_bytes += bytes.len() as u64;
            digest.to_vec()
        }
        (None, false) => Vec::new(),
        _ => {
            counters.wrong(format!(
                "job {index} ({}): certificate does not match the verdict",
                job.family
            ));
            Vec::new()
        }
    };
    let summary = [u8::from(outcome.holds()), u8::from(reachable_but_forbidden)];
    record(
        Status::Done,
        fingerprint(&[&summary, &witness_bytes, &certificate_digest]),
    )
}
