//! `hunt-superposing` and `hunt-reversible`: Table 3 circuits with one
//! injected gate, hunted by `BugHunter::hunt_interruptible` under a
//! deterministic budget (a peak-state cap on the `Interrupt` and an
//! iteration cap on the hunter, never a wall-clock deadline).
//!
//! An inserted gate is never the identity, so the two circuits always
//! differ as unitaries and a hunt over every basis input must find the
//! bug.  A hunt that stops at its budget counts as exhausted; a hunt that
//! covered every input without finding the bug is a wrong verdict, and so
//! is a witness the exact simulator cannot confirm.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, inputs, Circuit, Gate};
use crate::host;
use crate::jobs::{fingerprint, job_rng, Counters, JobRecord, Status};
use crate::trace::Tracer;

/// Hunter iteration cap: input sets of up to `2^(MAX_ITERATIONS-1)` basis
/// states.  Measured on 2 cores: at 5 or 8 iterations single hunts of the
/// 24- and 35-qubit circuits ran 0.3–1.6 s and made the per-run job mix
/// unsteady; at 3 the slowest job stays under 0.5 s.
pub const MAX_ITERATIONS: u32 = 3;
/// Peak automaton states any one circuit application may reach.
pub const MAX_STATES: u64 = 20_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Superposing,
    Reversible,
}

/// Widths of the superposing `Random` family (3 gates per qubit).
const SUPERPOSING_WIDTHS: [u32; 5] = [6, 8, 10, 12, 14];

/// The reversible families, one job each per cycle.  The 35-qubit random
/// circuits are left out: a hunt there took about 110 ms when it found the
/// bug at the first iteration and about 500 ms when it ran out of budget,
/// and with a quarter to three fifths of them running out from seed to
/// seed, the run's p90 spread 30% across five seeds (3% without them).
const REVERSIBLE: [&str; 11] = [
    "add4", "gf2mul3", "inc6", "cla12", "add6", "gf2mul4", "inc8", "random16", "gf2mul5", "cla20",
    "random24",
];

fn reversible_circuit(name: &str, rng: &mut StdRng) -> Circuit {
    match name {
        "add4" => inputs::ripple_carry_adder(4),
        "add6" => inputs::ripple_carry_adder(6),
        "gf2mul3" => inputs::gf2_multiplier(3),
        "gf2mul4" => inputs::gf2_multiplier(4),
        "gf2mul5" => inputs::gf2_multiplier(5),
        "inc6" => inputs::increment(6),
        "inc8" => inputs::increment(8),
        "cla12" => inputs::carry_lookahead(12, 3),
        "cla20" => inputs::carry_lookahead(20, 4),
        "random16" => inputs::random_circuit(16, 48, false, rng),
        "random24" => inputs::random_circuit(24, 72, false, rng),
        other => unreachable!("unknown reversible family {other}"),
    }
}

/// Inserts one gate from the pool `mutation::inject_random_gate` draws
/// from (permutation gates, plus H, Rx and Ry when superposing) at a random
/// position on random qubits.  The kind is not drawn but taken in turn
/// (`gate_kind` modulo the pool), so every run injects the same mix of
/// kinds and the seed picks only qubits and positions.  Drawn at random,
/// the twelve jobs on 35-qubit circuits (since left out) in one 12-second
/// run got no Toffoli or CZ bug (the kinds a hunt finds late or not at
/// all) and took a third of the usual CPU time.
fn inject(circuit: &Circuit, kind: Kind, gate_kind: usize, rng: &mut StdRng) -> Circuit {
    let qubits = circuit.num_qubits();
    let a = rng.gen_range(0..qubits);
    let b = (a + rng.gen_range(1..qubits)) % qubits;
    let c = loop {
        let c = rng.gen_range(0..qubits);
        if c != a && c != b {
            break c;
        }
    };
    let mut pool = vec![
        Gate::X(a),
        Gate::Y(a),
        Gate::Z(a),
        Gate::S(a),
        Gate::T(a),
        Gate::Cnot {
            control: a,
            target: b,
        },
        Gate::Cz {
            control: a,
            target: b,
        },
        Gate::Toffoli {
            controls: [a, b],
            target: c,
        },
    ];
    if kind == Kind::Superposing {
        pool.extend([Gate::H(a), Gate::RxPi2(a), Gate::RyPi2(a)]);
    }
    let gate = pool[gate_kind % pool.len()];
    let position = rng.gen_range(0..=circuit.gate_count());
    inputs::insert_gate(circuit, gate, position)
}

pub struct HuntJob {
    family: &'static str,
    qubits: u32,
    original: String,
    candidate: String,
    hunt_seed: u64,
    composition: u64,
}

pub fn generate(kind: Kind, seed: u64, index: u64) -> HuntJob {
    let mut rng = job_rng(seed, 0, index, 0);
    let (family, original) = match kind {
        Kind::Superposing => {
            let qubits = SUPERPOSING_WIDTHS[(index % SUPERPOSING_WIDTHS.len() as u64) as usize];
            (
                "random-superposing",
                inputs::random_circuit(qubits, 3 * qubits as usize, true, &mut rng),
            )
        }
        Kind::Reversible => {
            let name = REVERSIBLE[(index % REVERSIBLE.len() as u64) as usize];
            (name, reversible_circuit(name, &mut rng))
        }
    };
    let cycle_length = match kind {
        Kind::Superposing => SUPERPOSING_WIDTHS.len(),
        Kind::Reversible => REVERSIBLE.len(),
    } as u64;
    let gate_kind = (index / cycle_length + index % cycle_length) as usize;
    let candidate = inject(&original, kind, gate_kind, &mut rng);
    HuntJob {
        family,
        qubits: original.num_qubits(),
        composition: inputs::composition_primitives(&original)
            + inputs::composition_primitives(&candidate),
        original: inputs::qasm(&original),
        candidate: inputs::qasm(&candidate),
        hunt_seed: rng.gen(),
    }
}

pub fn run(
    tracer: &Tracer,
    job: &HuntJob,
    index: u64,
    plant_wrong: bool,
    counters: &mut Counters,
) -> JobRecord {
    let hunter = adapter::hunter(MAX_ITERATIONS);
    let interrupt = adapter::state_budget(MAX_STATES);
    let mut rng = StdRng::seed_from_u64(job.hunt_seed);
    let start = std::time::Instant::now();
    let clock = host::begin();
    let (original, candidate, result) = tracer.span("job", || {
        let original = adapter::parse(tracer, &job.original);
        let candidate = adapter::parse(tracer, &job.candidate);
        let result = adapter::hunt(tracer, &hunter, &original, &candidate, &mut rng, &interrupt);
        (original, candidate, result)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (cpu_ms, at_s) = host::end(clock);
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
    counters.hunts += 1;
    let report = match result {
        Ok(report) => report,
        Err(interrupted) => {
            counters.add_engine_run(&interrupted.partial_stats, 0);
            let label = adapter::stop_label(&interrupted.reason);
            let status = if label.starts_with("exhausted") {
                Status::Exhausted
            } else {
                Status::Failed
            };
            return record(status, fingerprint(&[label.as_bytes()]));
        }
    };
    counters.add_engine_run(
        &report.stats,
        u64::from(report.iterations) * job.composition,
    );
    counters.hunt_iterations += u64::from(report.iterations);
    let iterations = report.iterations.to_le_bytes();
    let Some(witness) = &report.witness else {
        if report.iterations > job.qubits {
            counters.wrong(format!(
                "job {index} ({}): no bug found over every basis input",
                job.family
            ));
        }
        return record(Status::Exhausted, fingerprint(&[b"not-found", &iterations]));
    };
    counters.bugs_found += 1;
    counters.witnesses += 1;
    if plant_wrong {
        counters.wrong(format!(
            "job {index} ({}): planted answer `no bug`",
            job.family
        ));
    }
    let witness_bytes = adapter::encode_witness(tracer, witness);
    counters.witness_bytes += witness_bytes.len() as u64;
    match adapter::confirm(tracer, &report, &original, &candidate) {
        Some(_) => counters.confirmed += 1,
        None => counters.wrong(format!(
            "job {index} ({}): witness not confirmed by the simulator",
            job.family
        )),
    }
    record(
        Status::Done,
        fingerprint(&[b"found", &iterations, &witness_bytes]),
    )
}
