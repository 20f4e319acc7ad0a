//! Every call the benchmark makes into the program, in one place.
//!
//! The workload modules use only this module's functions and re-exported
//! types.  Each timed layer goes through exactly these public functions:
//!
//! | span / layer                | public functions                                              |
//! |-----------------------------|---------------------------------------------------------------|
//! | `circuit.qasm.parse`        | `autoq_circuit::qasm::parse_qasm`                             |
//! | `core.engine.apply`         | `Engine::apply_circuit_with_stats`, `Engine::apply_circuit_interruptible` |
//! | `treeaut.inclusion`         | `autoq_treeaut::inclusion_with_certificate`, `autoq_treeaut::equivalence` |
//! | `treeaut.certificate.build` | `autoq_treeaut::format::certificates_to_binary`, `autoq_circuit::digest::sha256` |
//! | `certify.check`             | `autoq_certify::check_inclusion`                              |
//! | `core.hunt`                 | `BugHunter::hunt_interruptible` (traced: `StateSet::basis_pattern` + the two layers above) |
//! | `simulator.confirm`         | `HuntReport::confirm_with_simulator`                          |
//! | `treeaut.format.encode`     | `autoq_treeaut::format::tree_to_binary`                       |
//! | `daemon.client.admit/run`   | `Client::verify` (traced: `Client::submit` + `Client::recv`)  |
//!
//! Untraced, a job calls the bundled entry points (`compare_with_post_certified`,
//! `hunt_interruptible`, `Client::verify`).  Traced, it calls the public
//! functions those entry points are made of, in the same order, so each
//! layer gets its own span; the run compares verdicts, certificate
//! digests, iteration counts and witness bytes with the untraced pass.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use autoq_circuit::digest::sha256;
use autoq_core::{
    compare_with_post_certified, CertifiedComparison, CertifyPolicy, SoundnessViolation, SpecMode,
};
use autoq_daemon::{DaemonConfig, FileStore, RealEngine, Response};
use autoq_treeaut::{basis, CertifiedInclusionResult, EquivalenceResult};
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Tracer;

pub use autoq_amplitude::Algebraic;
pub use autoq_circuit::{Circuit, Gate};
pub use autoq_core::{
    ApplyStats, BugHunter, HuntReport, Interrupted, StateSet, StopReason, VerificationOutcome,
};
pub use autoq_daemon::{
    Client, DaemonHandle, DaemonStats, JobOutcome, JobRequest, Spec, SpecMode as DaemonSpecMode,
    Verdict,
};
pub use autoq_treeaut::Tree;

/// A quantum state as a sparse amplitude map (basis index → amplitude).
pub type StateMap = std::collections::BTreeMap<u128, Algebraic>;

// ---------------------------------------------------------------------------
// Inputs: generators, mutation, QASM text and specification sets.  These run
// while jobs are generated, outside the timed region.
// ---------------------------------------------------------------------------

pub mod inputs {
    use super::*;
    use autoq_circuit::generators::{self, RandomCircuitConfig};

    pub fn bernstein_vazirani(hidden: &[bool]) -> Circuit {
        generators::bernstein_vazirani(hidden)
    }

    pub fn grover_single(m: u32, marked: u64) -> Circuit {
        generators::grover_single(m, marked, None).0
    }

    /// The circuit and its oracle-register qubits.
    pub fn grover_all(m: u32) -> (Circuit, Vec<u32>) {
        let (circuit, layout) = generators::grover_all(m, None);
        (circuit, layout.oracle)
    }

    pub fn mc_toffoli(controls: u32) -> Circuit {
        generators::mc_toffoli(controls)
    }

    pub fn random_circuit(
        qubits: u32,
        gates: usize,
        superposing: bool,
        rng: &mut StdRng,
    ) -> Circuit {
        let config = RandomCircuitConfig {
            num_qubits: qubits,
            num_gates: gates,
            include_superposing_gates: superposing,
        };
        generators::random_circuit(&config, rng)
    }

    pub fn ripple_carry_adder(bits: u32) -> Circuit {
        generators::ripple_carry_adder(bits)
    }

    pub fn gf2_multiplier(bits: u32) -> Circuit {
        generators::gf2_multiplier(bits)
    }

    pub fn increment(bits: u32) -> Circuit {
        generators::increment_circuit(bits)
    }

    pub fn carry_lookahead(qubits: u32, layers: u32) -> Circuit {
        generators::carry_lookahead_like(qubits, layers)
    }

    /// Inserts `gate` before the gate at `position`.
    pub fn insert_gate(circuit: &Circuit, gate: Gate, position: usize) -> Circuit {
        autoq_circuit::mutation::insert_gate(circuit, gate, position)
    }

    pub fn qasm(circuit: &Circuit) -> String {
        autoq_circuit::qasm::write_qasm(circuit)
    }

    /// Primitives (after decomposition) that the permutation encoding does
    /// not support, i.e. that the Hybrid engine runs through the
    /// composition ladder.
    pub fn composition_primitives(circuit: &Circuit) -> u64 {
        circuit
            .gates()
            .iter()
            .flat_map(Gate::decompose)
            .filter(|primitive| !autoq_core::permutation::supports(primitive))
            .count() as u64
    }

    pub fn basis_state(qubits: u32, basis: u128) -> StateSet {
        StateSet::basis_state(qubits, basis)
    }

    pub fn basis_pattern(qubits: u32, fixed: u128, free: &[u32]) -> StateSet {
        StateSet::basis_pattern(qubits, fixed, free)
    }

    pub fn union(a: &StateSet, b: &StateSet) -> StateSet {
        a.union(b)
    }

    pub fn from_maps(qubits: u32, states: &[StateMap]) -> StateSet {
        StateSet::from_state_maps(qubits, states)
    }

    /// The set as a daemon `Spec::Automaton` (binary codec bytes).
    pub fn automaton_spec(set: &StateSet) -> Spec {
        Spec::Automaton {
            num_qubits: set.num_qubits(),
            bytes: autoq_treeaut::format::to_binary(set.automaton()),
        }
    }

    /// The MSB-first bit of `qubit` in an `n`-qubit basis index.
    pub fn qubit_bit(qubits: u32, qubit: u32) -> u128 {
        basis::qubit_bit(qubits, qubit)
    }
}

// ---------------------------------------------------------------------------
// Oracle: exact simulation for known answers (never the engine's presets).
// ---------------------------------------------------------------------------

pub mod oracle {
    use super::*;

    /// The exact output state of `circuit` on a basis input.
    pub fn simulate(circuit: &Circuit, basis: u128) -> StateMap {
        autoq_simulator::SparseState::run(circuit, basis).into_amplitude_map()
    }

    pub fn amplitude_one() -> Algebraic {
        Algebraic::one()
    }

    /// The witness as an amplitude map, through its support.
    pub fn witness_map(tree: &Tree) -> StateMap {
        tree.to_amplitude_map()
    }

    pub fn decode_witness(bytes: &[u8]) -> Option<Tree> {
        autoq_treeaut::format::tree_from_binary(bytes).ok()
    }

    /// Decodes a certificate bundle and returns its certificate count.
    pub fn certificate_count(bytes: &[u8]) -> Option<usize> {
        autoq_treeaut::format::certificates_from_binary(bytes)
            .ok()
            .map(|certs| certs.len())
    }

    pub fn digest(bytes: &[u8]) -> [u8; 32] {
        sha256(bytes).0
    }
}

// ---------------------------------------------------------------------------
// Timed layers.
// ---------------------------------------------------------------------------

pub fn parse(tracer: &Tracer, qasm: &str) -> Circuit {
    tracer.span("circuit.qasm.parse", || {
        autoq_circuit::qasm::parse_qasm(qasm).expect("generated QASM parses")
    })
}

/// `Engine::hybrid()` with no knob set.
pub fn engine() -> autoq_core::Engine {
    autoq_core::Engine::hybrid()
}

pub fn apply(tracer: &Tracer, pre: &StateSet, circuit: &Circuit) -> (StateSet, ApplyStats) {
    tracer.span("core.engine.apply", || {
        engine().apply_circuit_with_stats(pre, circuit)
    })
}

fn apply_governed(
    tracer: &Tracer,
    pre: &StateSet,
    circuit: &Circuit,
    interrupt: &autoq_core::Interrupt,
) -> Result<(StateSet, ApplyStats), Interrupted> {
    tracer.span("core.engine.apply", || {
        engine().apply_circuit_interruptible(pre, circuit, interrupt)
    })
}

/// `compare_with_post_certified(output, post, Equality, OnHolds)`.
pub fn compare_certified(
    tracer: &Tracer,
    output: &StateSet,
    post: &StateSet,
) -> Result<CertifiedComparison, SoundnessViolation> {
    if !tracer.enabled() {
        return compare_with_post_certified(
            output,
            post,
            SpecMode::Equality,
            CertifyPolicy::OnHolds,
        );
    }
    // The body of `compare_with_post_certified` for Equality + OnHolds.
    let certified_inclusion = |a: &StateSet, b: &StateSet| {
        tracer
            .span("treeaut.inclusion", || {
                autoq_treeaut::inclusion_with_certificate(a.automaton(), b.automaton())
            })
            .map_err(|error| SoundnessViolation {
                digest: None,
                message: error.to_string(),
            })
    };
    let mut certs = Vec::new();
    let outcome = match certified_inclusion(output, post)? {
        CertifiedInclusionResult::Counterexample(witness) => VerificationOutcome::Violated {
            witness,
            reachable_but_forbidden: true,
        },
        CertifiedInclusionResult::Included(forward) => {
            certs.push(forward);
            match certified_inclusion(post, output)? {
                CertifiedInclusionResult::Counterexample(witness) => {
                    VerificationOutcome::Violated {
                        witness,
                        reachable_but_forbidden: false,
                    }
                }
                CertifiedInclusionResult::Included(backward) => {
                    certs.push(backward);
                    VerificationOutcome::Holds
                }
            }
        }
    };
    if certs.is_empty() || !outcome.holds() {
        return Ok((outcome, None));
    }
    let (bytes, digest) = tracer.span("treeaut.certificate.build", || {
        let bytes = autoq_treeaut::format::certificates_to_binary(&certs);
        let digest = sha256(&bytes);
        (bytes, digest)
    });
    tracer.span("certify.check", || {
        for (index, cert) in certs.iter().enumerate() {
            let (a, b) = if index == 0 {
                (output, post)
            } else {
                (post, output)
            };
            autoq_certify::check_inclusion(a.automaton(), b.automaton(), cert).map_err(
                |error| SoundnessViolation {
                    digest: Some(digest),
                    message: error.to_string(),
                },
            )?;
        }
        Ok(())
    })?;
    let record = autoq_core::CertifiedVerdict {
        holds: true,
        digest,
        checker_passed: true,
    };
    Ok((outcome, Some((record, bytes))))
}

/// The governed hunter: `BugHunter::new(Engine::hybrid())` with an
/// iteration cap, and a peak-state budget on the interrupt.
pub fn hunter(max_iterations: u32) -> BugHunter {
    BugHunter::new(engine()).with_max_iterations(max_iterations)
}

pub fn state_budget(max_states: u64) -> autoq_core::Interrupt {
    autoq_core::Interrupt::new().with_max_states(max_states)
}

/// `hunter.hunt_interruptible(original, candidate, rng, interrupt)`.
pub fn hunt(
    tracer: &Tracer,
    hunter: &BugHunter,
    original: &Circuit,
    candidate: &Circuit,
    rng: &mut StdRng,
    interrupt: &autoq_core::Interrupt,
) -> Result<HuntReport, Interrupted> {
    if !tracer.enabled() {
        return hunter.hunt_interruptible(original, candidate, rng, interrupt);
    }
    // The body of `BugHunter::hunt_interruptible`: the same draws from
    // `rng`, the same input sets, and `check_circuit_equivalence_interruptible`
    // split into its two applications and the equivalence check.
    tracer.span("core.hunt", || {
        let n = original.num_qubits();
        let base: u128 = rng.gen::<u128>() & basis::index_mask(n);
        let mut order: Vec<u32> = (0..n).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut iterations = 0;
        let mut stats = ApplyStats::default();
        let mut free_mask: u128 = 0;
        for free_count in 0..=n.min(hunter.max_iterations.saturating_sub(1)) {
            iterations += 1;
            let free = &order[..free_count as usize];
            if free_count > 0 {
                free_mask |= basis::qubit_bit(n, order[free_count as usize - 1]);
            }
            let inputs = StateSet::basis_pattern(n, base & !free_mask, free);
            let (out1, stats1) = apply_governed(tracer, &inputs, original, interrupt)
                .map_err(|interrupted| interrupted.merge_stats(&stats))?;
            let (out2, stats2) = apply_governed(tracer, &inputs, candidate, interrupt)
                .map_err(|interrupted| interrupted.merge_stats(&stats1).merge_stats(&stats))?;
            let result = tracer.span("treeaut.inclusion", || {
                autoq_treeaut::equivalence(out1.automaton(), out2.automaton())
            });
            stats = stats.merge(&stats1.merge(&stats2));
            let witness = match result {
                EquivalenceResult::Equivalent => None,
                EquivalenceResult::OnlyInLeft(tree) | EquivalenceResult::OnlyInRight(tree) => {
                    Some(tree)
                }
            };
            if let Some(witness) = witness {
                return Ok(HuntReport {
                    bug_found: true,
                    iterations,
                    witness: Some(witness),
                    final_input_size: 1u128 << free_count.min(127),
                    stats,
                });
            }
            if iterations >= hunter.max_iterations {
                break;
            }
        }
        Ok(HuntReport {
            bug_found: false,
            iterations,
            witness: None,
            final_input_size: 1u128 << (iterations - 1).min(127),
            stats,
        })
    })
}

/// Simulator confirmation of a hunt witness: the distinguishing basis input.
pub fn confirm(
    tracer: &Tracer,
    report: &HuntReport,
    original: &Circuit,
    candidate: &Circuit,
) -> Option<u128> {
    tracer.span("simulator.confirm", || {
        report.confirm_with_simulator(original, candidate)
    })
}

/// The witness in the binary tree codec.
pub fn encode_witness(tracer: &Tracer, witness: &Tree) -> Vec<u8> {
    tracer.span("treeaut.format.encode", || {
        autoq_treeaut::format::tree_to_binary(witness)
    })
}

// ---------------------------------------------------------------------------
// Daemon.
// ---------------------------------------------------------------------------

/// `serve` on an ephemeral loopback port with the default configuration
/// (2 workers), the real engine and a `FileStore` at `cache_file`.
pub fn start_daemon(cache_file: &Path) -> DaemonHandle {
    let store: Arc<dyn autoq_daemon::VerdictStore> = Arc::new(FileStore::new(cache_file));
    autoq_daemon::serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        Some(store),
    )
    .expect("daemon binds a loopback port")
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("daemon accepts connections")
}

pub fn daemon_stats(client: &mut Client) -> DaemonStats {
    client.stats().expect("daemon answers stats")
}

pub fn stop_daemon(handle: DaemonHandle) {
    handle.shutdown();
    handle.join();
}

/// One closed-loop round trip.  Traced, the job is sent with
/// `Client::submit` and the frames read with `Client::recv`, giving the
/// admit span (submit → `Accepted`, or → the cached `Verdict`) and the run
/// span (`Accepted` → `Verdict`).
pub fn daemon_verify(tracer: &Tracer, client: &mut Client, job: JobRequest) -> JobOutcome {
    if !tracer.enabled() {
        return client.verify(job).expect("daemon round trip");
    }
    let start = Instant::now();
    let id = client.submit(job).expect("daemon accepts the frame");
    let mut accepted: Option<Instant> = None;
    let outcome = loop {
        let response = client.recv().expect("daemon answers");
        let done = match response {
            Response::Accepted { client_job } if client_job == id => {
                accepted = Some(Instant::now());
                None
            }
            Response::Progress { client_job, .. } if client_job == id => None,
            Response::Rejected {
                client_job,
                retry_after_ms,
            } if client_job == id => Some(JobOutcome::Rejected { retry_after_ms }),
            Response::Verdict {
                client_job,
                cached,
                verdict,
            } if client_job == id => Some(JobOutcome::Verdict { verdict, cached }),
            Response::JobError {
                client_job,
                message,
            } if client_job == id => Some(JobOutcome::Failed { message }),
            Response::Exhausted {
                client_job,
                resource,
                limit,
                observed,
            } if client_job == id => Some(JobOutcome::Exhausted {
                resource,
                limit,
                observed,
            }),
            other => panic!("unexpected daemon response {other:?}"),
        };
        if let Some(outcome) = done {
            break outcome;
        }
    };
    let end = Instant::now();
    match accepted {
        Some(at) => {
            tracer.record("daemon.client.admit", start, at);
            tracer.record("daemon.client.run", at, end);
        }
        None => tracer.record("daemon.client.admit", start, end),
    }
    outcome
}

// ---------------------------------------------------------------------------
// Process-wide gauges and the machine block.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub live_nodes: u64,
    pub intern_distinct: u64,
    pub intern_lookups: u64,
    pub intern_hits: u64,
    pub heap_spills: u64,
}

pub fn gauges() -> Gauges {
    let intern = autoq_amplitude::intern::stats();
    Gauges {
        live_nodes: autoq_treeaut::arena::live_node_count() as u64,
        intern_distinct: intern.distinct,
        intern_lookups: intern.intern_hits
            + intern.intern_misses
            + intern.combine_hits
            + intern.combine_misses,
        intern_hits: intern.intern_hits + intern.combine_hits,
        heap_spills: autoq_bigint::heap_spill_count(),
    }
}

pub fn default_eval_threads() -> usize {
    autoq_core::default_eval_threads()
}

/// `StopReason` as a short label.
pub fn stop_label(reason: &StopReason) -> String {
    match reason {
        StopReason::Cancelled => "cancelled".to_string(),
        StopReason::Exhausted { resource, .. } => format!("exhausted-{resource}"),
    }
}
