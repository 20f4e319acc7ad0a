//! What every workload shares: seeded job streams, known answers that do
//! not come from the program, and the per-job record.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adapter::{oracle, StateMap};

/// A generator for job `index` of the stream of `seed`, independent of how
/// many jobs ran before it (so the untraced and traced passes, and runs of
/// different length, see the same job at the same index).
pub fn job_rng(seed: u64, lane: u64, index: u64, purpose: u64) -> StdRng {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for word in [lane, index, purpose] {
        x = splitmix(x ^ splitmix(word.wrapping_add(0x632b_e59b_d9b4_e019)));
    }
    StdRng::seed_from_u64(x)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// When a closed-loop lane stops: at the deadline, but not before it has
/// run `min_jobs` jobs (so a slow machine still yields the samples the
/// workload's tail percentile needs).
#[derive(Clone, Copy, Debug)]
pub struct RunLength {
    pub deadline: std::time::Instant,
    pub min_jobs: u64,
}

impl RunLength {
    /// Whether a lane that has finished `done` jobs runs another one.
    pub fn more(&self, done: u64) -> bool {
        done < self.min_jobs.max(1) || std::time::Instant::now() < self.deadline
    }
}

/// A set of quantum states whose membership the benchmark decides itself.
#[derive(Clone, Debug, PartialEq)]
pub enum KnownSet {
    /// Explicit states (closed forms or exact simulation).
    States(BTreeSet<StateMap>),
    /// Basis states that are 0 outside `free_mask`, optionally without one
    /// of them.
    Pattern {
        free_mask: u128,
        except: Option<u128>,
    },
}

impl KnownSet {
    pub fn contains(&self, state: &StateMap) -> bool {
        match self {
            KnownSet::States(states) => states.contains(state),
            KnownSet::Pattern { free_mask, except } => {
                let mut entries = state.iter();
                match (entries.next(), entries.next()) {
                    (Some((&basis, amplitude)), None) => {
                        *amplitude == oracle::amplitude_one()
                            && basis & !free_mask == 0
                            && Some(basis) != *except
                    }
                    _ => false,
                }
            }
        }
    }
}

/// The verdict an equality check `outputs = post` must give.
#[derive(Clone, Debug, PartialEq)]
pub struct KnownAnswer {
    pub outputs: KnownSet,
    pub post: KnownSet,
}

impl KnownAnswer {
    pub fn holds(&self) -> bool {
        self.outputs == self.post
    }

    /// Whether `witness` shows the violation on the side the program named.
    pub fn witness_ok(&self, witness: &StateMap, reachable_but_forbidden: bool) -> bool {
        if reachable_but_forbidden {
            self.outputs.contains(witness) && !self.post.contains(witness)
        } else {
            self.post.contains(witness) && !self.outputs.contains(witness)
        }
    }
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// A decided result (verdict, found bug).
    Done,
    /// Stopped by its state or iteration budget.
    Exhausted,
    /// Rejected or answered with an error.
    Failed,
}

/// One job as the run saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub lane: u64,
    pub index: u64,
    pub family: &'static str,
    /// Wall time of the job.
    pub ms: f64,
    /// Process CPU time attributed to the job (see `host`), unscaled.
    pub cpu_ms: f64,
    /// The middle of the job's wall interval, in seconds since the first
    /// timing; places the job among the reference kernel runs.
    pub at_s: f64,
    pub status: Status,
    /// Daemon jobs: answered from the verdict cache.
    pub cached: bool,
    /// A summary of the job's result (verdict, digests, iterations) that
    /// the traced pass must reproduce.
    pub fingerprint: u64,
}

/// Counters summed over the jobs of a pass.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub gates: u64,
    pub composition_gates: u64,
    pub reductions: u64,
    pub peak_states: u64,
    pub peak_transitions: u64,
    pub engine_runs: u64,
    pub hunts: u64,
    pub hunt_iterations: u64,
    pub bugs_found: u64,
    pub witnesses: u64,
    pub witness_bytes: u64,
    pub confirmed: u64,
    pub certificates: u64,
    pub certificate_bytes: u64,
    pub wrong_verdicts: u64,
    /// Daemon repeats whose first answer was not served from the cache.
    pub repeats_recomputed: u64,
    /// The first few wrong answers, for the report.
    pub wrong_details: Vec<String>,
}

impl Counters {
    pub fn add_engine_run(&mut self, stats: &crate::adapter::ApplyStats, composition: u64) {
        self.gates += stats.gates_applied as u64;
        self.composition_gates += composition;
        self.reductions += stats.reductions as u64;
        self.peak_states += stats.peak_states as u64;
        self.peak_transitions += stats.peak_transitions as u64;
        self.engine_runs += 1;
    }

    pub fn wrong(&mut self, detail: String) {
        self.wrong_verdicts += 1;
        if self.wrong_details.len() < 8 {
            self.wrong_details.push(detail);
        }
    }

    pub fn merge(&mut self, other: &Counters) {
        self.gates += other.gates;
        self.composition_gates += other.composition_gates;
        self.reductions += other.reductions;
        self.peak_states += other.peak_states;
        self.peak_transitions += other.peak_transitions;
        self.engine_runs += other.engine_runs;
        self.hunts += other.hunts;
        self.hunt_iterations += other.hunt_iterations;
        self.bugs_found += other.bugs_found;
        self.witnesses += other.witnesses;
        self.witness_bytes += other.witness_bytes;
        self.confirmed += other.confirmed;
        self.certificates += other.certificates;
        self.certificate_bytes += other.certificate_bytes;
        self.wrong_verdicts += other.wrong_verdicts;
        self.repeats_recomputed += other.repeats_recomputed;
        for detail in &other.wrong_details {
            if self.wrong_details.len() < 8 {
                self.wrong_details.push(detail.clone());
            }
        }
    }
}

/// FNV-1a over a job's result summary.
pub fn fingerprint(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in part.iter().chain(&[0xff]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
