//! `daemon-mixed`: `serve` in-process on loopback with a `FileStore` in a
//! temporary directory and the default 2 workers; two client connections run
//! `Client::verify` in a closed loop.
//!
//! Each client has its own seeded stream.  Every third submission repeats
//! one of the client's earlier fresh jobs, so it must be answered from the
//! verdict cache.  The rest are fresh small verification jobs (engine run,
//! cache insert, journal append), a quarter of them with a post-condition
//! that is wrong by construction; some ask for witnesses, some for
//! certificates.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::Rng;

use crate::adapter::{
    self, inputs, oracle, Client, DaemonHandle, DaemonSpecMode, JobOutcome, JobRequest, Spec,
    Verdict,
};
use crate::host;
use crate::jobs::{
    fingerprint, job_rng, Counters, JobRecord, KnownAnswer, KnownSet, RunLength, Status,
};
use crate::trace::Tracer;

pub const CLIENTS: u64 = 2;
/// Jobs per client generated during set-up (the rest are generated on the
/// fly, outside the timed round trips).
const POOL: u64 = 96;
/// Warm-up jobs per client (from a separate stream) before timing starts.
const WARM_UP: u64 = 4;
const CACHE_FILE: &str = "verdicts.aqvc";

pub struct DaemonJob {
    request: JobRequest,
    /// Fresh jobs: the verdict the benchmark computed itself.
    answer: Option<KnownAnswer>,
    /// Repeats: the index of the earlier fresh job.
    repeat_of: Option<u64>,
}

fn is_repeat(index: u64) -> bool {
    index % 3 == 2
}

pub fn generate(seed: u64, lane: u64, index: u64, purpose: u64) -> DaemonJob {
    let mut rng = job_rng(seed, lane + 1, index, purpose);
    if is_repeat(index) {
        // The fresh indices before this one are those with index % 3 != 2.
        let fresh_before = index - index / 3;
        let ordinal = rng.gen_range(0..fresh_before);
        let earlier = ordinal / 2 * 3 + ordinal % 2;
        let mut job = generate(seed, lane, earlier, purpose);
        job.answer = None;
        job.repeat_of = Some(earlier);
        return job;
    }
    let qubits = 4 + (index / 3 % 3) as u32;
    let circuit = inputs::random_circuit(qubits, 3 * qubits as usize, true, &mut rng);
    let free = rng.gen_range(0..qubits);
    let free_bit = inputs::qubit_bit(qubits, free);
    let fixed = rng.gen::<u128>() & (inputs::qubit_bit(qubits, 0) * 2 - 1) & !free_bit;
    let outputs: Vec<_> = [fixed, fixed | free_bit]
        .iter()
        .map(|&basis| oracle::simulate(&circuit, basis))
        .collect();
    let mut post = outputs.clone();
    if index % 4 == 1 {
        let flip = inputs::qubit_bit(qubits, rng.gen_range(0..qubits));
        post[0] = post[0]
            .iter()
            .map(|(&basis, amplitude)| (basis ^ flip, amplitude.clone()))
            .collect();
    }
    let post_spec = inputs::automaton_spec(&inputs::from_maps(qubits, &post));
    DaemonJob {
        request: JobRequest {
            qasm: inputs::qasm(&circuit),
            pre: Spec::Pattern {
                num_qubits: qubits,
                fixed,
                free: vec![free],
            },
            post: post_spec,
            mode: DaemonSpecMode::Equality,
            want_witness: index % 2 == 1,
            limits: Default::default(),
            want_certificate: index.is_multiple_of(3),
        },
        answer: Some(KnownAnswer {
            outputs: KnownSet::States(outputs.into_iter().collect()),
            post: KnownSet::States(post.into_iter().collect()),
        }),
        repeat_of: None,
    }
}

/// A started daemon with its connected clients and their first jobs.
pub struct Daemon {
    dir: PathBuf,
    handle: DaemonHandle,
    clients: Vec<Client>,
    pools: Vec<Vec<DaemonJob>>,
}

pub fn start(seed: u64, dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("temporary directory for the verdict store");
    let handle = adapter::start_daemon(&dir.join(CACHE_FILE));
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| adapter::connect(handle.addr()))
        .collect();
    let warm = Tracer::new(false, Instant::now());
    for (lane, client) in clients.iter_mut().enumerate() {
        for index in 0..WARM_UP {
            let job = generate(seed, lane as u64, index * 3, 1);
            adapter::daemon_verify(&warm, client, job.request);
        }
    }
    let pools = (0..CLIENTS)
        .map(|lane| {
            (0..POOL)
                .map(|index| generate(seed, lane, index, 0))
                .collect()
        })
        .collect();
    Daemon {
        dir: dir.to_path_buf(),
        handle,
        clients,
        pools,
    }
}

/// Stops the daemon and removes its directory.
pub fn discard(daemon: Daemon) {
    drop(daemon.clients);
    adapter::stop_daemon(daemon.handle);
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

/// What one client lane produced.
pub struct LaneResult {
    pub records: Vec<JobRecord>,
    pub counters: Counters,
    pub tracer: Tracer,
}

/// Store and server figures of the timed phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerFigures {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    pub exhausted: u64,
    pub certified: u64,
    pub journal_bytes: u64,
    pub snapshot_bytes: u64,
}

pub fn run(
    daemon: Daemon,
    seed: u64,
    length: RunLength,
    traced: bool,
    plant_wrong: bool,
    origin: Instant,
) -> (Vec<LaneResult>, ServerFigures) {
    let Daemon {
        dir,
        handle,
        mut clients,
        mut pools,
    } = daemon;
    let before = adapter::daemon_stats(&mut clients[0]);
    let lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(pools.iter_mut())
            .enumerate()
            .map(|(lane, (client, pool))| {
                let pool = std::mem::take(pool);
                scope.spawn(move || {
                    run_lane(
                        client,
                        pool,
                        seed,
                        lane as u64,
                        length,
                        traced,
                        plant_wrong,
                        origin,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client lane panicked"))
            .collect()
    });
    let after = adapter::daemon_stats(&mut clients[0]);
    let journal_bytes = file_len(&dir.join(CACHE_FILE).with_extension("journal"));
    drop(clients);
    adapter::stop_daemon(handle);
    let figures = ServerFigures {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        rejected: after.rejected - before.rejected,
        exhausted: after.jobs_exhausted - before.jobs_exhausted,
        certified: after.verdicts_certified - before.verdicts_certified,
        journal_bytes,
        snapshot_bytes: file_len(&dir.join(CACHE_FILE)),
    };
    let _ = std::fs::remove_dir_all(&dir);
    (lanes, figures)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn run_lane(
    client: &mut Client,
    pool: Vec<DaemonJob>,
    seed: u64,
    lane: u64,
    length: RunLength,
    traced: bool,
    plant_wrong: bool,
    origin: Instant,
) -> LaneResult {
    let tracer = Tracer::new(traced, origin);
    let mut counters = Counters::default();
    let mut records = Vec::new();
    let mut verdicts: Vec<Option<Verdict>> = Vec::new();
    let mut pool = pool.into_iter();
    let mut index = 0u64;
    while length.more(index) {
        let job = pool
            .next()
            .unwrap_or_else(|| generate(seed, lane, index, 0));
        tracer.set_job(lane << 32 | index);
        let start = Instant::now();
        let clock = host::begin();
        let outcome = tracer.span("job", || {
            adapter::daemon_verify(&tracer, client, job.request.clone())
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (cpu_ms, at_s) = host::end(clock);
        host::calibrate_if_due();
        let (record, verdict) = check(
            &tracer,
            &job,
            outcome,
            &verdicts,
            plant_wrong,
            &mut counters,
        );
        records.push(JobRecord {
            lane,
            index,
            ms,
            cpu_ms,
            at_s,
            ..record
        });
        verdicts.push(verdict);
        index += 1;
    }
    LaneResult {
        records,
        counters,
        tracer,
    }
}

fn check(
    tracer: &Tracer,
    job: &DaemonJob,
    outcome: JobOutcome,
    earlier: &[Option<Verdict>],
    plant_wrong: bool,
    counters: &mut Counters,
) -> (JobRecord, Option<Verdict>) {
    let family = if job.repeat_of.is_some() {
        "repeat"
    } else {
        "fresh"
    };
    let record = |status, cached, fingerprint| JobRecord {
        lane: 0,
        index: 0,
        family,
        ms: 0.0,
        cpu_ms: 0.0,
        at_s: 0.0,
        status,
        cached,
        fingerprint,
    };
    let (verdict, cached) = match outcome {
        JobOutcome::Verdict { verdict, cached } => (verdict, cached),
        JobOutcome::Exhausted { .. } => {
            return (
                record(Status::Exhausted, false, fingerprint(&[b"exhausted"])),
                None,
            )
        }
        JobOutcome::Rejected { .. } | JobOutcome::Failed { .. } => {
            return (
                record(Status::Failed, false, fingerprint(&[b"failed"])),
                None,
            )
        }
    };
    let request = &job.request;
    if let Some(answer) = &job.answer {
        let expected = answer.holds() != plant_wrong;
        if verdict.holds != expected {
            counters.wrong(format!(
                "{family} job: verdict holds={} expected {expected}",
                verdict.holds
            ));
        }
        match (&verdict.witness, !verdict.holds && request.want_witness) {
            (Some(bytes), true) => {
                counters.witnesses += 1;
                counters.witness_bytes += bytes.len() as u64;
                let decoded = oracle::decode_witness(bytes);
                let ok = decoded.as_ref().is_some_and(|tree| {
                    adapter::encode_witness(tracer, tree) == *bytes
                        && answer
                            .witness_ok(&oracle::witness_map(tree), verdict.reachable_but_forbidden)
                });
                if !ok {
                    counters.wrong(format!(
                        "{family} job: witness outside the known difference"
                    ));
                }
            }
            (None, false) => {}
            _ => counters.wrong(format!(
                "{family} job: witness presence does not match the request"
            )),
        }
        match (
            &verdict.certificate,
            verdict.holds && request.want_certificate,
        ) {
            (Some(bytes), true) => {
                counters.certificates += 1;
                counters.certificate_bytes += bytes.len() as u64;
                if oracle::certificate_count(bytes) != Some(2) {
                    counters.wrong(format!("{family} job: certificate bundle does not decode"));
                }
            }
            (None, false) => {}
            _ => counters.wrong(format!(
                "{family} job: certificate presence does not match the request"
            )),
        }
    }
    if let Some(earlier_index) = job.repeat_of {
        match earlier.get(earlier_index as usize).cloned().flatten() {
            Some(first) if first != verdict => counters.wrong(format!(
                "{family} job: repeat of job {earlier_index} got a different verdict"
            )),
            Some(_) if !cached => counters.repeats_recomputed += 1,
            _ => {}
        }
    }
    let summary = [
        u8::from(cached),
        u8::from(verdict.holds),
        u8::from(verdict.reachable_but_forbidden),
    ];
    let certificate_digest = verdict
        .certificate
        .as_deref()
        .map(|bytes| oracle::digest(bytes).to_vec())
        .unwrap_or_default();
    let fp = fingerprint(&[
        &summary,
        verdict.witness.as_deref().unwrap_or_default(),
        &certificate_digest,
    ]);
    (record(Status::Done, cached, fp), Some(verdict))
}
