//! `shard_read` and `shard_write`: the plaintext serving runtime —
//! `ShardedSearch` on 4 peers, every shard on 2 replicas, segmented
//! (WAL + memtable + on-disk segments) posting stores with the default
//! `SegmentPolicy`. Two closed-loop clients, each from its own seeded
//! sequence, replay shaped Zipf logs through
//! `query_shaped(…, Forced::Auto)`.
//!
//! * `shard_read` only reads in its timed phase, so the result cache
//!   works as it does for a read-mostly deployment. Its write latencies
//!   come from write probes: one client alone writes back-to-back to
//!   the serving deployment after the timed phase, and to each
//!   deployment built afterwards to time set-up again.
//! * `shard_write` runs with `sync_wal: true` (an acknowledged write is
//!   on disk); about one operation in five is a write (insert a
//!   held-back document, or delete an earlier one).

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use zerber::runtime::{local_planned, QueryError, ShardedQueryOutcome, ShardedSearch, TermStats};
use zerber::{PostingBackend, SegmentPolicy, ZerberConfig};
use zerber_index::{Document, InvertedIndex, PostingStore, RankedDoc, TopKScratch};
use zerber_obs::MetricsSnapshot;
use zerber_query::{Forced, Query, QueryShape};

use crate::inputs::{self, Corpus, Scale};
use crate::measure::{
    counter_delta, histogram_delta, median, ms, ns_to_ms, quantile, ratio, Latencies, Metrics,
    Tracer,
};
use crate::{Outcome, RunOptions};

/// Closed-loop clients (the machine has two cores).
const CLIENTS: u32 = 2;

/// Share of `shard_write` operations that are writes.
const WRITE_SHARE: f64 = 0.2;

/// Cache hits the stale-hit audit checks across a write.
const STALE_AUDITS: usize = 3;

/// Length of the alternating untraced and traced slices of a traced
/// run.
const TRACE_SLICE: Duration = Duration::from_millis(500);

/// Untimed writes before each write probe: the first writes wait for
/// any replica still building its store.
const PROBE_UNTIMED_WRITES: usize = 20;

/// Readiness queries tolerated during one set-up before it is declared
/// failed.
const MAX_PROBE_FAILURES: u64 = 5;

/// Which of the two serving workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reads only in the timed phase; write probes give the write
    /// latencies.
    Read,
    /// One write in five, durable acknowledgements.
    Write,
}

/// The deployment's configuration: defaults except for the 4-peer,
/// 2-replica layout, the segmented backend and (`shard_write`) a synced
/// WAL.
fn config(dir: &Path, mode: Mode) -> ZerberConfig {
    ZerberConfig::default()
        .with_peers(4)
        .with_replication(2)
        .with_postings(PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: SegmentPolicy {
                sync_wal: mode == Mode::Write,
                ..SegmentPolicy::default()
            },
        })
}

/// The configuration of the single-node reference: the default one
/// with the block-compressed in-memory backend.
fn reference_config() -> ZerberConfig {
    ZerberConfig::default().with_postings(PostingBackend::Compressed)
}

/// The single-node reference over a document set: exactly what
/// [`local_planned`] builds for [`reference_config`] — an inverted
/// index frozen into a posting store, and global statistics — kept
/// across queries.
struct Oracle {
    index: InvertedIndex,
    stats: TermStats,
    store: Option<Box<dyn PostingStore>>,
}

impl Oracle {
    fn new(docs: &[Document]) -> Self {
        Self {
            index: InvertedIndex::from_documents(docs),
            stats: TermStats::from_documents(docs),
            store: None,
        }
    }

    fn answer(&mut self, query: &Query) -> Vec<RankedDoc> {
        let index = &self.index;
        let store = self
            .store
            .get_or_insert_with(|| reference_config().posting_store(index));
        let normalized = query.clone().normalized();
        let slots = self.stats.weights(normalized.terms());
        let mut scratch = TopKScratch::new();
        zerber_query::execute(
            store.as_ref(),
            normalized.shape(),
            &slots,
            normalized.k(),
            Forced::Auto,
            &mut scratch,
        )
        .ranked
    }

    fn remove(&mut self, doc: &Document) {
        self.index.remove(doc.id);
        self.stats
            .remove_document(doc.terms.iter().map(|&(t, _)| t));
        self.store = None;
    }

    /// A document's rarest term and that term's document frequency
    /// among the live documents.
    fn rarest_term(&self, doc: &Document) -> (usize, zerber_index::TermId) {
        doc.terms
            .iter()
            .map(|&(t, _)| (self.index.document_frequency(t), t))
            .min()
            .expect("documents have terms")
    }
}

/// Bit-identity of two rankings (documents and score bits).
fn identical(a: &[RankedDoc], b: &[RankedDoc]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

fn was_cache_hit(outcome: &ShardedQueryOutcome) -> bool {
    outcome
        .trace
        .root
        .children
        .iter()
        .any(|c| c.name == "cache")
}

/// One client's share of the documents and its own input streams.
struct Client {
    id: u32,
    rng: StdRng,
    /// Share of the timed phase's operations that are writes.
    write_share: f64,
    log: Vec<Query>,
    cursor: usize,
    /// Id of the client's latest operation, unique across its phases.
    op: u64,
    /// Held-back documents this client inserts, in order.
    to_insert: Vec<usize>,
    /// Live documents this client may delete.
    deletable: Vec<usize>,
    inserted: Vec<usize>,
    deleted: Vec<usize>,
}

impl Client {
    /// A copy that only writes: the same documents and random stream,
    /// no query log.
    fn writer(&self) -> Client {
        Client {
            id: self.id,
            rng: self.rng.clone(),
            write_share: self.write_share,
            log: Vec::new(),
            cursor: 0,
            op: self.op,
            to_insert: self.to_insert.clone(),
            deletable: self.deletable.clone(),
            inserted: Vec::new(),
            deleted: Vec::new(),
        }
    }

    fn next_query(&mut self) -> Query {
        let query = self.log[self.cursor % self.log.len()].clone();
        self.cursor += 1;
        query
    }

    /// Inserts (share [`inputs::INSERT_SHARE`]) or deletes one
    /// document; returns the latency of an acknowledged write.
    fn write(
        &mut self,
        search: &ShardedSearch,
        all: &[Document],
        mut tracer: Option<&mut Tracer>,
        op: u64,
        problems: &mut Vec<String>,
    ) -> Option<Duration> {
        let insert = !self.to_insert.is_empty()
            && (self.rng.random::<f64>() < inputs::INSERT_SHARE || self.deletable.is_empty());
        if insert {
            let index = self.to_insert.pop().expect("checked non-empty");
            let begun = Instant::now();
            let done = search.insert_documents(self.id, std::slice::from_ref(&all[index]));
            let took = begun.elapsed();
            if let Some(tracer) = tracer.as_mut() {
                tracer.record(op, "insert", took);
            }
            done.ok()?;
            self.deletable.push(index);
            self.inserted.push(index);
            Some(took)
        } else {
            if self.deletable.is_empty() {
                return None;
            }
            let slot = self.rng.random_range(0..self.deletable.len());
            let index = self.deletable.swap_remove(slot);
            let begun = Instant::now();
            let removed = search.delete_document(self.id, all[index].id);
            let took = begun.elapsed();
            if let Some(tracer) = tracer.as_mut() {
                tracer.record(op, "delete", took);
            }
            match removed {
                Ok(true) => {
                    self.deleted.push(index);
                    Some(took)
                }
                Ok(false) => {
                    problems.push(format!(
                        "delete of live document {:?} found nothing",
                        all[index].id
                    ));
                    None
                }
                Err(_) => {
                    // Unknown whether it landed: keep it out of the
                    // audits but let the reference treat it as live.
                    self.deletable.push(index);
                    None
                }
            }
        }
    }
}

/// What one client measured in one kind of time slice.
#[derive(Default)]
struct Sample {
    queries: Latencies,
    writes: Latencies,
    attempted: u64,
    failed: u64,
    // Traced slices only, read from each answer's `QueryTrace`.
    hit_ms: Vec<f64>,
    fanout_ms: Vec<f64>,
    gather_ms: Vec<f64>,
    wire_queue_ms: Vec<f64>,
    eval_ms: [Vec<f64>; 3],
    candidates_received: u64,
    candidates_examined: u64,
    segments_max: i64,
}

impl Sample {
    fn absorb(&mut self, other: Sample) {
        self.queries.extend(other.queries);
        self.writes.extend(other.writes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.hit_ms.extend(other.hit_ms);
        self.fanout_ms.extend(other.fanout_ms);
        self.gather_ms.extend(other.gather_ms);
        self.wire_queue_ms.extend(other.wire_queue_ms);
        for (mine, theirs) in self.eval_ms.iter_mut().zip(other.eval_ms) {
            mine.extend(theirs);
        }
        self.candidates_received += other.candidates_received;
        self.candidates_examined += other.candidates_examined;
        self.segments_max = self.segments_max.max(other.segments_max);
    }

    /// Reads the program's own trace of one answered query.
    fn read_trace(&mut self, query: &Query, outcome: &ShardedQueryOutcome, took: Duration) {
        if was_cache_hit(outcome) {
            self.hit_ms.push(ms(took));
            return;
        }
        let root = &outcome.trace.root;
        if let Some(fan_out) = root.find("fan_out") {
            self.fanout_ms.push(ms(fan_out.duration));
            let shape = match query.shape() {
                QueryShape::Terms => 0,
                QueryShape::And => 1,
                QueryShape::Phrase => 2,
            };
            for rpc in fan_out.children.iter().flat_map(|shard| &shard.children) {
                // The winning attempt carries the peer's decode span.
                if let Some(decode) = rpc.children.iter().find(|c| c.name == "decode") {
                    self.eval_ms[shape].push(ms(decode.duration));
                    self.wire_queue_ms
                        .push(ms(rpc.duration.saturating_sub(decode.duration)));
                }
            }
        }
        if let Some(gather) = root.find("gather") {
            self.gather_ms.push(ms(gather.duration));
        }
        self.candidates_received += outcome.candidates_received as u64;
        self.candidates_examined += outcome.candidates_examined as u64;
    }

    fn sample_segments(&mut self, search: &ShardedSearch) {
        let level = search
            .obs()
            .registry()
            .snapshot()
            .gauge("zerber_segment_segments")
            .unwrap_or(0);
        self.segments_max = self.segments_max.max(level);
    }
}

/// Whether the operation starting now falls in a traced slice: a traced
/// run alternates untraced and traced slices, so both see the same
/// deployment state even while it drifts (memtable growth, cache
/// churn).
fn in_traced_slice(traced: bool, started: Instant) -> bool {
    traced && (started.elapsed().as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1
}

/// One client's closed loop until `deadline`; returns its untraced and
/// traced samples.
fn client_loop(
    search: &ShardedSearch,
    all: &[Document],
    client: &mut Client,
    (started, deadline): (Instant, Instant),
    traced: bool,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> [Sample; 2] {
    let mut samples = [Sample::default(), Sample::default()];
    while Instant::now() < deadline {
        client.op += 1;
        let op = client.op;
        let spans = in_traced_slice(traced, started);
        let sample = &mut samples[usize::from(spans)];
        sample.attempted += 1;
        let begun = Instant::now();
        if client.rng.random::<f64>() < client.write_share {
            match client.write(search, all, spans.then_some(&mut *tracer), op, problems) {
                Some(took) => sample.writes.push(begun - started, took),
                None => sample.failed += 1,
            }
            if spans {
                sample.sample_segments(search);
            }
            continue;
        }
        let query = client.next_query();
        let answer = search.query_shaped(client.id, query.clone(), Forced::Auto);
        let took = begun.elapsed();
        match answer {
            Ok(outcome) => {
                sample.queries.push(begun - started, took);
                if spans {
                    tracer.record(op, "query", took);
                    sample.read_trace(&query, &outcome, took);
                }
            }
            Err(QueryError::Unavailable(_)) => sample.failed += 1,
        }
    }
    samples
}

/// A measured phase: both clients' samples plus what the deployment
/// counted meanwhile.
struct Phase {
    /// Untraced and traced samples (an untraced run fills only the
    /// first).
    samples: [Sample; 2],
    /// Wall time of the phase.
    elapsed: Duration,
    /// Share of it each kind of sample covered.
    duty: f64,
    wire_bytes: u64,
    epoch_bumps: u64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.attempted).sum()
    }
}

/// What the deployment had counted when a phase started.
struct PhaseStart {
    registry: MetricsSnapshot,
    wire_bytes: u64,
    epoch: u64,
    at: Instant,
}

impl PhaseStart {
    fn now(search: &ShardedSearch) -> Self {
        Self {
            registry: search.obs().registry().snapshot(),
            wire_bytes: search.traffic().total(),
            epoch: search.serving_epoch(),
            at: Instant::now(),
        }
    }

    fn finish(self, search: &ShardedSearch, samples: [Sample; 2], traced: bool) -> Phase {
        Phase {
            samples,
            elapsed: self.at.elapsed(),
            duty: if traced { 0.5 } else { 1.0 },
            wire_bytes: search.traffic().total() - self.wire_bytes,
            epoch_bumps: search.serving_epoch() - self.epoch,
            before: self.registry,
            after: search.obs().registry().snapshot(),
        }
    }
}

/// Runs both clients for `seconds`; a traced run spends half of them
/// in traced slices.
fn run_phase(
    search: &ShardedSearch,
    all: &[Document],
    clients: &mut [Client],
    seconds: f64,
    traced: bool,
    tracers: &mut [Tracer],
    problems: &mut Vec<String>,
) -> Phase {
    let start = PhaseStart::now(search);
    let started = start.at;
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Vec<([Sample; 2], Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                scope.spawn(move || {
                    let mut found = Vec::new();
                    let samples = client_loop(
                        search,
                        all,
                        client,
                        (started, deadline),
                        traced,
                        tracer,
                        &mut found,
                    );
                    (samples, found)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut samples = [Sample::default(), Sample::default()];
    for (parts, found) in results {
        for (mine, part) in samples.iter_mut().zip(parts) {
            mine.absorb(part);
        }
        problems.extend(found);
    }
    start.finish(search, samples, traced)
}

/// One `shard_read` write probe: `client` alone issues `writes`
/// back-to-back writes (after [`PROBE_UNTIMED_WRITES`] untimed ones) on
/// a deployment serving nothing else. A traced run traces every other
/// write. Latencies are stamped from `epoch`, so the probes of several
/// deployments sort in the order they ran.
#[allow(clippy::too_many_arguments)]
fn write_probe(
    search: &ShardedSearch,
    all: &[Document],
    client: &mut Client,
    writes: usize,
    epoch: Instant,
    traced: bool,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Phase {
    for _ in 0..PROBE_UNTIMED_WRITES {
        client.op += 1;
        let op = client.op;
        let _ = client.write(search, all, None, op, problems);
    }
    let start = PhaseStart::now(search);
    let mut samples = [Sample::default(), Sample::default()];
    for i in 0..writes {
        client.op += 1;
        let op = client.op;
        let spans = traced && i % 2 == 1;
        let sample = &mut samples[usize::from(spans)];
        sample.attempted += 1;
        let begun = Instant::now();
        match client.write(search, all, spans.then_some(&mut *tracer), op, problems) {
            Some(took) => sample.writes.push(begun - epoch, took),
            None => sample.failed += 1,
        }
        if spans {
            sample.sample_segments(search);
        }
    }
    start.finish(search, samples, traced)
}

/// Replays `queries` queries of each client's log, untimed.
fn warm_up(search: &ShardedSearch, clients: &mut [Client], queries: usize) {
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || {
                for _ in 0..queries {
                    let _ = search.query_shaped(client.id, client.next_query(), Forced::Auto);
                }
            });
        }
    });
}

/// Builds the deployment and times it until the first correct answer.
fn set_up(
    config: &ZerberConfig,
    initial: &[Document],
    probe: &Query,
    expected: &[RankedDoc],
) -> Result<(ShardedSearch, Duration, u64), String> {
    let started = Instant::now();
    let search =
        ShardedSearch::launch(config, initial).map_err(|e| format!("launch failed: {e}"))?;
    let mut failures = 0u64;
    loop {
        match search.query_shaped(0, probe.clone(), Forced::Auto) {
            Ok(outcome) => {
                let elapsed = started.elapsed();
                if !identical(&outcome.ranked, expected) {
                    return Err("first answer after launch differs from the reference".into());
                }
                return Ok((search, elapsed, failures));
            }
            Err(QueryError::Unavailable(_)) => {
                failures += 1;
                if failures > MAX_PROBE_FAILURES {
                    return Err(format!(
                        "deployment not ready after {failures} readiness queries"
                    ));
                }
            }
        }
    }
}

fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => disk_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs `shard_read` or `shard_write`.
pub fn run(opts: &RunOptions, mode: Mode) -> Outcome {
    let root = opts.data_dir.clone();
    let outcome = run_in(opts, mode, &root);
    // The stores are closed by now; leave nothing behind (the parent
    // goes too once no other run uses it).
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

fn run_in(opts: &RunOptions, mode: Mode, root: &Path) -> Outcome {
    let scale = opts.scale.unwrap_or_else(Scale::shard);
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let corpus = Corpus::generate(&scale, opts.seed);
    let mut all = corpus.initial.clone();
    all.extend(corpus.held_back.iter().cloned());
    let initial = corpus.initial.len();

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            rng: inputs::rng(opts.seed, 20 + u64::from(id)),
            write_share: match mode {
                Mode::Read => 0.0,
                Mode::Write => WRITE_SHARE,
            },
            log: inputs::shaped_log(&scale, &corpus.stats, opts.seed, u64::from(id)),
            cursor: 0,
            op: u64::from(id) << 48,
            // Popped from the back: reverse so inserts go in order.
            to_insert: (initial..all.len())
                .filter(|i| i % CLIENTS as usize == id as usize)
                .rev()
                .collect(),
            deletable: (0..initial)
                .filter(|i| i % CLIENTS as usize == id as usize)
                .collect(),
            inserted: Vec::new(),
            deleted: Vec::new(),
        })
        .collect();

    // What the writing client holds before its first operation: the
    // write probes of the deployments built after the run start from
    // it.
    let fresh = clients[0].writer();

    // The readiness probe: the first Terms query with a non-empty answer.
    let mut reference = Oracle::new(&corpus.initial);
    let Some((probe, expected)) = clients[0]
        .log
        .iter()
        .filter(|q| q.shape() == QueryShape::Terms)
        .map(|q| (q.clone(), reference.answer(q)))
        .find(|(_, answer)| !answer.is_empty())
    else {
        return outcome.fail("no logged query has an answer".into());
    };
    drop(reference);
    crate::progress("inputs", started);

    let _ = std::fs::remove_dir_all(root);
    let mut problems = Vec::new();
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(opts.trace)).collect();
    // The first deployment built serves the run. The others only time
    // set-up again (and take `shard_read`'s write probes) once it is
    // gone, so the peak memory is that of one deployment and its run.
    let dir = root.join("setup-0");
    let (search, elapsed, mut probe_failures) =
        match set_up(&config(&dir, mode), &corpus.initial, &probe, &expected) {
            Ok(built) => built,
            Err(problem) => return outcome.fail(problem),
        };
    let mut setups = vec![elapsed.as_secs_f64()];
    crate::progress("set-up", started);

    if mode == Mode::Read {
        // Fill the result cache before timing: the hit rate of a Zipf
        // replay climbs steeply over its first few thousand queries.
        warm_up(&search, &mut clients, scale.warmup_queries);
        crate::progress("warm-up", started);
    }
    let main = run_phase(
        &search,
        &all,
        &mut clients,
        opts.seconds,
        opts.trace,
        &mut tracers,
        &mut problems,
    );
    let probe_phase = (mode == Mode::Read).then(|| {
        // Any write bumps the serving epoch and so empties the cache:
        // the serving deployment is written to only after the read
        // phase.
        write_probe(
            &search,
            &all,
            &mut clients[0],
            scale.probe_writes,
            started,
            opts.trace,
            &mut tracers[0],
            &mut problems,
        )
    });
    for phase in std::iter::once(&main).chain(&probe_phase) {
        for sample in &phase.samples {
            outcome.attempted += sample.attempted;
            outcome.failed += sample.failed;
        }
    }
    // `shard_read`'s write latencies, untraced and traced, over the
    // write probes of every deployment.
    let mut probe_writes = [Latencies::default(), Latencies::default()];
    if let Some(phase) = &probe_phase {
        for (kind, sample) in phase.samples.iter().enumerate() {
            probe_writes[kind].extend(sample.writes.clone());
        }
    }
    let rss_mb = crate::measure::peak_rss_mb();
    crate::progress("timed phases", started);

    let live = live_set(&all, initial, &clients);
    let checked = check(&search, &all, &live, &mut clients, &scale, opts.seed);
    crate::progress("checks", started);
    if let Err(problem) = checked {
        return outcome.fail(problem);
    }
    let live_postings: usize = live
        .iter()
        .enumerate()
        .filter(|&(_, &alive)| alive)
        .map(|(i, _)| all[i].terms.len())
        .sum();
    let disk_bytes_per_posting = ratio(disk_bytes(&dir) as f64, live_postings as f64);
    drop(search);
    let _ = std::fs::remove_dir_all(&dir);

    for i in 1..scale.setups {
        let dir = root.join(format!("setup-{i}"));
        let search = match set_up(&config(&dir, mode), &corpus.initial, &probe, &expected) {
            Ok((search, elapsed, failures)) => {
                setups.push(elapsed.as_secs_f64());
                probe_failures += failures;
                search
            }
            Err(problem) => return outcome.fail(problem),
        };
        if mode == Mode::Read {
            // A stand-in for the writing client, under operation ids and
            // with a random stream of its own. It inserts held-back
            // documents from further along the pool, so the probes
            // together time inserts of several thousand distinct
            // documents: a write p99 is set by the largest of them.
            let mut stand_in = fresh.writer();
            stand_in.op = u64::from(CLIENTS + i as u32) << 48;
            stand_in.rng = inputs::rng(opts.seed, 30 + i as u64);
            let pool: Vec<usize> = (initial..all.len()).collect();
            let skip = i * (scale.probe_writes + PROBE_UNTIMED_WRITES) % pool.len();
            // Popped from the back: reverse so inserts go in order.
            stand_in.to_insert = pool[skip..]
                .iter()
                .chain(&pool[..skip])
                .rev()
                .copied()
                .collect();
            let phase = write_probe(
                &search,
                &all,
                &mut stand_in,
                scale.probe_writes,
                started,
                opts.trace,
                &mut tracers[0],
                &mut problems,
            );
            for (kind, sample) in phase.samples.iter().enumerate() {
                outcome.attempted += sample.attempted;
                outcome.failed += sample.failed;
                probe_writes[kind].extend(sample.writes.clone());
            }
        }
        drop(search);
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome.metrics.set("setup_s", median(&setups), "s");
    crate::progress("further set-ups", started);
    if let Some(problem) = problems.into_iter().next() {
        return outcome.fail(problem);
    }

    let probe_writes = probe_phase.as_ref().map(|_| &probe_writes);
    let mut untraced = Metrics::default();
    end_to_end(&mut untraced, &main, probe_writes, 0);
    if opts.trace {
        let mut spans = Tracer::new(true);
        for tracer in tracers {
            spans.absorb(tracer);
        }
        eprint!("{}", spans.summary());
        let mut traced = Metrics::default();
        end_to_end(&mut traced, &main, probe_writes, 1);
        crate::overhead(&mut outcome.metrics, &untraced, &traced);
        layer_metrics(&mut outcome.metrics, &main, probe_phase.as_ref());
        outcome.metrics.set(
            "runtime.setup_probe_failures",
            probe_failures as f64,
            "count",
        );
        outcome.metrics.set(
            "error_rate",
            ratio(outcome.failed as f64, outcome.attempted as f64),
            "ratio",
        );
        outcome.metrics.set(
            "segment.disk_bytes_per_posting",
            disk_bytes_per_posting,
            "B",
        );
    } else {
        outcome.metrics.extend(untraced);
        outcome.metrics.set("rss_mb", rss_mb, "MB");
    }
    outcome.correct = true;
    outcome
}

/// The end-to-end metrics of one slice kind (0 untraced, 1 traced):
/// the timed phase, plus (`shard_read`) the write probes' latencies.
fn end_to_end(
    metrics: &mut Metrics,
    main: &Phase,
    probe_writes: Option<&[Latencies; 2]>,
    kind: usize,
) {
    let s = &main.samples[kind];
    let writes = probe_writes.map_or(&s.writes, |w| &w[kind]);
    metrics.set("query_p50_ms", s.queries.p50(), "ms");
    metrics.set("query_p99_ms", s.queries.p99(), "ms");
    metrics.set("write_p50_ms", writes.p50(), "ms");
    metrics.set("write_p99_ms", writes.p99(), "ms");
    let completed = (s.queries.len() + s.writes.len()) as f64;
    metrics.set(
        "ops_s",
        completed / (main.elapsed.as_secs_f64() * main.duty),
        "ops/s",
    );
    metrics.set(
        "wire_kb_per_op",
        main.wire_bytes as f64 / 1e3 / main.attempted().max(1) as f64,
        "KB",
    );
}

/// The per-layer metrics of a traced run: latencies from the traced
/// slices, registry deltas over the whole phase; write-side metrics
/// from the write probe when there is one.
fn layer_metrics(metrics: &mut Metrics, main: &Phase, probe: Option<&Phase>) {
    let s = &main.samples[1];
    let queries: f64 = main.samples.iter().map(|s| s.queries.len() as f64).sum();
    metrics.set("runtime.fanout_ms.p50", quantile(&s.fanout_ms, 0.5), "ms");
    metrics.set("runtime.fanout_ms.p99", quantile(&s.fanout_ms, 0.99), "ms");
    metrics.set(
        "runtime.wire_queue_ms.p50",
        quantile(&s.wire_queue_ms, 0.5),
        "ms",
    );
    metrics.set(
        "runtime.wire_queue_ms.p99",
        quantile(&s.wire_queue_ms, 0.99),
        "ms",
    );
    metrics.set("runtime.gather_ms.p50", quantile(&s.gather_ms, 0.5), "ms");
    metrics.set(
        "runtime.gather_useful_ratio",
        ratio(s.candidates_examined as f64, s.candidates_received as f64),
        "ratio",
    );
    let delta = |name: &str| counter_delta(&main.before, &main.after, name);
    metrics.set(
        "runtime.hedges_per_query",
        ratio(delta("zerber_gather_hedges_total"), queries),
        "count",
    );
    metrics.set(
        "runtime.duplicates_per_query",
        ratio(delta("zerber_gather_duplicate_responses_total"), queries),
        "count",
    );
    metrics.set(
        "runtime.failed_attempts_per_query",
        ratio(delta("zerber_gather_failed_attempts_total"), queries),
        "count",
    );
    metrics.set(
        "query.eval_ms.terms.p99",
        quantile(&s.eval_ms[0], 0.99),
        "ms",
    );
    metrics.set("query.eval_ms.and.p99", quantile(&s.eval_ms[1], 0.99), "ms");
    metrics.set(
        "query.eval_ms.phrase.p99",
        quantile(&s.eval_ms[2], 0.99),
        "ms",
    );
    let decoded = delta("zerber_peer_blocks_decoded_total");
    let skipped = delta("zerber_peer_blocks_skipped_total");
    metrics.set(
        "postings.blocks_decoded_per_query",
        ratio(decoded, queries),
        "count",
    );
    metrics.set(
        "postings.block_skip_ratio",
        ratio(skipped, decoded + skipped),
        "ratio",
    );
    let hits = delta("zerber_cache_hits_total");
    let misses = delta("zerber_cache_misses_total");
    metrics.set("cache.hit_rate", ratio(hits, hits + misses), "ratio");
    metrics.set(
        "cache.evictions_per_kquery",
        ratio(delta("zerber_cache_evictions_total") * 1e3, queries),
        "count",
    );
    metrics.set("cache.hit_ms.p50", quantile(&s.hit_ms, 0.5), "ms");

    let written = probe.unwrap_or(main);
    let writes: f64 = written.samples.iter().map(|s| s.writes.len() as f64).sum();
    metrics.set(
        "runtime.epoch_bumps_per_write",
        ratio(written.epoch_bumps as f64, writes),
        "count",
    );
    let hist = |name: &str| histogram_delta(&written.before, &written.after, name);
    metrics.set(
        "segment.wal_append_ms.p99",
        ns_to_ms(hist("zerber_segment_wal_append_ns").p99()),
        "ms",
    );
    let fsync = hist("zerber_segment_wal_fsync_ns");
    metrics.set("segment.wal_fsync_ms.p50", ns_to_ms(fsync.p50()), "ms");
    metrics.set("segment.wal_fsync_ms.p99", ns_to_ms(fsync.p99()), "ms");
    let flush = hist("zerber_segment_flush_ns");
    metrics.set("segment.flushes", flush.count as f64, "count");
    metrics.set("segment.flush_ms.p99", ns_to_ms(flush.p99()), "ms");
    let compaction = hist("zerber_segment_compaction_ns");
    metrics.set("segment.compactions", compaction.count as f64, "count");
    metrics.set(
        "segment.compaction_ms.total",
        ns_to_ms(compaction.sum),
        "ms",
    );
    metrics.set(
        "segment.segments.max",
        s.segments_max.max(written.samples[1].segments_max) as f64,
        "count",
    );
}

/// Which documents are live after every client's writes.
fn live_set(all: &[Document], initial: usize, clients: &[Client]) -> Vec<bool> {
    let mut live: Vec<bool> = (0..all.len()).map(|i| i < initial).collect();
    for client in clients {
        for &i in &client.inserted {
            live[i] = true;
        }
        for &i in &client.deleted {
            live[i] = false;
        }
    }
    live
}

/// Correctness after the timed phases (writes have stopped):
/// sampled answers bit-identical to `local_planned` over the live
/// documents, the stale-hit audit, and every sampled
/// insert found and delete gone.
fn check(
    search: &ShardedSearch,
    all: &[Document],
    live: &[bool],
    clients: &mut [Client],
    scale: &Scale,
    seed: u64,
) -> Result<(), String> {
    let live_docs: Vec<Document> = all
        .iter()
        .zip(live)
        .filter(|&(_, &alive)| alive)
        .map(|(d, _)| d.clone())
        .collect();
    if search.document_count() != live_docs.len() {
        return Err(format!(
            "deployment holds {} documents, expected {}",
            search.document_count(),
            live_docs.len()
        ));
    }
    let mut oracle = Oracle::new(&live_docs);
    let mut rng = inputs::rng(seed, 21);
    for n in 0..scale.checked_answers {
        let client = &clients[n % clients.len()];
        let query = &client.log[rng.random_range(0..client.log.len())];
        let want = oracle.answer(query);
        if n == 0 {
            // The kept-across-queries reference is `local_planned`.
            let direct = local_planned(&reference_config(), &live_docs, query, Forced::Auto);
            if !identical(&want, &direct) {
                return Err("benchmark reference disagrees with local_planned".into());
            }
        }
        let got = search
            .query_shaped(0, query.clone(), Forced::Auto)
            .map_err(|e| format!("check query failed: {e}"))?;
        if !identical(&got.ranked, &want) {
            return Err(format!(
                "answer to {query:?} is not bit-identical to the reference"
            ));
        }
    }

    stale_hit_audit(search, all, clients, &mut oracle, &mut rng)?;

    let inserted: Vec<usize> = clients
        .iter()
        .flat_map(|c| c.inserted.iter().rev().take(8))
        .copied()
        .collect();
    for i in inserted {
        if !clients.iter().any(|c| c.deletable.contains(&i)) {
            continue;
        }
        let doc = &all[i];
        let (freq, term) = oracle.rarest_term(doc);
        let found = search
            .query_shaped(
                0,
                Query::Terms {
                    terms: vec![term],
                    k: freq.max(1),
                },
                Forced::Auto,
            )
            .map_err(|e| format!("audit query failed: {e}"))?;
        if !found.ranked.iter().any(|r| r.doc == doc.id) {
            return Err(format!("inserted document {:?} cannot be found", doc.id));
        }
    }
    let deleted: Vec<usize> = clients
        .iter()
        .flat_map(|c| c.deleted.iter().rev().take(8))
        .copied()
        .collect();
    for i in deleted {
        let doc = &all[i];
        let (freq, term) = oracle.rarest_term(doc);
        let found = search
            .query_shaped(
                0,
                Query::Terms {
                    terms: vec![term],
                    k: freq + 1,
                },
                Forced::Auto,
            )
            .map_err(|e| format!("audit query failed: {e}"))?;
        if found.ranked.iter().any(|r| r.doc == doc.id) {
            return Err(format!("deleted document {:?} is still found", doc.id));
        }
    }
    Ok(())
}

/// Repeats a query so it is answered from the cache, checks the hit
/// against a fresh evaluation, then deletes its top document: the next
/// answer must miss the cache and match the new evaluation.
fn stale_hit_audit(
    search: &ShardedSearch,
    all: &[Document],
    clients: &mut [Client],
    oracle: &mut Oracle,
    rng: &mut StdRng,
) -> Result<(), String> {
    let mut audited = 0;
    for _ in 0..64 {
        if audited == STALE_AUDITS {
            break;
        }
        let query = {
            let client = &clients[0];
            client.log[rng.random_range(0..client.log.len())].clone()
        };
        let first = search
            .query_shaped(0, query.clone(), Forced::Auto)
            .map_err(|e| format!("audit query failed: {e}"))?;
        let Some(top) = first.ranked.first().map(|r| r.doc) else {
            continue;
        };
        let again = search
            .query_shaped(0, query.clone(), Forced::Auto)
            .map_err(|e| format!("audit query failed: {e}"))?;
        if !was_cache_hit(&again) {
            continue;
        }
        if !identical(&again.ranked, &oracle.answer(&query)) {
            return Err(format!(
                "cache hit for {query:?} differs from a fresh evaluation"
            ));
        }
        let Some((owner, slot)) = clients.iter().enumerate().find_map(|(c, client)| {
            client
                .deletable
                .iter()
                .position(|&i| all[i].id == top)
                .map(|slot| (c, slot))
        }) else {
            continue;
        };
        let index = clients[owner].deletable.swap_remove(slot);
        if search
            .delete_document(owner as u32, top)
            .map_err(|e| format!("audit delete failed: {e}"))?
        {
            clients[owner].deleted.push(index);
            oracle.remove(&all[index]);
        } else {
            return Err(format!("audit delete of {top:?} found nothing"));
        }
        let after = search
            .query_shaped(0, query.clone(), Forced::Auto)
            .map_err(|e| format!("audit query failed: {e}"))?;
        if was_cache_hit(&after) || !identical(&after.ranked, &oracle.answer(&query)) {
            return Err(format!("stale answer for {query:?} after deleting {top:?}"));
        }
        audited += 1;
    }
    if audited == 0 {
        return Err("stale-hit audit found no cacheable query".into());
    }
    Ok(())
}
