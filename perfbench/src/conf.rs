//! `conf_search`: the paper's r-confidential system. One client (owner
//! updates need `&mut ZerberSystem`) issues Zipf keyword queries as
//! users with Zipf group memberships; about one operation in ten is an
//! owner update (index a held-back document and flush it, or delete an
//! earlier one).
//!
//! The traced run also drives a probe deployment assembled from the
//! same public parts — the system's sharing scheme and mapping table,
//! its own index servers and token authority — loaded with the same
//! live documents, so each layer of Algorithm 2 can be called and timed
//! on its own: the parallel share fetch through `RuntimeHandle`, the
//! server's lookup, the wire codec, Lagrange reconstruction, element
//! decoding and ranking; and, on every update, the share split and the
//! servers' insert and delete.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use zerber::runtime::{PeerRuntime, RuntimeHandle, ServerService, Transport};
use zerber::{ZerberConfig, ZerberSystem};
use zerber_client::{BatchPolicy, QueryOutcome, ServerHandle};
use zerber_core::{ElementCodec, ElementId, MappingTable, PlId, PostingElement};
use zerber_corpus::GroupAssignments;
use zerber_field::{lagrange_weights_at_zero, Fp};
use zerber_index::{
    idf, threshold_topk, CentralIndex, DocId, Document, GroupId, RankedDoc, ScoredList, TermId,
    UserId,
};
use zerber_net::{AuthToken, Message, NodeId, StoredShare, TrafficMeter};
use zerber_server::{IndexServer, TokenAuth};
use zerber_shamir::SharingScheme;

use crate::inputs::{self, Corpus, Scale, K, TOPICS};
use crate::measure::{median, quantile, ratio, Latencies, Metrics, Tracer};
use crate::{Outcome, RunOptions};

/// Share of operations that are owner updates.
const WRITE_SHARE: f64 = 0.1;

/// A user outside the generated population, member of every group:
/// it audits inserted and deleted documents after the timed phase.
const AUDITOR: UserId = UserId(0x3FFF_0000);

/// The documents of one run and which of them are live.
struct Docs {
    all: Vec<Document>,
    /// Indices into `all` of the live documents.
    live: Vec<usize>,
    /// Next held-back document to insert (indices `initial..`).
    next_insert: usize,
    inserted: Vec<usize>,
    deleted: Vec<usize>,
}

impl Docs {
    fn new(corpus: &Corpus) -> Self {
        let mut all = corpus.initial.clone();
        all.extend(corpus.held_back.iter().cloned());
        Self {
            live: (0..corpus.initial.len()).collect(),
            next_insert: corpus.initial.len(),
            all,
            inserted: Vec::new(),
            deleted: Vec::new(),
        }
    }

    fn live_docs(&self) -> Vec<Document> {
        self.live.iter().map(|&i| self.all[i].clone()).collect()
    }
}

/// One operation the closed loop chose.
enum Op {
    Query(UserId, Vec<TermId>),
    Insert(usize),
    Delete(usize),
}

/// Results of one closed-loop phase.
#[derive(Default)]
struct Phase {
    queries: Latencies,
    writes: Latencies,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
    wire_bytes: u64,
    /// `QueryOutcome` element accounting, traced phase only.
    elements_received: u64,
    false_positives: u64,
    traced_queries: u64,
}

impl Phase {
    fn end_to_end(&self, metrics: &mut Metrics) {
        let ops = self.attempted.max(1) as f64;
        metrics.set("query_p50_ms", self.queries.p50(), "ms");
        metrics.set("query_p99_ms", self.queries.p99(), "ms");
        metrics.set("write_p50_ms", self.writes.p50(), "ms");
        metrics.set("write_p99_ms", self.writes.p99(), "ms");
        metrics.set(
            "ops_s",
            (self.queries.len() + self.writes.len()) as f64 / self.elapsed.as_secs_f64(),
            "ops/s",
        );
        metrics.set("wire_kb_per_op", self.wire_bytes as f64 / 1e3 / ops, "KB");
    }
}

/// Builds the deployment, loads the initial corpus, and times it until
/// the first query is answered correctly.
fn set_up(
    config: &ZerberConfig,
    corpus: &Corpus,
    groups: &GroupAssignments,
    probe: &(UserId, Vec<TermId>),
    expected: &BTreeSet<DocId>,
) -> Result<(ZerberSystem, Duration), String> {
    let started = Instant::now();
    let mut system = ZerberSystem::bootstrap(config.clone(), &corpus.prefix_stats)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    for user in groups.users() {
        for group in groups.groups_of(user) {
            system.add_membership(user, group);
        }
    }
    for group in 0..TOPICS {
        system.add_membership(AUDITOR, GroupId(group));
    }
    system
        .index_corpus(&corpus.initial)
        .map_err(|e| format!("initial load failed: {e}"))?;
    let first = system
        .query(probe.0, &probe.1, usize::MAX)
        .map_err(|e| format!("first query failed: {e}"))?;
    let elapsed = started.elapsed();
    if &result_set(&first.ranked) != expected {
        return Err("first query after set-up disagrees with the central index".into());
    }
    Ok((system, elapsed))
}

fn result_set(ranked: &[RankedDoc]) -> BTreeSet<DocId> {
    ranked.iter().map(|r| r.doc).collect()
}

fn central(docs: &[Document], groups: &GroupAssignments) -> CentralIndex {
    let mut central = CentralIndex::new();
    for user in groups.users() {
        for group in groups.groups_of(user) {
            central.add_user_to_group(user, group);
        }
    }
    for group in 0..TOPICS {
        central.add_user_to_group(AUDITOR, GroupId(group));
    }
    central.insert_batch(docs);
    central
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> Outcome {
    let scale = opts.scale.unwrap_or_else(Scale::conf);
    let started = Instant::now();
    let corpus = Corpus::generate(&scale, opts.seed);
    let log = inputs::flat_log(&scale, &corpus.stats, opts.seed);
    let groups = inputs::memberships(&scale, opts.seed);
    let mut users: Vec<UserId> = groups.users().collect();
    users.sort_unstable();
    let mut outcome = Outcome::default();

    // Owners batch exactly one document per update: each update is one
    // `insert_batch` per server.
    let batch = corpus
        .initial
        .iter()
        .chain(&corpus.held_back)
        .map(|d| d.terms.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let config = ZerberConfig::default().with_batch(BatchPolicy::batched(batch));

    // The set-up probe: the first logged query of a user who can see
    // results for it, answered in full (k = ∞).
    let reference = central(&corpus.initial, &groups);
    let probe = log
        .queries
        .iter()
        .flat_map(|terms| users.iter().map(move |&u| (u, terms.clone())))
        .find(|(u, terms)| !reference.search(*u, terms, usize::MAX).is_empty())
        .unwrap_or((AUDITOR, log.queries[0].clone()));
    let expected = result_set(&reference.search(probe.0, &probe.1, usize::MAX));
    drop(reference);
    crate::progress("inputs", started);

    let mut setups = Vec::with_capacity(scale.setups);
    let mut system = None;
    for _ in 0..scale.setups {
        drop(system.take());
        match set_up(&config, &corpus, &groups, &probe, &expected) {
            Ok((built, elapsed)) => {
                setups.push(elapsed.as_secs_f64());
                system = Some(built);
            }
            Err(problem) => return outcome.fail(problem),
        }
    }
    let mut system = system.expect("at least one set-up");
    outcome.metrics.set("setup_s", median(&setups), "s");
    crate::progress("set-up", started);

    let mut docs = Docs::new(&corpus);
    let mut op_rng = inputs::rng(opts.seed, 10);
    let mut cursor = 0usize;
    let mut next_op = |docs: &Docs, rng: &mut StdRng| -> Op {
        if rng.random::<f64>() < WRITE_SHARE {
            let can_insert = docs.next_insert < docs.all.len();
            if can_insert && (rng.random::<f64>() < inputs::INSERT_SHARE || docs.live.is_empty()) {
                return Op::Insert(docs.next_insert);
            }
            if !docs.live.is_empty() {
                return Op::Delete(rng.random_range(0..docs.live.len()));
            }
        }
        let user = users[rng.random_range(0..users.len())];
        let terms = log.queries[cursor % log.queries.len()].clone();
        cursor += 1;
        Op::Query(user, terms)
    };

    // A traced run spends half its time untraced, then half traced.
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = closed_loop(
        &mut system,
        &mut docs,
        seconds,
        &mut op_rng,
        &mut next_op,
        None,
    );
    outcome.attempted += untraced.attempted;
    outcome.failed += untraced.failed;

    if opts.trace {
        let mut rig = Rig::new(&system, &config, &groups, &docs.live_docs(), opts.seed);
        let mut tracer = Tracer::new(true);
        let traced = closed_loop(
            &mut system,
            &mut docs,
            seconds,
            &mut op_rng,
            &mut next_op,
            Some((&mut rig, &mut tracer)),
        );
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        eprint!("{}", tracer.summary());
        if let Some(problem) = rig.problem.take() {
            return outcome.fail(problem);
        }
        let mut base = Metrics::default();
        untraced.end_to_end(&mut base);
        let mut with_spans = Metrics::default();
        traced.end_to_end(&mut with_spans);
        crate::overhead(&mut outcome.metrics, &base, &with_spans);
        layer_metrics(
            &mut outcome.metrics,
            &tracer,
            &rig,
            &traced,
            config.threshold,
        );
        outcome.metrics.set(
            "error_rate",
            ratio(outcome.failed as f64, outcome.attempted as f64),
            "ratio",
        );
    } else {
        untraced.end_to_end(&mut outcome.metrics);
        outcome
            .metrics
            .set("rss_mb", crate::measure::peak_rss_mb(), "MB");
    }

    crate::progress("timed phases", started);
    let checked = check(
        &system,
        &docs,
        &groups,
        &users,
        &log.queries,
        &scale,
        opts.seed,
    );
    crate::progress("checks", started);
    if let Err(problem) = checked {
        return outcome.fail(problem);
    }
    outcome.correct = true;
    outcome
}

/// Drives the closed loop for `seconds`; with a rig, also records the
/// per-layer spans around each operation.
fn closed_loop(
    system: &mut ZerberSystem,
    docs: &mut Docs,
    seconds: f64,
    rng: &mut StdRng,
    next_op: &mut impl FnMut(&Docs, &mut StdRng) -> Op,
    mut probe: Option<(&mut Rig, &mut Tracer)>,
) -> Phase {
    let mut phase = Phase::default();
    let wire_before = system.traffic().total();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut op_id = 0u64;
    while Instant::now() < deadline {
        op_id += 1;
        phase.attempted += 1;
        match next_op(docs, rng) {
            Op::Query(user, terms) => {
                let begun = Instant::now();
                let answer = system.query(user, &terms, K);
                let took = begun.elapsed();
                match answer {
                    Ok(answer) => {
                        phase.queries.push(begun - started, took);
                        if let Some((rig, tracer)) = probe.as_mut() {
                            tracer.record(op_id, "query", took);
                            phase.elements_received += answer.elements_received as u64;
                            phase.false_positives += answer.false_positives as u64;
                            phase.traced_queries += 1;
                            rig.probe_query(tracer, op_id, user, &terms, &answer);
                        }
                    }
                    Err(_) => phase.failed += 1,
                }
            }
            Op::Insert(index) => {
                let doc = &docs.all[index];
                let begun = Instant::now();
                let done = system
                    .index_document(doc)
                    .and_then(|_| system.flush_owners());
                let took = begun.elapsed();
                docs.next_insert += 1;
                if done.is_err() {
                    phase.failed += 1;
                    continue;
                }
                phase.writes.push(begun - started, took);
                docs.live.push(index);
                docs.inserted.push(index);
                if let Some((rig, tracer)) = probe.as_mut() {
                    tracer.record(op_id, "insert", took);
                    rig.insert(doc, Some((&mut **tracer, op_id)));
                }
            }
            Op::Delete(slot) => {
                let index = docs.live[slot];
                let doc = &docs.all[index];
                let begun = Instant::now();
                let removed = system.delete_document(doc.group, doc.id);
                let took = begun.elapsed();
                match removed {
                    Ok(n) if n > 0 => {
                        phase.writes.push(begun - started, took);
                        docs.live.swap_remove(slot);
                        docs.deleted.push(index);
                        if let Some((rig, tracer)) = probe.as_mut() {
                            tracer.record(op_id, "delete", took);
                            rig.delete(doc.id, tracer, op_id);
                        }
                    }
                    _ => phase.failed += 1,
                }
            }
        }
    }
    phase.elapsed = started.elapsed();
    phase.wire_bytes = system.traffic().total() - wire_before;
    phase
}

/// The per-layer metrics of the traced phase.
fn layer_metrics(metrics: &mut Metrics, tracer: &Tracer, rig: &Rig, phase: &Phase, k: usize) {
    let p = |name: &str, q: f64| quantile(&tracer.durations_ms(name), q);
    metrics.set("client.fetch_ms.p50", p("client.fetch", 0.5), "ms");
    metrics.set("client.fetch_ms.p99", p("client.fetch", 0.99), "ms");
    metrics.set("server.lookup_ms.p50", p("server.lookup", 0.5), "ms");
    metrics.set("net.codec_ms.p50", p("net.codec", 0.5), "ms");
    metrics.set(
        "field.reconstruct_ms.p50",
        p("field.reconstruct", 0.5),
        "ms",
    );
    let decode_ms: f64 = tracer.durations_ms("core.decode").iter().sum();
    metrics.set(
        "core.decode_elems_per_ms",
        ratio(rig.decoded_elements as f64, decode_ms),
        "1/ms",
    );
    metrics.set("client.rank_ms.p50", p("client.rank", 0.5), "ms");
    metrics.set(
        "client.elements_per_query",
        ratio(phase.elements_received as f64, phase.traced_queries as f64),
        "count",
    );
    // Each element arrives once from each of the k contacted servers.
    let distinct = phase.elements_received as f64 / k as f64;
    metrics.set(
        "client.useful_element_ratio",
        if distinct > 0.0 {
            1.0 - phase.false_positives as f64 / distinct
        } else {
            0.0
        },
        "ratio",
    );
    metrics.set("shamir.split_ms_per_doc", p("shamir.split", 0.5), "ms");
    metrics.set("server.insert_ms_per_doc", p("server.insert", 0.5), "ms");
    metrics.set("server.delete_ms_per_doc", p("server.delete", 0.5), "ms");
}

/// Correctness after the timed phases: result sets (k = ∞) against
/// the central index over the same memberships and live documents, and
/// every sampled insert found and delete gone.
fn check(
    system: &ZerberSystem,
    docs: &Docs,
    groups: &GroupAssignments,
    users: &[UserId],
    queries: &[Vec<TermId>],
    scale: &Scale,
    seed: u64,
) -> Result<(), String> {
    let live = docs.live_docs();
    let reference = central(&live, groups);
    let mut rng = inputs::rng(seed, 11);
    for _ in 0..scale.checked_answers {
        let user = users[rng.random_range(0..users.len())];
        let terms = &queries[rng.random_range(0..queries.len())];
        let got = system
            .query(user, terms, usize::MAX)
            .map_err(|e| format!("check query failed: {e}"))?;
        if result_set(&got.ranked) != result_set(&reference.search(user, terms, usize::MAX)) {
            return Err(format!(
                "user {user:?} terms {terms:?}: result set differs from the central index"
            ));
        }
    }
    let index = reference.inverted();
    let rarest = |doc: &Document| {
        doc.terms
            .iter()
            .map(|&(t, _)| t)
            .min_by_key(|&t| index.document_frequency(t))
            .expect("documents have terms")
    };
    for &i in docs.inserted.iter().rev().take(16) {
        let doc = &docs.all[i];
        if !docs.live.contains(&i) {
            continue;
        }
        let found = system
            .query(AUDITOR, &[rarest(doc)], usize::MAX)
            .map_err(|e| format!("audit query failed: {e}"))?;
        if !found.ranked.iter().any(|r| r.doc == doc.id) {
            return Err(format!("inserted document {:?} cannot be found", doc.id));
        }
    }
    for &i in docs.deleted.iter().rev().take(16) {
        let doc = &docs.all[i];
        let found = system
            .query(AUDITOR, &[rarest(doc)], usize::MAX)
            .map_err(|e| format!("audit query failed: {e}"))?;
        if found.ranked.iter().any(|r| r.doc == doc.id) {
            return Err(format!("deleted document {:?} is still found", doc.id));
        }
    }
    Ok(())
}

/// The probe deployment: the system's public scheme and mapping table
/// behind index servers the benchmark owns (so it can authenticate to
/// them), each on its own peer thread like the system's.
struct Rig {
    codec: ElementCodec,
    scheme: SharingScheme,
    table: Arc<MappingTable>,
    threshold: usize,
    auth: Arc<TokenAuth>,
    servers: Vec<Arc<IndexServer>>,
    handles: Vec<Arc<dyn ServerHandle>>,
    owner: AuthToken,
    inventory: HashMap<DocId, Vec<(PlId, ElementId)>>,
    next_element: u64,
    rng: StdRng,
    decoded_elements: u64,
    problem: Option<String>,
    // Dropped last: joins the peer threads serving `handles`.
    _runtime: PeerRuntime,
}

/// Where a probe records its spans: the recorder and the operation.
type SpanSink<'a> = (&'a mut Tracer, u64);

impl Rig {
    fn new(
        system: &ZerberSystem,
        config: &ZerberConfig,
        groups: &GroupAssignments,
        live: &[Document],
        seed: u64,
    ) -> Self {
        let scheme = system.scheme().clone();
        let auth = Arc::new(TokenAuth::new());
        let servers: Vec<Arc<IndexServer>> = scheme
            .coordinates()
            .iter()
            .enumerate()
            .map(|(i, &x)| Arc::new(IndexServer::new(i as u32, x, auth.clone())))
            .collect();
        let owner_user = UserId(0x3FFF_0001);
        for server in &servers {
            for user in groups.users() {
                for group in groups.groups_of(user) {
                    server.add_user_to_group(user, group);
                }
            }
            for group in 0..TOPICS {
                server.add_user_to_group(owner_user, GroupId(group));
            }
        }
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let transport: Arc<dyn Transport> = runtime.transport().clone();
        let handles = servers
            .iter()
            .enumerate()
            .map(|(i, server)| {
                let node = NodeId::IndexServer(i as u32);
                let served = server.clone();
                runtime.spawn_peer(node, move || ServerService::new(served));
                Arc::new(RuntimeHandle::new(
                    transport.clone(),
                    NodeId::User(0),
                    node,
                    server.coordinate(),
                )) as Arc<dyn ServerHandle>
            })
            .collect();
        let mut rig = Self {
            codec: config.codec,
            scheme,
            table: Arc::new(system.table().clone()),
            threshold: config.threshold,
            owner: auth.issue(owner_user),
            auth,
            servers,
            handles,
            inventory: HashMap::new(),
            next_element: 0,
            rng: inputs::rng(seed, 12),
            decoded_elements: 0,
            problem: None,
            _runtime: runtime,
        };
        for doc in live {
            rig.insert(doc, None);
        }
        rig
    }

    /// Indexes one document the way an owner does: encode one element
    /// per distinct term, split them in one batch, insert one batch per
    /// server.
    fn insert(&mut self, doc: &Document, mut trace: Option<SpanSink<'_>>) {
        let mut secrets = Vec::with_capacity(doc.terms.len());
        let mut inventory = Vec::with_capacity(doc.terms.len());
        for &(term, count) in &doc.terms {
            let tf = if doc.length == 0 {
                0.0
            } else {
                f64::from(count) / f64::from(doc.length)
            };
            let element = PostingElement {
                doc: doc.id,
                term,
                tf_quantized: self.codec.quantize_tf(tf),
            };
            secrets.push(self.codec.encode(element).expect("corpus fits the codec"));
            inventory.push((self.table.lookup(term), ElementId(self.next_element)));
            self.next_element += 1;
        }
        let (scheme, rng) = (&self.scheme, &mut self.rng);
        let rows = match trace.as_mut() {
            Some((tracer, op)) => {
                tracer.time(*op, "shamir.split", || scheme.split_batch(&secrets, rng))
            }
            None => scheme.split_batch(&secrets, rng),
        };
        for (server, row) in self.servers.iter().zip(&rows) {
            let entries: Vec<(PlId, StoredShare)> = inventory
                .iter()
                .zip(row)
                .map(|(&(pl, element), &share)| {
                    (
                        pl,
                        StoredShare {
                            element,
                            group: doc.group,
                            share,
                        },
                    )
                })
                .collect();
            let owner = self.owner;
            let stored = match trace.as_mut() {
                Some((tracer, op)) => tracer.time(*op, "server.insert", || {
                    server.insert_batch(owner, &entries)
                }),
                None => server.insert_batch(owner, &entries),
            };
            if let Err(e) = stored {
                self.problem
                    .get_or_insert(format!("probe insert failed: {e}"));
            }
        }
        self.inventory.insert(doc.id, inventory);
    }

    /// Deletes one document element by element on every server.
    fn delete(&mut self, doc: DocId, tracer: &mut Tracer, op: u64) {
        let Some(inventory) = self.inventory.remove(&doc) else {
            return;
        };
        for server in &self.servers {
            let owner = self.owner;
            if let Err(e) = tracer.time(op, "server.delete", || server.delete(owner, &inventory)) {
                self.problem
                    .get_or_insert(format!("probe delete failed: {e}"));
            }
        }
    }

    /// Replays one query layer by layer and checks that it decodes the
    /// same matching elements the system returned.
    fn probe_query(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        user: UserId,
        terms: &[TermId],
        answer: &QueryOutcome,
    ) {
        let token = self.auth.issue(user);
        let mut pl_ids: Vec<PlId> = terms.iter().map(|&t| self.table.lookup(t)).collect();
        pl_ids.sort_unstable();
        pl_ids.dedup();
        let contacted = &self.handles[..self.threshold];

        let fetched = tracer.time(op, "client.fetch", || {
            std::thread::scope(|scope| {
                let pl_ids = &pl_ids;
                let fetches: Vec<_> = contacted
                    .iter()
                    .map(|server| scope.spawn(move || server.get_posting_lists(token, pl_ids)))
                    .collect();
                fetches
                    .into_iter()
                    .map(|f| f.join().expect("fetch thread"))
                    .collect::<Vec<_>>()
            })
        });
        let mut responses = Vec::with_capacity(fetched.len());
        for response in fetched {
            match response {
                Ok(lists) => responses.push(lists),
                Err(e) => {
                    self.problem
                        .get_or_insert(format!("probe fetch failed: {e}"));
                    return;
                }
            }
        }

        let server = &self.servers[0];
        let _ = tracer.time(op, "server.lookup", || {
            server.get_posting_lists(token, &pl_ids)
        });

        let message = Message::QueryResponse {
            lists: responses[0].clone(),
        };
        let decoded = tracer.time(op, "net.codec", || Message::decode(&message.encode()));
        if decoded.as_ref() != Ok(&message) {
            self.problem
                .get_or_insert("share response does not survive the wire codec".into());
        }

        let coordinates: Vec<Fp> = contacted.iter().map(|s| s.coordinate()).collect();
        let sums = tracer.time(op, "field.reconstruct", || {
            let weights = lagrange_weights_at_zero(&coordinates);
            let mut sums: HashMap<(PlId, ElementId), (Fp, usize)> = HashMap::new();
            for (weight, lists) in weights.iter().zip(&responses) {
                for (pl, shares) in lists {
                    for share in shares {
                        let entry = sums.entry((*pl, share.element)).or_insert((Fp::ZERO, 0));
                        entry.0 += share.share * *weight;
                        entry.1 += 1;
                    }
                }
            }
            sums
        });

        let threshold = self.threshold;
        let codec = self.codec;
        let elements: Vec<PostingElement> = tracer.time(op, "core.decode", || {
            sums.values()
                .filter(|&&(_, n)| n >= threshold)
                .filter_map(|&(sum, _)| codec.decode(sum).ok())
                .collect()
        });
        self.decoded_elements += elements.len() as u64;

        let wanted: HashSet<TermId> = terms.iter().copied().collect();
        let matching: Vec<PostingElement> = elements
            .into_iter()
            .filter(|e| wanted.contains(&e.term))
            .collect();
        let _ = tracer.time(op, "client.rank", || rank(&matching, &codec, terms, K));

        let key = |e: &PostingElement| (e.doc, e.term, e.tf_quantized);
        let mut mine: Vec<_> = matching.iter().map(key).collect();
        let mut theirs: Vec<_> = answer.matching_elements.iter().map(key).collect();
        mine.sort_unstable();
        theirs.sort_unstable();
        if mine != theirs {
            self.problem.get_or_insert(format!(
                "probe deployment decoded different elements than the system for {terms:?}"
            ));
        }
    }
}

/// Client-side ranking over the decoded elements: TF-IDF with
/// personalized statistics and a threshold top-k cut.
fn rank(
    elements: &[PostingElement],
    codec: &ElementCodec,
    terms: &[TermId],
    k: usize,
) -> Vec<RankedDoc> {
    let mut df: HashMap<TermId, usize> = HashMap::new();
    let mut visible: HashSet<DocId> = HashSet::new();
    for element in elements {
        *df.entry(element.term).or_insert(0) += 1;
        visible.insert(element.doc);
    }
    let lists: Vec<ScoredList> = terms
        .iter()
        .map(|&term| {
            let weight = idf(visible.len(), df.get(&term).copied().unwrap_or(0));
            ScoredList::new(
                elements
                    .iter()
                    .filter(|e| e.term == term)
                    .map(|e| (e.doc, e.term_frequency(codec) * weight))
                    .collect(),
            )
        })
        .collect();
    threshold_topk(&lists, k)
}
