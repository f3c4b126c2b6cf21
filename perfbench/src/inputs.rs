//! Seeded workload inputs. Everything a run feeds the program — the
//! corpus, the held-back documents, the memberships, the query logs
//! and the order of operations — is derived from the `--seed` value;
//! the program's own configuration (including `ZerberConfig::seed`)
//! stays at its defaults.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_corpus::querylog::{QueryShape, ShapedLogConfig, ShapedQuery, ShapedQueryLog};
use zerber_corpus::{GroupAssignments, OdpConfig, OdpCorpus, QueryLog, QueryLogConfig};
use zerber_index::{CorpusStats, Document};
use zerber_query::Query;

/// Result budget of every timed query.
pub const K: usize = 10;

/// Query popularity follows the document-frequency ranking exactly.
/// With the generator's default noise, each seed decides afresh how
/// heavy its few most popular queries are, and that one draw outweighs
/// everything else a run measures.
pub const RANK_NOISE: f64 = 0.0;

/// Share of the query-term ranking's head a shaped query never uses:
/// the 20 most frequent of the 20,000 query terms, each in most
/// documents — stopwords a search front end drops.
pub const STOPWORD_SHARE: f64 = 0.001;

/// Share of updates that insert a document; the rest delete one.
/// Inserts and deletes cost differently: with a near-even split the
/// write median falls between the two modes and jumps between runs.
pub const INSERT_SHARE: f64 = 0.9;

/// Topic groups of the ODP-like corpus (the paper's 100 topics).
pub const TOPICS: u32 = 100;

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Documents loaded before the timed phase.
    pub docs: usize,
    /// Documents generated with the corpus but kept back for inserts.
    pub held_back: usize,
    /// Vocabulary the corpus draws from.
    pub vocabulary: usize,
    /// Queries in each generated log (replayed cyclically).
    pub queries: usize,
    /// Distinct query terms in the logs.
    pub query_terms: usize,
    /// Users holding group memberships (confidential workload).
    pub users: u32,
    /// Deployments built to measure set-up time (`conf_search` runs on
    /// the last one, `shard_*` on the first).
    pub setups: usize,
    /// Answers compared against the reference after the timed phase.
    pub checked_answers: usize,
    /// Untimed queries per client that fill the result cache before a
    /// read-only timed phase.
    pub warmup_queries: usize,
    /// Timed writes of each write probe of a read-only workload (one on
    /// every deployment it builds). At the shard scale a probe fills
    /// each memtable to about two thirds of its flush threshold, so no
    /// flush or compaction lands inside it, whatever the seed.
    pub probe_writes: usize,
}

impl Scale {
    /// The confidential-search sizes.
    pub fn conf() -> Self {
        Self {
            docs: 10_000,
            held_back: 10_000,
            vocabulary: 120_000,
            queries: 100_000,
            query_terms: 20_000,
            users: 1_000,
            setups: 3,
            checked_answers: 24,
            warmup_queries: 0,
            probe_writes: 0,
        }
    }

    /// The sharded-serving sizes: large enough that block-max pruning
    /// skips a real share of the blocks.
    pub fn shard() -> Self {
        Self {
            docs: 20_000,
            held_back: 6_000,
            vocabulary: 120_000,
            queries: 200_000,
            query_terms: 20_000,
            users: 0,
            setups: 5,
            checked_answers: 24,
            warmup_queries: 1_500,
            probe_writes: 1_000,
        }
    }

    /// A seconds-long scale for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self {
            docs: 600,
            held_back: 300,
            vocabulary: 6_000,
            queries: 2_000,
            query_terms: 500,
            users: 50,
            setups: 2,
            checked_answers: 8,
            warmup_queries: 100,
            probe_writes: 100,
        }
    }
}

/// Independent sub-seeds for the inputs of one run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser over (seed, stream): distinct streams stay
    // uncorrelated even for adjacent seeds.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded RNG for one input stream.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// An ODP-like corpus split into the initial load and the held-back
/// documents later inserted live.
pub struct Corpus {
    /// Loaded during set-up.
    pub initial: Vec<Document>,
    /// Inserted during the run, in order.
    pub held_back: Vec<Document>,
    /// Statistics of the initial load.
    pub stats: CorpusStats,
    /// Statistics of the first 30% of the initial load (Section 7.5's
    /// learning prefix for the merge plan).
    pub prefix_stats: CorpusStats,
}

impl Corpus {
    /// Generates the corpus for `seed`.
    pub fn generate(scale: &Scale, seed: u64) -> Self {
        let mut corpus = OdpCorpus::generate(&OdpConfig {
            num_docs: scale.docs + scale.held_back,
            vocabulary_size: scale.vocabulary,
            num_topics: TOPICS,
            seed: sub_seed(seed, 1),
            ..OdpConfig::default()
        });
        let held_back = corpus.documents.split_off(scale.docs);
        let stats = corpus.statistics();
        let prefix_stats = corpus.prefix_statistics(0.3);
        Self {
            initial: corpus.documents,
            held_back,
            stats,
            prefix_stats,
        }
    }
}

/// The flat Zipf query log of the confidential workload.
pub fn flat_log(scale: &Scale, stats: &CorpusStats, seed: u64) -> QueryLog {
    QueryLog::generate(
        &QueryLogConfig {
            num_queries: scale.queries,
            distinct_terms: scale.query_terms,
            rank_noise: RANK_NOISE,
            seed: sub_seed(seed, 2),
            ..QueryLogConfig::default()
        },
        stats,
    )
}

/// One client's shaped Zipf log (Terms : And : Phrase = 6 : 3 : 1).
pub fn shaped_log(scale: &Scale, stats: &CorpusStats, seed: u64, client: u64) -> Vec<Query> {
    ShapedQueryLog::generate(
        &ShapedLogConfig {
            base: QueryLogConfig {
                num_queries: scale.queries,
                distinct_terms: scale.query_terms,
                rank_noise: RANK_NOISE,
                seed: sub_seed(seed, 100 + client),
                ..QueryLogConfig::default()
            },
            vocab_slice: (STOPWORD_SHARE, 1.0),
            ..ShapedLogConfig::default()
        },
        stats,
    )
    .queries
    .iter()
    .filter(|q| !q.terms.is_empty())
    .map(to_query)
    .collect()
}

/// The serving layer's query for one generated shaped query.
pub fn to_query(q: &ShapedQuery) -> Query {
    let terms = q.terms.clone();
    match q.shape {
        QueryShape::Terms => Query::Terms { terms, k: K },
        QueryShape::And => Query::And { terms, k: K },
        QueryShape::Phrase => Query::Phrase { terms, k: K },
    }
}

/// Zipf memberships of at most 20 groups per user (Section 7.4.1).
pub fn memberships(scale: &Scale, seed: u64) -> GroupAssignments {
    GroupAssignments::generate(scale.users, TOPICS, 20, sub_seed(seed, 3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let scale = Scale::tiny();
        let a = Corpus::generate(&scale, 7);
        let b = Corpus::generate(&scale, 7);
        let c = Corpus::generate(&scale, 8);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.held_back, b.held_back);
        assert_ne!(a.initial, c.initial);
        assert_eq!(
            shaped_log(&scale, &a.stats, 7, 0),
            shaped_log(&scale, &b.stats, 7, 0)
        );
    }
}
