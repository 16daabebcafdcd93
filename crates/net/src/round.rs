//! The encrypted query round across real OS processes.
//!
//! [`mycelium::run_query_encrypted`] executes the round as function
//! calls and [`mycelium::run_query_simulated`] as actors on a virtual
//! clock; this module executes the *same* round (same planning and
//! cryptographic building blocks from `mycelium::plan`) as separate
//! processes exchanging BGV ciphertexts, ZKP transcripts, and threshold
//! decryption shares over encrypted loopback TCP channels.
//!
//! ## Topology
//!
//! The **aggregator** is the only server (a hub). Devices, origins,
//! committee members, and the driver are its clients; the polls among
//! their requests are held at the server (see *Held polls*):
//!
//! * **Device processes** shard the per-vertex contribution duties:
//!   each encrypts its vertices' `x^e` monomials and pushes them
//!   (`PushContrib`) until acked, then exits.
//! * **Origin processes** shard the per-vertex origin work: each polls
//!   `PullOrigin` until the aggregator hands over the verified slot
//!   ciphertexts (or the contribution deadline passes and missing slots
//!   come back empty — the origin substitutes the neutral `Enc(x^0)`,
//!   §4.4), combines them, and submits.
//! * **Committee processes** poll `CommitteeCheckIn` (carrying their
//!   joint-noise seed); once the aggregate exists and the participant
//!   set is agreed, members receive a `CommitteeShareTask` and push
//!   their threshold decryption share.
//! * **The driver** spawns everyone, watches child exits (respawning a
//!   crashed origin once — all protocol state lives at the aggregator,
//!   so a respawned origin recovers by re-pulling), polls `PullStatus`,
//!   and merges every process's wire metrics into one JSON artifact.
//!
//! ## The aggregation core
//!
//! Every aggregation decision (intake and proof checks, the aggregate,
//! committee selection, threshold combine and noise, the certificate) is
//! made by [`mycelium::aggcore::AggCore`], the state machine the simnet
//! executor drives too. [`AggState`] adapts it to this executor: it maps
//! each [`NetMsg`] request onto a core input, reads the core's deadlines
//! off wall clocks, journals what the core applies (see *Durability*),
//! and keeps the state digest and the privacy-budget ledger.
//!
//! ## Held polls
//!
//! No client sleeps between polls. The server holds the four polls —
//! `PullOrigin`, `CommitteeCheckIn`, `PullStatus`, `PullShardStatus` —
//! while their answer is still "nothing yet" (`OriginPending`,
//! `CommitteeWait`): the worker waits on a condvar paired with the
//! state's mutex, notified after every handled request and by the main
//! loop's ticks, and answers as soon as the answer changes, or with
//! "nothing yet" after a fixed hold (250 ms, well inside every client io
//! deadline), upon which the client asks again. The hold lives in the
//! server's serve path only: [`AggState::handle`] stays non-blocking, a
//! held poll journals nothing beyond its first evaluation, and it is
//! never counted as a duplicate. The aggregator and shard main loops
//! wait on the same condvar, for at most 20 ms so wall-clock deadlines
//! still fire on time.
//!
//! ## Durability
//!
//! The aggregator's [`AggState`] is crash-durable: every accepted,
//! state-mutating request and every wall-clock phase transition is
//! logged to a write-ahead [`Journal`] (fsync'd before the reply goes
//! out), so a `kill -9` at any protocol step loses nothing. A respawned
//! aggregator replays the journal, rebuilds bit-identical state
//! (verified against embedded state-digest checkpoints), rebinds a
//! fresh port, and publishes it via the `agg.addr` file; clients
//! re-resolve the address whenever their retries exhaust. The chaos
//! supervisor in [`crate::chaos`] exercises exactly this path.
//!
//! ## Determinism
//!
//! Every process rebuilds the population, keys, key shares, query plan,
//! and all transport identities from the shared `(seed, n, query)`
//! arguments — no key material ever crosses the wire. Decryption is
//! exact, so the decoded pre-noise histogram depends only on the
//! population and query, never on encryption randomness: the
//! multi-process round is bit-identical to the in-process executor.
//! All requests are idempotent (first write wins at the aggregator), so
//! the client layer's at-least-once retry is safe — including across
//! aggregator respawns.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mycelium::aggcore::{
    AggConfig, AggCore, AggEnv, Deadlines, Delivery, HeldCt, MemberTask, Transition,
};
use mycelium::exec::{ExecStats, NoisyGroup};
use mycelium::params::SystemParams;
use mycelium::plan::{combine_origin, duties, origin_work, OriginWork, QueryPlan};
use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_budget::{BudgetError, Composition, EntryState, Ledger, LedgerEntry, LedgerOp};
use mycelium_cert::{render_json, sign_transcript, RoundCertificate, SlotStatus};
use mycelium_crypto::sha256::{sha256, Digest};
use mycelium_graph::generate::{
    epidemic_population, ContactGraphConfig, EpidemicConfig, Population,
};
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::analyze::cost_report;
use mycelium_query::ast::Query;
use mycelium_query::builtin::paper_query;
use mycelium_sharing::threshold::{decryption_share, DecryptionShare, KeyShareSet};

use crate::channel::Identity;
use crate::chaos::Supervised;
use crate::client::{Client, ClientConfig};
use crate::codec::{decode_plain_result, encode_plain_result, encode_share, CodecCtx};
use crate::error::NetError;
use crate::journal::{Journal, JournalError};
use crate::lock_recover;
use crate::metrics::NetMetrics;
use crate::proto::NetMsg;
use crate::server::{Handler, Server, ServerConfig};
use crate::wire::{Reader, Writer};

/// Transport role ids (feed [`Identity::derive`]).
pub mod role {
    /// The aggregator (the only server).
    pub const AGGREGATOR: u32 = 0;
    /// Device shard `i` is `DEVICE_BASE + i`.
    pub const DEVICE_BASE: u32 = 100;
    /// Origin shard `j` is `ORIGIN_BASE + j`.
    pub const ORIGIN_BASE: u32 = 200;
    /// Committee member `m` (1-based) is `COMMITTEE_BASE + m`.
    pub const COMMITTEE_BASE: u32 = 300;
    /// The driver.
    pub const DRIVER: u32 = 400;
    /// Aggregation shard `s` is `SHARD_BASE + s` (server towards
    /// devices/origins, client towards the coordinator).
    pub const SHARD_BASE: u32 = 500;
}

/// Rng stream bases (`StdRng::seed_from_u64(seed).with_stream(...)`).
///
/// Re-exported from [`mycelium::streams`]: the canonical stream layout is
/// shared with the simulated executor so both derive bit-identical
/// contributions, origin combines, and committee randomness — which is
/// what makes their round certificates byte-identical.
pub(crate) use mycelium::streams as stream;

/// The privacy-budget configuration of a multi-round session. Every
/// round of a session shares the same dataset, capacity, and
/// composition rule; the session write-ahead log at
/// [`RoundSpec::budget_wal`] carries the ledger across rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCfg {
    /// The dataset the ledger guards (the account name).
    pub dataset: String,
    /// Total epsilon capacity of the session.
    pub capacity: f64,
    /// Advanced-composition slack `δ` (ignored under basic composition).
    pub delta: f64,
    /// Whether to price homogeneous charge runs with advanced
    /// composition (`dp::composition::advanced_composition`).
    pub advanced: bool,
}

impl BudgetCfg {
    /// The composition rule this configuration selects.
    pub fn composition(&self) -> Composition {
        if self.advanced {
            Composition::Advanced { delta: self.delta }
        } else {
            Composition::Basic
        }
    }

    /// A fresh (empty) ledger for this configuration.
    pub fn ledger(&self) -> Result<Ledger, BudgetError> {
        Ledger::new(&self.dataset, self.capacity, self.composition())
    }

    /// Binding digest of the *session* budget WAL. Spans rounds, so it
    /// binds only the account parameters — never a round's seed, query,
    /// or index.
    pub fn wal_binding_digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_str("myc-budget-wal");
        w.put_str(&self.dataset);
        w.put_u64(self.capacity.to_bits());
        w.put_u64(self.delta.to_bits());
        w.put_u8(self.advanced as u8);
        sha256(&w.finish())
    }
}

/// Everything that defines one multi-process round; every process
/// derives identical state from it.
#[derive(Debug, Clone)]
pub struct RoundSpec {
    /// Master seed for population, keys, identities, and noise.
    pub seed: u64,
    /// Population size (every vertex is a device and an origin).
    pub n: usize,
    /// Paper query name (e.g. `Q4`).
    pub query: String,
    /// Number of device processes the contribution duties shard over.
    pub device_shards: usize,
    /// Number of origin processes the origin work shards over.
    pub origin_shards: usize,
    /// Number of aggregation-plane intake shards. `1` runs the classic
    /// single-hub aggregator; `>= 2` runs that many `AggShard` servers
    /// plus a thin coordinator that combines their sealed roots.
    pub agg_shards: usize,
    /// Whether contributions carry well-formedness proofs.
    pub with_proofs: bool,
    /// This round's index within its budget session (0 for standalone
    /// rounds). The ledger keys every admit/charge/refund/refuse
    /// decision by it.
    pub round: u32,
    /// The session budget configuration; `None` runs unmetered.
    pub budget: Option<BudgetCfg>,
    /// Path of the session budget WAL (defaults to `budget.wal` in the
    /// round's `--out` directory, which only suits single-round
    /// sessions — multi-round sessions with per-round out dirs must
    /// point every round at one shared file).
    pub budget_wal: Option<PathBuf>,
    /// How long origins may wait for missing contributions.
    pub contrib_deadline: Duration,
    /// Hard wall-clock cap on the whole round.
    pub round_timeout: Duration,
    /// Per-request client I/O deadline (read/handshake). A stalled peer
    /// becomes a typed timeout after this long; net-chaos runs shrink it
    /// so slow-loris faults resolve quickly.
    pub io_timeout: Duration,
    /// Deterministic link-fault injection: when set, every server wraps
    /// itself in a [`crate::netchaos::ChaosProxy`] replaying the plan
    /// this profile derives, and publishes the *proxy* address.
    pub net: Option<crate::netchaos::NetProfile>,
}

impl Default for RoundSpec {
    fn default() -> Self {
        RoundSpec {
            seed: 7,
            n: 24,
            query: "Q4".into(),
            device_shards: 8,
            origin_shards: 2,
            agg_shards: 1,
            with_proofs: false,
            round: 0,
            budget: None,
            budget_wal: None,
            contrib_deadline: Duration::from_secs(30),
            round_timeout: Duration::from_secs(600),
            io_timeout: Duration::from_secs(20),
            net: None,
        }
    }
}

impl RoundSpec {
    /// Renders the spec as CLI arguments (the driver → child interface).
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--seed".into(),
            self.seed.to_string(),
            "--n".into(),
            self.n.to_string(),
            "--query".into(),
            self.query.clone(),
            "--devices".into(),
            self.device_shards.to_string(),
            "--origins".into(),
            self.origin_shards.to_string(),
            "--shards".into(),
            self.agg_shards.to_string(),
            "--proofs".into(),
            (self.with_proofs as u8).to_string(),
            "--contrib-ms".into(),
            self.contrib_deadline.as_millis().to_string(),
            "--timeout-ms".into(),
            self.round_timeout.as_millis().to_string(),
            "--io-ms".into(),
            self.io_timeout.as_millis().to_string(),
        ];
        match &self.net {
            None => {}
            Some(crate::netchaos::NetProfile::Seeded(s)) => {
                args.push("--net-seed".into());
                args.push(s.to_string());
            }
            Some(crate::netchaos::NetProfile::Drill) => {
                args.push("--net-drill".into());
            }
        }
        if self.round != 0 {
            args.push("--round".into());
            args.push(self.round.to_string());
        }
        if let Some(b) = &self.budget {
            args.push("--budget-dataset".into());
            args.push(b.dataset.clone());
            args.push("--budget-capacity".into());
            args.push(b.capacity.to_string());
            args.push("--budget-delta".into());
            args.push(b.delta.to_string());
            args.push("--budget-advanced".into());
            args.push((b.advanced as u8).to_string());
        }
        if let Some(p) = &self.budget_wal {
            args.push("--budget-wal".into());
            args.push(p.display().to_string());
        }
        args
    }

    /// Digest binding a write-ahead journal to this round's *state*
    /// configuration. Timing knobs (deadlines, timeouts) are
    /// deliberately excluded: a respawn may retune them without
    /// invalidating the journaled protocol state.
    pub fn binding_digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_u64(self.seed);
        w.put_u64(self.n as u64);
        w.put_str(&self.query);
        w.put_u64(self.device_shards as u64);
        w.put_u64(self.origin_shards as u64);
        w.put_u8(self.with_proofs as u8);
        // Budget-session extension. A plain round 0 without a budget
        // appends nothing, so pre-budget journals stay byte-compatible.
        if self.round != 0 || self.budget.is_some() {
            w.put_u32(self.round);
            match &self.budget {
                None => w.put_u8(0),
                Some(b) => {
                    w.put_u8(1);
                    w.put_str(&b.dataset);
                    w.put_u64(b.capacity.to_bits());
                    w.put_u64(b.delta.to_bits());
                    w.put_u8(b.advanced as u8);
                }
            }
        }
        sha256(&w.finish())
    }

    /// Journal binding for aggregation shard `shard`: the round binding
    /// with the shard id *and* the shard count mixed in, so a journal
    /// partition can never be replayed into the wrong shard or into a
    /// run with a different shard layout.
    pub fn shard_binding_digest(&self, shard: u32) -> Digest {
        let mut w = Writer::new();
        w.put_bytes(&self.binding_digest());
        w.put_str("agg-shard");
        w.put_u32(shard);
        w.put_u64(self.agg_shards as u64);
        sha256(&w.finish())
    }

    /// Journal binding for the aggregation plane's hub process. At one
    /// shard this is the classic [`RoundSpec::binding_digest`] (the
    /// pre-refactor single-hub journal stays byte-compatible); above it
    /// the coordinator binds the shard count so a single-hub journal
    /// can never masquerade as a sharded-run coordinator journal.
    pub fn coordinator_binding_digest(&self) -> Digest {
        if self.agg_shards <= 1 {
            return self.binding_digest();
        }
        let mut w = Writer::new();
        w.put_bytes(&self.binding_digest());
        w.put_str("coordinator");
        w.put_u64(self.agg_shards as u64);
        sha256(&w.finish())
    }
}

pub use mycelium::summation::shard_of;

pub use mycelium::plan::Duty;

/// Deterministically derived shared state.
pub struct RoundSetup {
    /// The spec everything is derived from.
    pub spec: RoundSpec,
    /// Figure-4 system parameters (committee size, BGV params, ε).
    pub params: SystemParams,
    /// The population under query.
    pub pop: Population,
    /// The parsed query.
    pub query: Query,
    /// BGV keys (every process derives the same set).
    pub keys: KeySet,
    /// Shamir shares of the secret key.
    pub key_shares: KeyShareSet,
    /// The query plan.
    pub plan: QueryPlan,
    /// Per-vertex origin work.
    pub works: Vec<OriginWork>,
    /// Per-vertex contribution duties (inverse of `works`).
    pub duties: Vec<Vec<Duty>>,
    /// Codec context for the plan's parameters.
    pub cc: CodecCtx,
    /// Committee size `c`.
    pub committee_size: usize,
    /// Shamir threshold `t` (`t + 1` participants decrypt).
    pub threshold: usize,
}

impl RoundSetup {
    /// The aggregator's transport identity.
    pub fn aggregator_identity(&self) -> Identity {
        Identity::derive(self.spec.seed, role::AGGREGATOR)
    }

    /// The full client roster (device, origin, committee, driver keys).
    pub fn roster(&self) -> std::collections::HashSet<[u8; 32]> {
        let mut r = std::collections::HashSet::new();
        for i in 0..self.spec.device_shards {
            r.insert(Identity::derive(self.spec.seed, role::DEVICE_BASE + i as u32).public);
        }
        for j in 0..self.spec.origin_shards {
            r.insert(Identity::derive(self.spec.seed, role::ORIGIN_BASE + j as u32).public);
        }
        for m in 1..=self.committee_size as u32 {
            r.insert(Identity::derive(self.spec.seed, role::COMMITTEE_BASE + m).public);
        }
        if self.spec.agg_shards > 1 {
            // Shards are clients of the coordinator.
            for s in 0..self.spec.agg_shards {
                r.insert(Identity::derive(self.spec.seed, role::SHARD_BASE + s as u32).public);
            }
        }
        r.insert(Identity::derive(self.spec.seed, role::DRIVER).public);
        r
    }

    /// Aggregation shard `s`'s transport identity.
    pub fn shard_identity(&self, shard: usize) -> Identity {
        Identity::derive(self.spec.seed, role::SHARD_BASE + shard as u32)
    }
}

/// Builds the population exactly as the repository's round tests do, so
/// oracle comparisons line up.
pub fn build_population(spec: &RoundSpec) -> Population {
    let cfg = ContactGraphConfig {
        n: spec.n,
        degree_bound: 4,
        mean_household: 3,
        community_edges: 2,
        subway_fraction: 0.2,
        days: 13,
    };
    let epi = EpidemicConfig {
        seed_fraction: 0.08,
        household_rate: 0.10,
        community_rate: 0.02,
        days: 13,
    };
    epidemic_population(&cfg, &epi, &mut StdRng::seed_from_u64(spec.seed))
}

/// Derives the full shared setup from a spec. Failures here are
/// configuration errors (unknown query, query too large for the ring),
/// not wire input, so they surface as [`NetError::Decode`].
pub fn build_setup(spec: &RoundSpec) -> Result<RoundSetup, NetError> {
    let params = SystemParams::simulation();
    let pop = build_population(spec);
    let query = paper_query(&spec.query)
        .ok_or_else(|| NetError::Decode(format!("unknown paper query {}", spec.query)))?;
    // Only origins relinearize, so only they pay for the relin keys.
    let keys_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::KEYS);
    let keys = KeySet::with_deferred_relin(&params.bgv, keys_rng);
    let c = params.committee_size;
    let t = c / 2;
    let mut deal_rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::DEAL);
    let key_shares = KeyShareSet::deal(&keys.secret, t, c, &mut deal_rng);
    let plan = QueryPlan::new(&query, &pop, &params, spec.with_proofs)
        .map_err(|e| NetError::Decode(format!("query planning failed: {e}")))?;
    let n = pop.graph.len();
    let works: Vec<OriginWork> = (0..n)
        .map(|v| origin_work(&plan, &query, &params, &pop, v as VertexId))
        .collect();
    let duties = duties(&works);
    // The codec must decode into the *same* RNS context the keys carry:
    // `RnsPoly` arithmetic requires pointer-identical contexts.
    let cc = CodecCtx::with_context(Arc::clone(keys.public.context()), &params.bgv);
    Ok(RoundSetup {
        spec: spec.clone(),
        params,
        pop,
        query,
        keys,
        key_shares,
        plan,
        works,
        duties,
        cc,
        committee_size: c,
        threshold: t,
    })
}

pub use mycelium::aggcore::RoundOutcome;

/// Serializes an outcome (the aggregator → driver/test file format).
pub fn encode_outcome(out: Result<&RoundOutcome, &str>) -> Vec<u8> {
    let mut w = Writer::new();
    match out {
        Err(e) => {
            w.put_u8(0);
            w.put_str(e);
        }
        Ok(out) => {
            w.put_u8(1);
            encode_plain_result(&mut w, &out.exact);
            w.put_u32(out.released.len() as u32);
            for g in &out.released {
                w.put_str(&g.label);
                w.put_u32(g.histogram.len() as u32);
                for &v in &g.histogram {
                    w.put_i64(v);
                }
            }
            w.put_u32(out.rejected.len() as u32);
            for &v in &out.rejected {
                w.put_u32(v);
            }
        }
    }
    w.finish()
}

/// Deserializes an outcome file.
pub fn decode_outcome(bytes: &[u8]) -> Result<Result<RoundOutcome, String>, NetError> {
    let mut r = Reader::new(bytes);
    match r.get_u8()? {
        0 => Ok(Err(r.get_str()?)),
        1 => {
            let exact = decode_plain_result(&mut r)?;
            let ng = r.get_u32()? as usize;
            let mut released = Vec::with_capacity(ng);
            for _ in 0..ng {
                let label = r.get_str()?;
                let nh = r.get_u32()? as usize;
                let mut histogram = Vec::with_capacity(nh);
                for _ in 0..nh {
                    histogram.push(r.get_i64()?);
                }
                released.push(NoisyGroup { label, histogram });
            }
            let nr = r.get_u32()? as usize;
            let mut rejected = Vec::with_capacity(nr);
            for _ in 0..nr {
                rejected.push(r.get_u32()?);
            }
            Ok(Ok(RoundOutcome {
                exact,
                released,
                rejected,
            }))
        }
        v => Err(NetError::Decode(format!("bad outcome tag {v}"))),
    }
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

/// Journal record tags (first payload byte of every record).
mod rec {
    /// An accepted state-mutating request (body = `NetMsg` encoding).
    pub const REQ: u8 = 1;
    /// Wall-clock transition: form the aggregate (missing → `Enc(0)`).
    pub const AGGREGATE: u8 = 2;
    /// Wall-clock transition: select the decryption participants.
    pub const SELECT: u8 = 3;
    /// Wall-clock transition: reselect after share stragglers.
    pub const RESELECT: u8 = 4;
    /// Terminal typed failure (body = UTF-8 message).
    pub const FAIL: u8 = 5;
    /// State-digest checkpoint (body = 32-byte [`AggState::digest`]).
    pub const DIGEST: u8 = 6;
    /// Wall-clock transition: freeze the per-origin certificate
    /// commitments (body = 32-byte commitment-plane digest, so a replay
    /// that re-derives a different tree is a typed divergence). Always
    /// journaled *before* [`AGGREGATE`]: commitment-then-seal is the
    /// ordering that makes late contributions unable to move the tree.
    pub const COMMIT: u8 = 7;
    /// Wall-clock transition: seal the round certificate with whatever
    /// committee signatures arrived.
    pub const SEAL: u8 = 8;
    /// A privacy-budget ledger decision (body = canonical
    /// [`LedgerOp`](mycelium_budget::LedgerOp) encoding). Replay
    /// re-applies the op, so a recovered aggregator re-derives the
    /// bit-identical ledger — including refusals.
    pub const BUDGET: u8 = 9;
}

/// Append a digest checkpoint after this many undigested records.
const DIGEST_EVERY: u32 = 8;
/// How long a finished aggregator waits for committee members to observe
/// `Finished` before giving up on stragglers and exiting anyway.
const FINISH_GRACE: Duration = Duration::from_secs(10);

/// Deterministic fault injection knobs for [`run_aggregator`] — the
/// chaos drill's way of dying at an exact protocol step.
#[derive(Debug, Clone, Default)]
pub struct AggFaults {
    /// Abort (a `kill -9` stand-in: no cleanup, no flush) right after
    /// the `N`th successfully handled — journaled, applied, fsync'd,
    /// but **not yet answered** — message of the given kind.
    pub die_after: Option<(String, u32)>,
    /// Abort mid-`write(2)` of the `N`th journaled record, leaving a
    /// torn tail for the next incarnation to truncate.
    pub die_mid_journal: Option<u32>,
}

/// Which role in the aggregation plane an [`AggState`] is playing.
pub use mycelium::aggcore::AggMode;

impl AggEnv for RoundSetup {
    fn plan(&self) -> &QueryPlan {
        &self.plan
    }
    fn keys(&self) -> &KeySet {
        &self.keys
    }
    fn query(&self) -> &Query {
        &self.query
    }
    fn works(&self) -> &[OriginWork] {
        &self.works
    }
}

/// The aggregator's entire protocol state: the [`AggCore`] plus what
/// makes it crash-durable. Every mutation is journaled before the reply,
/// and [`AggState::recover`] rebuilds an identical state from the
/// journal.
pub struct AggState {
    setup: Arc<RoundSetup>,
    core: AggCore,
    who: String,
    // Wall clocks behind the core's deadlines (not journaled: a restart
    // restarts them).
    started: Instant,
    share_deadline: Option<Instant>,
    cert_since: Option<Instant>,
    // Privacy budget (None when the round runs unmetered or in a
    // Shard-mode process, which never meters).
    ledger: Option<Ledger>,
    budget_wal: Option<Journal>,
    session_ops: BTreeSet<Vec<u8>>,
    round_budget_ops: Vec<Vec<u8>>,
    // Liveness bookkeeping, not journaled: who has seen the round
    // finish, and how many already-applied writes arrived again
    // (at-least-once redelivery absorbed by the first-write-wins rule;
    // reconciled against the injected fault plan by the net-chaos
    // harness).
    finished_seen: BTreeSet<u64>,
    finished_shards: BTreeSet<u32>,
    driver_seen: bool,
    duplicates_suppressed: u64,
    // Durability.
    journal: Option<Journal>,
    replaying: bool,
    dirty: bool,
    undigested: u32,
    digest_due: bool,
    mutating_appends: u32,
    die_mid_journal: Option<u32>,
}

impl AggState {
    /// Fresh (empty) state for this round's aggregation-plane hub
    /// process: the classic single hub at one shard, the coordinator
    /// above that.
    pub fn new(setup: Arc<RoundSetup>) -> Self {
        let mode = AggMode::hub_process(setup.spec.agg_shards);
        Self::with_mode(setup, mode)
    }

    /// Fresh (empty) state for aggregation shard `shard`.
    pub fn new_shard(setup: Arc<RoundSetup>, shard: u32) -> Self {
        let mode = AggMode::shard(shard, setup.spec.agg_shards, setup.pop.graph.len());
        Self::with_mode(setup, mode)
    }

    fn with_mode(setup: Arc<RoundSetup>, mode: AggMode) -> Self {
        let (who, ledger) = match &mode {
            AggMode::Shard { shard, .. } => (format!("agg-shard-{shard}"), None),
            _ => (
                "aggregator".to_string(),
                setup.spec.budget.as_ref().and_then(|cfg| cfg.ledger().ok()),
            ),
        };
        let cfg = AggConfig {
            seed: setup.spec.seed,
            with_proofs: setup.spec.with_proofs,
            committee_size: setup.committee_size,
            threshold: setup.threshold,
            epsilon: setup.params.epsilon,
        };
        AggState {
            core: AggCore::new(&*setup, cfg, mode),
            who,
            started: Instant::now(),
            share_deadline: None,
            cert_since: None,
            ledger,
            budget_wal: None,
            session_ops: BTreeSet::new(),
            round_budget_ops: Vec::new(),
            finished_seen: BTreeSet::new(),
            finished_shards: BTreeSet::new(),
            driver_seen: false,
            duplicates_suppressed: 0,
            journal: None,
            replaying: false,
            dirty: false,
            undigested: 0,
            digest_due: false,
            mutating_appends: 0,
            die_mid_journal: None,
            setup,
        }
    }

    /// Opens (or creates) the journal at `path` and replays every
    /// recorded event, rebuilding the exact pre-crash state. Embedded
    /// digest checkpoints are verified along the way — a divergent
    /// replay is a typed [`JournalError::StateDiverged`], never a
    /// silently wrong round.
    pub fn recover(setup: Arc<RoundSetup>, path: &Path) -> Result<Self, NetError> {
        let binding = setup.spec.coordinator_binding_digest();
        Self::recover_as(AggState::new(setup), &binding, path)
    }

    /// [`AggState::recover`] for aggregation shard `shard`: same replay
    /// machinery against the shard's own WAL partition, whose binding
    /// digest carries the shard id and shard count.
    pub fn recover_shard(
        setup: Arc<RoundSetup>,
        shard: u32,
        path: &Path,
    ) -> Result<Self, NetError> {
        let binding = setup.spec.shard_binding_digest(shard);
        Self::recover_as(AggState::new_shard(setup, shard), &binding, path)
    }

    fn recover_as(mut st: AggState, binding: &Digest, path: &Path) -> Result<Self, NetError> {
        let (journal, records) = Journal::open_or_create(path, binding)?;
        st.replaying = true;
        for (seq, record) in records.iter().enumerate() {
            st.apply_record(record, seq as u64)?;
        }
        st.replaying = false;
        st.journal = Some(journal);
        // Wall-clock deadlines do not survive a crash: restart them so
        // straggler detection (and the one reselect) still fires.
        st.started = Instant::now();
        if !st.core.participants().is_empty() && st.core.outcome().is_none() {
            st.share_deadline = Some(Instant::now() + st.share_wait());
        }
        if !records.is_empty() {
            eprintln!("{}: replayed {} journal records", st.who, records.len());
        }
        Ok(st)
    }

    /// This process's log label (`aggregator` or `agg-shard-N`).
    pub fn who(&self) -> &str {
        &self.who
    }

    /// Installs the chaos fault knobs (see [`AggFaults`]).
    pub fn set_faults(&mut self, faults: &AggFaults) {
        self.die_mid_journal = faults.die_mid_journal;
    }

    /// Digest of the protocol state: everything replay must reproduce.
    ///
    /// Wall-clock fields (`started`, `share_deadline`) and liveness
    /// bookkeeping (`finished_seen`, `driver_seen`) are excluded — they
    /// are legitimately different after a restart.
    ///
    /// Held ciphertexts enter as their cached [`ciphertext_digest`], so
    /// a checkpoint costs O(slots), not O(stored ciphertext bytes).
    ///
    /// [`ciphertext_digest`]: mycelium::plan::ciphertext_digest
    pub fn digest(&self) -> Digest {
        self.digest_with(|held| *held.digest())
    }

    /// The [`AggState::digest`] byte stream, with each held ciphertext
    /// represented by `ct_digest` of it.
    fn digest_with(&self, ct_digest: impl Fn(&HeldCt) -> Digest) -> Digest {
        let core = &self.core;
        let mut w = Writer::new();
        let put_opt_ct = |w: &mut Writer, held: Option<&HeldCt>| match held {
            None => w.put_u8(0),
            Some(held) => {
                w.put_u8(1);
                w.put_bytes(&ct_digest(held));
            }
        };
        for slots in core.contribs() {
            for s in slots {
                put_opt_ct(&mut w, s.as_ref());
            }
        }
        w.put_u32(core.seen().len() as u32);
        for &(o, s) in core.seen() {
            w.put_u32(o);
            w.put_u32(s);
        }
        w.put_u32(core.rejected().len() as u32);
        for &v in core.rejected() {
            w.put_u32(v);
        }
        for s in core.submissions() {
            put_opt_ct(&mut w, s.as_ref());
        }
        w.put_u64(core.got_submissions() as u64);
        put_opt_ct(&mut w, core.aggregate());
        for p in core.pongs() {
            match p {
                None => w.put_u8(0),
                Some(seed) => {
                    w.put_u8(1);
                    w.put_bytes(seed);
                }
            }
        }
        w.put_u32(core.share_round());
        w.put_u32(core.participants().len() as u32);
        for &m in core.participants() {
            w.put_u64(m);
        }
        w.put_u8(core.reselected() as u8);
        for s in core.shares() {
            match s {
                None => w.put_u8(0),
                Some(share) => {
                    w.put_u8(1);
                    encode_share(&mut w, share);
                }
            }
        }
        match self.outcome_bytes() {
            None => w.put_u8(0),
            Some(bytes) => {
                w.put_u8(1);
                w.put_bytes(&bytes);
            }
        }
        w.put_u32(core.statuses().len() as u32);
        for (&(o, s), status) in core.statuses() {
            w.put_u32(o);
            w.put_u32(s);
            match status {
                SlotStatus::Missing => w.put_u8(0),
                SlotStatus::Rejected => w.put_u8(1),
                SlotStatus::Accepted(d) => {
                    w.put_u8(2);
                    w.put_bytes(d);
                }
            }
        }
        w.put_u8(core.commits_frozen() as u8);
        w.put_bytes(&self.commit_digest());
        match core.transcript() {
            None => w.put_u8(0),
            Some(transcript) => {
                w.put_u8(1);
                w.put_bytes(transcript);
            }
        }
        for s in core.cert_sigs() {
            match s {
                None => w.put_u8(0),
                Some(sig) => {
                    w.put_u8(1);
                    w.put_bytes(sig);
                }
            }
        }
        w.put_u8(core.cert_sealed() as u8);
        match core.certificate() {
            None => w.put_u8(0),
            Some(bytes) => {
                w.put_u8(1);
                w.put_bytes(&sha256(bytes));
            }
        }
        // Ledger state rides the same digest chain: a replay that
        // re-derives a different budget decision is a typed divergence,
        // exactly like any other protocol-state mismatch. Absent ledger
        // appends nothing, keeping pre-budget journals byte-compatible.
        if let Some(ledger) = &self.ledger {
            w.put_u8(1);
            w.put_bytes(&ledger.digest());
            w.put_u64(core.charged_epsilon().to_bits());
        }
        sha256(&w.finish())
    }

    /// Digest of the frozen commitment plane (the [`rec::COMMIT`] record
    /// body): replay re-derives the commitments from the journaled
    /// intake and must land on the same tree.
    fn commit_digest(&self) -> Digest {
        let mut w = Writer::new();
        w.put_u32(self.core.commits().len() as u32);
        for cmt in self.core.commits() {
            match cmt {
                None => w.put_u8(0),
                Some(cm) => {
                    w.put_u8(1);
                    w.put_u32(cm.origin);
                    w.put_bytes(&cm.leaf);
                    w.put_u32(cm.accepted);
                    w.put_u32(cm.rejected);
                }
            }
        }
        sha256(&w.finish())
    }

    /// The decided outcome in the [`files::OUTCOME`] encoding.
    fn outcome_bytes(&self) -> Option<Vec<u8>> {
        self.core.outcome().map(|out| match out {
            Ok(out) => encode_outcome(Ok(out)),
            Err(failure) => encode_outcome(Err(&failure.to_string())),
        })
    }

    fn share_wait(&self) -> Duration {
        self.setup
            .spec
            .contrib_deadline
            .max(Duration::from_secs(10))
    }

    /// The core's deadlines, read off this process's wall clocks.
    fn deadlines(&self) -> Deadlines {
        let submit_deadline = self.setup.spec.contrib_deadline * 2;
        let elapsed = self.started.elapsed();
        Deadlines {
            intake: elapsed >= submit_deadline,
            checkin: elapsed >= submit_deadline + Duration::from_secs(5),
            shares: self.share_deadline.is_some_and(|d| Instant::now() >= d),
            signatures: self
                .cert_since
                .is_some_and(|since| since.elapsed() >= self.share_wait()),
        }
    }

    // --- journaling ------------------------------------------------------

    /// Appends one record (not yet durable; see [`AggState::flush`]).
    fn append_record(&mut self, record: &[u8]) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        self.mutating_appends += 1;
        if self.die_mid_journal == Some(self.mutating_appends) {
            // Chaos: die mid-write(2). Persist a record prefix, then
            // abort without flushing anything else — the next
            // incarnation must truncate the torn tail.
            j.arm_torn_write(record.len() / 2 + 2);
            let _ = j.append(record);
            eprintln!(
                "{}: chaos kill mid-journal-write (record {})",
                self.who, self.mutating_appends
            );
            std::process::abort();
        }
        j.append(record)?;
        self.dirty = true;
        self.undigested += 1;
        Ok(())
    }

    /// Appends a record of tag `tag` with body `body`.
    fn append_tagged(&mut self, tag: u8, body: &[u8]) -> Result<(), NetError> {
        let mut record = Vec::with_capacity(1 + body.len());
        record.push(tag);
        record.extend_from_slice(body);
        self.append_record(&record)
    }

    /// Makes every appended record durable, inserting a state-digest
    /// checkpoint at phase transitions and every [`DIGEST_EVERY`]
    /// records. Called once per handled request — one fsync covers the
    /// request plus any transitions it unlocked.
    fn flush(&mut self) -> Result<(), NetError> {
        if self.replaying || !self.dirty {
            return Ok(());
        }
        if self.digest_due || self.undigested >= DIGEST_EVERY {
            self.append_tagged(rec::DIGEST, &self.digest())?;
            self.undigested = 0;
            self.digest_due = false;
        }
        if let Some(j) = self.journal.as_mut() {
            j.commit()?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Replays one journal record during [`AggState::recover`]: requests
    /// are re-applied, transition marks re-applied as the transition
    /// they record.
    fn apply_record(&mut self, record: &[u8], seq: u64) -> Result<(), NetError> {
        let Some((&tag, body)) = record.split_first() else {
            return Err(JournalError::Replay {
                seq,
                why: "empty record".into(),
            }
            .into());
        };
        let diverged = |want: Digest, got: Digest| JournalError::StateDiverged {
            at_records: seq,
            want,
            got,
        };
        match tag {
            rec::REQ => {
                let msg = NetMsg::decode(body, &self.setup.cc)?;
                self.apply(msg).map_err(|e| JournalError::Replay {
                    seq,
                    why: e.to_string(),
                })?;
            }
            rec::AGGREGATE => self.apply_transition(Transition::Aggregate),
            rec::SELECT => self.apply_transition(Transition::Select),
            rec::RESELECT => self.apply_transition(Transition::Reselect),
            rec::FAIL => self.apply_transition(Transition::GiveUp),
            rec::SEAL => self.apply_transition(Transition::Seal),
            rec::COMMIT => {
                let want: Digest = body.try_into().map_err(|_| JournalError::Replay {
                    seq,
                    why: format!("commitment freeze of {} bytes", body.len()),
                })?;
                self.apply_transition(Transition::Commit);
                let got = self.commit_digest();
                if got != want {
                    return Err(diverged(want, got).into());
                }
            }
            rec::BUDGET => {
                let op = LedgerOp::decode(body).map_err(|e| JournalError::Replay {
                    seq,
                    why: format!("budget record: {e}"),
                })?;
                self.apply_budget_op(&op)
                    .map_err(|e| JournalError::Replay {
                        seq,
                        why: format!("budget record: {e}"),
                    })?;
                self.round_budget_ops.push(body.to_vec());
            }
            rec::DIGEST => {
                let want: Digest = body.try_into().map_err(|_| JournalError::Replay {
                    seq,
                    why: format!("digest checkpoint of {} bytes", body.len()),
                })?;
                let got = self.digest();
                if got != want {
                    return Err(diverged(want, got).into());
                }
            }
            other => {
                return Err(JournalError::Replay {
                    seq,
                    why: format!("unknown record tag {other}"),
                }
                .into())
            }
        }
        Ok(())
    }

    // --- privacy budget --------------------------------------------------

    /// Applies one ledger decision to in-memory state, mirroring its
    /// round-local side effects: an `Admit` of *this* round pins the
    /// epsilon the certificate will carry; a `Refuse` of this round is
    /// the round's terminal failure. Decisions about other rounds of
    /// the session only move the ledger.
    fn apply_budget_op(&mut self, op: &LedgerOp) -> Result<(), BudgetError> {
        let Some(ledger) = self.ledger.as_mut() else {
            return Err(BudgetError::InvalidParameter(
                "budget op without a ledger".into(),
            ));
        };
        ledger.apply(op)?;
        match op {
            LedgerOp::Admit(entry) if entry.round == self.setup.spec.round => {
                self.core.set_charged_epsilon(entry.cost.epsilon);
            }
            LedgerOp::Refuse { entry, remaining } if entry.round == self.setup.spec.round => {
                self.core.abort(format!(
                    "budget exhausted: requested epsilon {}, remaining {}",
                    entry.cost.epsilon, remaining
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Journals one ledger decision into the round journal (live only)
    /// and remembers its bytes for session-WAL reconciliation. The
    /// record forces a digest checkpoint, so replay divergence in the
    /// ledger is caught at the very next flush.
    fn record_budget_op(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.digest_due = true;
        self.append_tagged(rec::BUDGET, bytes)?;
        self.round_budget_ops.push(bytes.to_vec());
        Ok(())
    }

    /// Opens the session budget WAL, reconciles it with this round's
    /// replayed journal (the union of their ledger decisions — a crash
    /// between the two fsyncs can leave either side ahead), and decides
    /// this round's admission against the reconciled ledger.
    ///
    /// Idempotent across recoveries: [`Ledger::decide`] re-proposes a
    /// byte-identical op for an already-decided round, and both logs
    /// deduplicate by exact record bytes.
    pub fn install_budget(&mut self, wal_path: &Path) -> Result<(), NetError> {
        let Some(cfg) = self.setup.spec.budget.clone() else {
            return Ok(());
        };
        if matches!(self.core.mode(), AggMode::Shard { .. }) {
            return Ok(());
        }
        let budget_err = |e: BudgetError| NetError::Decode(format!("budget: {e}"));
        // Re-validate the configuration with a typed error (state
        // construction swallowed it to stay infallible).
        if self.ledger.is_none() {
            cfg.ledger().map_err(budget_err)?;
        }
        let (mut wal, records) = Journal::open_or_create(wal_path, &cfg.wal_binding_digest())?;
        let mut session_ops: BTreeSet<Vec<u8>> = BTreeSet::new();
        {
            // Replay the session WAL into a scratch ledger purely to
            // reject a corrupt or foreign log with a typed error.
            let mut session = cfg.ledger().map_err(budget_err)?;
            for bytes in &records {
                let op = LedgerOp::decode(bytes).map_err(budget_err)?;
                session.apply(&op).map_err(budget_err)?;
                session_ops.insert(bytes.clone());
            }
        }
        // Ops this round journaled that the WAL lost (crash between the
        // round-journal fsync and the WAL fsync): push them back.
        for bytes in self.round_budget_ops.clone() {
            if session_ops.contains(&bytes) {
                continue;
            }
            wal.append(&bytes)?;
            session_ops.insert(bytes);
        }
        // Ops earlier session rounds recorded that this round's journal
        // has not seen: seed them in, journaled, so replay of this
        // round's journal stays self-contained.
        let round_ops: BTreeSet<Vec<u8>> = self.round_budget_ops.iter().cloned().collect();
        for bytes in &records {
            if round_ops.contains(bytes) {
                continue;
            }
            let op = LedgerOp::decode(bytes).map_err(budget_err)?;
            self.apply_budget_op(&op).map_err(budget_err)?;
            self.record_budget_op(bytes)?;
        }
        // Decide this round's admission. For a round the logs already
        // decided this re-proposes the identical op and deduplicates.
        let report = cost_report(
            &self.setup.query,
            &self.setup.params.schema,
            self.setup.params.epsilon,
            0.0,
        )
        .map_err(|e| NetError::Decode(format!("budget: query cost: {e}")))?;
        let entry = LedgerEntry::from_report(self.setup.spec.round, &report);
        let op = self
            .ledger
            .as_ref()
            .ok_or_else(|| NetError::Decode("budget: ledger missing".into()))?
            .decide(&entry)
            .map_err(budget_err)?;
        let bytes = op.encode();
        if !self.round_budget_ops.iter().any(|b| b == &bytes) {
            self.apply_budget_op(&op).map_err(budget_err)?;
            self.record_budget_op(&bytes)?;
        }
        if session_ops.insert(bytes.clone()) {
            wal.append(&bytes)?;
        }
        wal.commit()?;
        self.flush()?;
        self.budget_wal = Some(wal);
        self.session_ops = session_ops;
        Ok(())
    }

    /// Settles this round's reserved charge once the outcome is known:
    /// a successful round charges its admitted epsilon, a failed one
    /// refunds the reservation. Journals the op (replay re-settles from
    /// the record, not from wall-clock state) and mirrors it into the
    /// session WAL for later rounds.
    fn settle_budget(&mut self) -> Result<(), NetError> {
        if self.replaying || self.core.outcome().is_none() {
            return Ok(());
        }
        let round = self.setup.spec.round;
        let reserved = self
            .ledger
            .as_ref()
            .and_then(|l| l.entry(round))
            .is_some_and(|(_, st)| st == EntryState::Reserved);
        if !reserved {
            return Ok(());
        }
        let op = match self.core.outcome() {
            Some(Ok(_)) => LedgerOp::Charge { round },
            _ => LedgerOp::Refund { round },
        };
        let bytes = op.encode();
        self.apply_budget_op(&op)
            .map_err(|e| NetError::Decode(format!("budget: {e}")))?;
        self.record_budget_op(&bytes)?;
        if self.session_ops.insert(bytes.clone()) {
            if let Some(wal) = self.budget_wal.as_mut() {
                wal.append(&bytes)?;
                wal.commit()?;
            }
        }
        Ok(())
    }

    // --- phase transitions ----------------------------------------------

    /// Applies one transition to the core, restarting the share deadline
    /// a selection opens.
    fn apply_transition(&mut self, t: Transition) {
        self.core.apply(&*self.setup, t);
        match t {
            Transition::Select | Transition::Reselect => {
                self.share_deadline = Some(Instant::now() + self.share_wait());
            }
            // A built certificate that sealed without bytes fell short of
            // its signature quorum.
            Transition::Seal
                if !self.replaying
                    && self.core.certificate().is_none()
                    && self.core.transcript().is_some() =>
            {
                eprintln!(
                    "{}: certificate unsigned: {} of {} needed signatures",
                    self.who,
                    self.core.cert_sigs().iter().flatten().count(),
                    self.setup.threshold + 1
                );
            }
            _ => {}
        }
    }

    /// Runs every transition the core says is due, each journaled as its
    /// mark record *before* it is applied, so replay re-applies it at the
    /// same point in the event order instead of re-evaluating wall-clock
    /// conditions; then settles the budget once the outcome is known.
    /// Runs around every request and in the server's idle loop.
    fn tick(&mut self) -> Result<(), NetError> {
        if self.replaying {
            return Ok(());
        }
        loop {
            if self.core.certificate_pending() {
                self.cert_since.get_or_insert_with(Instant::now);
            }
            let Some(t) = self.core.due(self.deadlines()) else {
                break;
            };
            self.digest_due = true;
            match t {
                // The freeze's record carries the frozen plane's digest,
                // so it is written once the plane exists.
                Transition::Commit => {
                    self.apply_transition(t);
                    self.append_tagged(rec::COMMIT, &self.commit_digest())?;
                    continue;
                }
                Transition::Aggregate => self.append_tagged(rec::AGGREGATE, &[])?,
                Transition::Select => self.append_tagged(rec::SELECT, &[])?,
                Transition::Reselect => self.append_tagged(rec::RESELECT, &[])?,
                Transition::GiveUp => {
                    let failure = self.core.committee_unavailable().to_string();
                    self.append_tagged(rec::FAIL, failure.as_bytes())?;
                }
                Transition::Seal => self.append_tagged(rec::SEAL, &[])?,
            }
            self.apply_transition(t);
        }
        self.settle_budget()
    }

    /// What `msg` would do to the protocol state. [`Delivery::New`] is the
    /// journal-before-reply predicate; [`Delivery::Duplicate`] is a
    /// redelivery the first-write-wins rule absorbs. `None` for polls and
    /// invalid requests.
    fn delivery(&self, msg: &NetMsg) -> Option<Delivery> {
        let core = &self.core;
        match msg {
            NetMsg::PushContrib { origin, slot, .. } => core.check_contrib(*origin, *slot),
            NetMsg::SubmitOrigin { origin, .. } => core.check_submission(*origin),
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                ..
            } => core.check_shard_root(*shard, rejected, commits),
            NetMsg::CommitteeCheckIn { member, .. } => core.check_check_in(*member),
            NetMsg::PushShare { member, round, .. } => core.check_share(*member, *round),
            NetMsg::PushCertSig { member, sig } => core.check_cert_sig(*member, sig),
            _ => return None,
        }
        .ok()
    }

    /// Duplicate writes absorbed so far (see `duplicates_suppressed`).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// `Finished` once the round is done, otherwise `reply`.
    fn unless_done(&self, reply: NetMsg) -> NetMsg {
        if self.core.round_done() {
            NetMsg::Finished
        } else {
            reply
        }
    }

    /// Applies one request to the state and computes the reply. Pure
    /// protocol logic: no journaling, no wall-clock reads — this is the
    /// function journal replay re-runs.
    fn apply(&mut self, msg: NetMsg) -> Result<NetMsg, NetError> {
        let live = !self.replaying;
        Ok(match msg {
            // A decided round (including a budget-refused one) takes no
            // more intake: `Finished` tells the client to stand down.
            NetMsg::PushContrib { origin, slot, sc } => {
                self.core.contribute(&*self.setup, origin, slot, *sc)?;
                self.unless_done(NetMsg::Ack)
            }
            NetMsg::PullOrigin { origin } => {
                let slots = self.core.origin_slots(origin)?;
                let have = slots.iter().filter(|s| s.is_some()).count();
                let deadline = self.setup.spec.contrib_deadline;
                if self.core.round_done() {
                    NetMsg::Finished
                } else if have == slots.len() || (live && self.started.elapsed() >= deadline) {
                    NetMsg::OriginJob {
                        cts: slots
                            .iter()
                            .map(|s| s.as_ref().map(|held| held.ct().clone()))
                            .collect(),
                    }
                } else {
                    NetMsg::OriginPending {
                        have: have as u32,
                        need: slots.len() as u32,
                    }
                }
            }
            NetMsg::SubmitOrigin { origin, ct } => {
                self.core.submit(origin, *ct)?;
                self.unless_done(NetMsg::Ack)
            }
            NetMsg::CommitteeCheckIn { member, seed } => {
                self.core.check_in(member, seed)?;
                if self.core.round_done() {
                    if live {
                        self.finished_seen.insert(member);
                    }
                    NetMsg::Finished
                } else {
                    match self.core.member_task(member) {
                        Some(MemberTask::Share {
                            round,
                            participants,
                            aggregate,
                        }) => NetMsg::CommitteeShareTask {
                            round,
                            participants: participants.to_vec(),
                            ct: Box::new(aggregate.clone()),
                        },
                        Some(MemberTask::Sign(transcript)) => NetMsg::CertSignTask {
                            transcript: *transcript,
                        },
                        None => NetMsg::CommitteeWait,
                    }
                }
            }
            NetMsg::PushShare {
                member,
                round,
                share,
            } => {
                let decided = self.core.outcome().is_some();
                self.core.push_share(&*self.setup, member, round, *share)?;
                let uncertified =
                    matches!(self.core.outcome(), Some(Ok(_))) && self.core.transcript().is_none();
                if live && !decided && uncertified {
                    eprintln!(
                        "{}: certificate skipped: incomplete commitment plane",
                        self.who
                    );
                }
                NetMsg::Ack
            }
            NetMsg::PullStatus => {
                if live && self.core.round_done() {
                    self.driver_seen = true;
                }
                self.unless_done(NetMsg::CommitteeWait)
            }
            NetMsg::PushCertSig { member, sig } => {
                self.core.push_cert_sig(member, sig)?;
                NetMsg::Ack
            }
            NetMsg::ShardRoot {
                shard,
                rejected,
                commits,
                root,
            } => {
                self.core.shard_root(shard, rejected, commits, *root)?;
                self.shard_reply(shard, NetMsg::Ack)
            }
            NetMsg::PullShardStatus { shard } => {
                self.core.check_shard(shard)?;
                self.shard_reply(shard, NetMsg::CommitteeWait)
            }
            _ => return Err(NetError::Decode("request expected, got a reply".into())),
        })
    }

    /// The coordinator's answer to shard `shard`: `Finished` once the
    /// round is done (noting that the shard saw it), otherwise `reply`.
    fn shard_reply(&mut self, shard: u32, reply: NetMsg) -> NetMsg {
        if self.core.round_done() && !self.replaying {
            self.finished_shards.insert(shard);
        }
        self.unless_done(reply)
    }

    /// Handles one live request: runs due transitions, journals the
    /// request if it mutates state, applies it, journals any transition
    /// it unlocked, and fsyncs everything **before** the reply goes
    /// out — an acknowledged mutation is always on disk. `raw` is the
    /// request's wire encoding (what the journal stores).
    pub fn handle(&mut self, msg: NetMsg, raw: &[u8]) -> Result<NetMsg, NetError> {
        self.tick()?;
        match self.delivery(&msg) {
            Some(Delivery::New) => self.append_tagged(rec::REQ, raw)?,
            Some(Delivery::Duplicate) => self.duplicates_suppressed += 1,
            _ => {}
        }
        let reply = self.apply(msg)?;
        self.tick()?;
        self.flush()?;
        Ok(reply)
    }

    /// Re-evaluates a held poll after a state change. Its first
    /// evaluation went through [`AggState::handle`], which journaled
    /// whatever it wrote; this is [`AggState::apply`] alone, so it writes
    /// no journal record and counts no duplicate.
    fn repoll(&mut self, poll: &NetMsg) -> Result<NetMsg, NetError> {
        let poll = held_poll(poll).expect("only polls are held");
        debug_assert!(
            self.delivery(&poll) != Some(Delivery::New),
            "a held poll never mutates"
        );
        self.apply(poll)
    }

    /// Whether the round has produced an outcome (success or typed
    /// failure).
    pub fn is_finished(&self) -> bool {
        self.core.outcome().is_some()
    }

    /// How many records the journal currently holds (tests).
    pub fn journal_records(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::record_count)
    }

    /// The shard's sealed `ShardRoot` message once the partial tree is
    /// formed (`None` before that, and always in the other modes).
    pub fn shard_root_msg(&self) -> Option<NetMsg> {
        self.core.sealed_shard().map(|sealed| NetMsg::ShardRoot {
            shard: sealed.shard,
            rejected: sealed.rejected,
            commits: sealed.commits,
            root: Box::new(sealed.root.ct().clone()),
        })
    }

    /// The sealed round certificate's canonical bytes, once the seal
    /// happened and the signature quorum was reached (`None` before the
    /// seal, below quorum, and always on shards).
    pub fn certificate(&self) -> Option<&[u8]> {
        self.core.certificate()
    }

    /// The sealed certificate rendered as the `ROUND_cert.json` artifact
    /// (human-readable fields plus the canonical bytes hex-embedded).
    pub fn certificate_json(&self) -> Option<String> {
        self.certificate().and_then(|bytes| {
            RoundCertificate::decode(bytes)
                .ok()
                .map(|cert| render_json(&cert, bytes) + "\n")
        })
    }

    /// A typed terminal failure, if the round recorded one.
    pub fn failure(&self) -> Option<String> {
        match self.core.outcome() {
            Some(Err(e)) => Some(e.to_string()),
            _ => None,
        }
    }
}

/// How long a poll whose answer is still "nothing yet" is held at the
/// server, waiting for a state change, before that answer goes out —
/// well inside every client io deadline.
const POLL_HOLD: Duration = Duration::from_millis(250);

/// Longest the aggregator and shard main loops wait for a state change
/// before ticking anyway, so wall-clock deadlines fire on time.
const TICK_EVERY: Duration = Duration::from_millis(20);

/// A copy of `msg` if it is one of the polls the server may hold:
/// `PullOrigin`, `CommitteeCheckIn`, `PullStatus`, `PullShardStatus`.
fn held_poll(msg: &NetMsg) -> Option<NetMsg> {
    Some(match *msg {
        NetMsg::PullOrigin { origin } => NetMsg::PullOrigin { origin },
        NetMsg::CommitteeCheckIn { member, seed } => NetMsg::CommitteeCheckIn { member, seed },
        NetMsg::PullStatus => NetMsg::PullStatus,
        NetMsg::PullShardStatus { shard } => NetMsg::PullShardStatus { shard },
        _ => return None,
    })
}

/// Whether a poll's reply is the "nothing yet" answer.
fn nothing_yet(reply: &NetMsg) -> bool {
    matches!(reply, NetMsg::OriginPending { .. } | NetMsg::CommitteeWait)
}

/// An [`AggState`] shared by a server's workers and its main loop. The
/// condvar is notified after every handled request and by the main
/// loop's ticks; held polls and the main loop wait on it instead of
/// sleeping.
struct SharedAgg {
    state: Mutex<AggState>,
    changed: Condvar,
}

impl SharedAgg {
    fn new(st: AggState) -> Arc<Self> {
        Arc::new(SharedAgg {
            state: Mutex::new(st),
            changed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, AggState> {
        lock_recover(&self.state)
    }

    /// Releases `st` until a notification or `timeout`; `true` when the
    /// wait timed out.
    fn wait<'a>(
        &self,
        st: MutexGuard<'a, AggState>,
        timeout: Duration,
    ) -> (MutexGuard<'a, AggState>, bool) {
        let (st, wait) = self
            .changed
            .wait_timeout(st, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (st, wait.timed_out())
    }

    /// Serves one live request through [`AggState::handle`]. A poll whose
    /// answer is still "nothing yet" is then held for up to
    /// [`POLL_HOLD`], re-evaluated ([`AggState::repoll`]) on every
    /// notification, and answered as soon as that answer changes.
    fn serve(&self, msg: NetMsg, raw: &[u8]) -> Result<NetMsg, NetError> {
        let hold_until = Instant::now() + POLL_HOLD;
        let poll = held_poll(&msg);
        let mut st = self.lock();
        let reply = st.handle(msg, raw);
        self.changed.notify_all();
        let mut reply = reply?;
        let Some(poll) = poll else { return Ok(reply) };
        while nothing_yet(&reply) {
            let now = Instant::now();
            if now >= hold_until {
                break;
            }
            st = self.wait(st, hold_until - now).0;
            reply = st.repoll(&poll)?;
            if !nothing_yet(&reply) {
                // The final answer may be liveness the main loop waits
                // on (the driver or a member saw `Finished`).
                self.changed.notify_all();
            }
        }
        Ok(reply)
    }

    /// One main-loop step: waits for a notification or [`TICK_EVERY`],
    /// then runs the due wall-clock transitions and makes them durable.
    /// Held polls are woken when that journaled something, and on every
    /// idle step, so wall-clock conditions (the contribution deadline)
    /// reach them within [`TICK_EVERY`].
    fn step<'a>(&self, st: MutexGuard<'a, AggState>) -> MutexGuard<'a, AggState> {
        let (mut st, idle) = self.wait(st, TICK_EVERY);
        let records = st.journal_records();
        if let Err(e) = st.tick().and_then(|_| st.flush()) {
            st.core.abort(format!("journal failure: {e}"));
        }
        if idle || st.journal_records() != records {
            self.changed.notify_all();
        }
        st
    }

    /// The server handler: decode, [`SharedAgg::serve`], encode — plus
    /// the chaos hook that aborts after the Nth handled request of one
    /// kind, once the mutation is journaled and fsync'd but before the
    /// client sees the reply, which it must retry into the respawned
    /// process's idempotent path.
    fn handler(
        self: &Arc<Self>,
        setup: &Arc<RoundSetup>,
        die_after: Option<(String, u32)>,
    ) -> Arc<dyn Handler> {
        let shared = Arc::clone(self);
        let setup = Arc::clone(setup);
        let who = shared.lock().who().to_string();
        let die_count = Mutex::new(0u32);
        Arc::new(
            move |_peer: [u8; 32], request: &[u8]| -> Result<Vec<u8>, NetError> {
                let msg = NetMsg::decode(request, &setup.cc)?;
                let kind = msg.kind();
                let reply = shared.serve(msg, request)?;
                if let Some((k, n)) = &die_after {
                    if kind == k.as_str() {
                        let mut count = lock_recover(&die_count);
                        *count += 1;
                        if *count == *n {
                            eprintln!("{who}: chaos kill after {n} {k}");
                            std::process::abort();
                        }
                    }
                }
                Ok(reply.encode())
            },
        )
    }
}

/// File names the roles and driver agree on inside the `--out` directory.
pub mod files {
    /// The aggregator's outcome (see [`super::decode_outcome`]).
    pub const OUTCOME: &str = "outcome.bin";
    /// Merged metrics, binary (see `NetMetrics::decode`).
    pub const METRICS_MERGED: &str = "metrics-merged.bin";
    /// Merged metrics, JSON artifact.
    pub const METRICS_JSON: &str = "NET_round.json";
    /// The aggregator's write-ahead journal.
    pub const JOURNAL: &str = "journal.bin";
    /// The aggregator's current address (rewritten on every respawn;
    /// clients re-read it when their retries exhaust).
    pub const AGG_ADDR: &str = "agg.addr";
    /// The chaos supervisor's per-seed report artifact.
    pub const CHAOS_JSON: &str = "CHAOS_report.json";
    /// The net-chaos matrix report artifact (one entry per fault seed).
    pub const CHAOS_NET_JSON: &str = "CHAOS_net.json";
    /// The sealed round certificate (JSON envelope with the canonical
    /// bytes hex-embedded; feed it to `myc_verify`).
    pub const CERT_JSON: &str = "ROUND_cert.json";
    /// The session privacy-budget WAL (default location when
    /// `--budget-wal` is not given; multi-round sessions share one file
    /// across their per-round out dirs).
    pub const BUDGET_WAL: &str = "budget.wal";

    /// Per-role metrics file name.
    pub fn role_metrics(name: &str) -> String {
        format!("metrics-{name}.bin")
    }

    /// Aggregation shard `s`'s WAL partition.
    pub fn shard_journal(shard: usize) -> String {
        format!("journal-shard-{shard}.bin")
    }

    /// Aggregation shard `s`'s published address (same atomic
    /// rewrite-on-respawn protocol as [`AGG_ADDR`]).
    pub fn shard_addr(shard: usize) -> String {
        format!("shard-{shard}.addr")
    }

    /// Per-server injected-fault ledger (written only when the round
    /// runs under a net-chaos profile; reconciled against the merged
    /// transport counters by the net-chaos harness).
    pub fn netfaults(name: &str) -> String {
        format!("netfaults-{name}.json")
    }
}

fn write_metrics(out_dir: &Path, name: &str, metrics: &NetMetrics) -> Result<(), NetError> {
    std::fs::write(out_dir.join(files::role_metrics(name)), metrics.encode())?;
    Ok(())
}

/// Atomically publishes a server's current address (temp file + rename,
/// so a concurrent reader never sees a partial write).
fn write_named_addr_file(out_dir: &Path, name: &str, addr: SocketAddr) -> Result<(), NetError> {
    let tmp = out_dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, out_dir.join(name))?;
    Ok(())
}

fn write_addr_file(out_dir: &Path, addr: SocketAddr) -> Result<(), NetError> {
    write_named_addr_file(out_dir, files::AGG_ADDR, addr)
}

/// Reads a published server address by file name, if any.
pub fn read_named_addr_file(out_dir: &Path, name: &str) -> Option<SocketAddr> {
    let s = std::fs::read_to_string(out_dir.join(name)).ok()?;
    s.trim().parse().ok()
}

/// Reads the aggregator's published address, if any.
pub fn read_addr_file(out_dir: &Path) -> Option<SocketAddr> {
    read_named_addr_file(out_dir, files::AGG_ADDR)
}

/// Runs the aggregator: recovers state from the journal (fresh on the
/// first incarnation), binds a loopback port, publishes it via the
/// `agg.addr` file and a `LISTENING <addr>` banner on stdout, serves
/// the round, writes the outcome and its metrics into `out_dir`, and
/// exits once the round is over and observed.
pub fn run_aggregator(
    spec: &RoundSpec,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover(Arc::clone(&setup), &out_dir.join(files::JOURNAL))?;
    st.set_faults(faults);
    if spec.budget.is_some() {
        let wal_path = spec
            .budget_wal
            .clone()
            .unwrap_or_else(|| out_dir.join(files::BUDGET_WAL));
        st.install_budget(&wal_path)?;
    }
    let shared = SharedAgg::new(st);
    let handler = shared.handler(&setup, faults.die_after.clone());
    let config = ServerConfig {
        workers: spec.device_shards
            + spec.origin_shards
            + setup.committee_size
            + spec.agg_shards
            + 3,
        roster: Some(setup.roster()),
        ..ServerConfig::default()
    };
    let server = Server::spawn(
        "127.0.0.1:0",
        setup.aggregator_identity(),
        config,
        handler,
        spec.seed,
    )?;
    // Under a net-chaos profile every client dials the fault-injecting
    // proxy, not the server: publish the proxy's address everywhere the
    // real one would go.
    let proxy = match &spec.net {
        Some(profile) => Some(crate::netchaos::ChaosProxy::spawn(
            server.local_addr(),
            role::AGGREGATOR,
            crate::netchaos::NetFaultPlan::derive(profile, &setup),
            &setup,
        )?),
        None => None,
    };
    let public_addr = proxy
        .as_ref()
        .map_or(server.local_addr(), |p| p.local_addr());
    write_addr_file(out_dir, public_addr)?;
    println!("LISTENING {public_addr}");
    use std::io::Write as _;
    std::io::stdout().flush()?;

    let started = Instant::now();
    let mut outcome_since: Option<Instant> = None;
    let mut s = shared.lock();
    loop {
        s = shared.step(s);
        if s.core.round_done() {
            let since = *outcome_since.get_or_insert_with(Instant::now);
            // Committee members (and shards) that died after the
            // outcome formed can never poll `Finished`; a grace period
            // keeps their absence from wedging the exit.
            let shards_expected = if spec.agg_shards > 1 {
                spec.agg_shards
            } else {
                0
            };
            let all_observed = s.finished_seen.len() == setup.committee_size
                && s.finished_shards.len() == shards_expected;
            if s.driver_seen && (all_observed || since.elapsed() >= FINISH_GRACE) {
                break;
            }
        }
        if started.elapsed() >= spec.round_timeout {
            break;
        }
    }
    // The outcome stays in the state, so a request still in flight keeps
    // seeing the round finished until the server shuts down.
    let timed_out = format!("round did not converge within {:?}", spec.round_timeout);
    let outcome_bytes = s
        .outcome_bytes()
        .unwrap_or_else(|| encode_outcome(Err(&timed_out)));
    let result = match s.core.outcome() {
        Some(Ok(_)) => Ok(()),
        Some(Err(failure)) => Err(failure.to_string()),
        None => Err(timed_out),
    };
    let cert_json = s.certificate_json();
    let duplicates = s.duplicates_suppressed();
    drop(s);
    // The certificate lands on disk *before* the outcome file: the
    // outcome is the durable end-of-round signal lingering roles watch,
    // so nobody can observe a finished round with a missing certificate.
    if let Some(json) = cert_json {
        std::fs::write(out_dir.join(files::CERT_JSON), json)?;
    }
    std::fs::write(out_dir.join(files::OUTCOME), outcome_bytes)?;
    let mut metrics = lock_recover(&server.metrics()).clone();
    metrics.duplicates_suppressed += duplicates;
    write_metrics(out_dir, "aggregator", &metrics)?;
    if let Some(p) = proxy {
        std::fs::write(
            out_dir.join(files::netfaults("aggregator")),
            p.ledger_json(),
        )?;
        p.shutdown();
    }
    server.shutdown();
    match result {
        Ok(_) => Ok(()),
        Err(e) => Err(NetError::Decode(format!("round failed: {e}"))),
    }
}

/// Runs aggregation shard `shard`: recovers its own WAL partition,
/// binds a loopback port published via `shard-N.addr` (plus a
/// `LISTENING` banner for the piped supervisor), serves intake for the
/// origins it owns, pushes its sealed root to the coordinator at
/// `addr`, and lingers — acking late client retries — until the
/// coordinator reports the round finished (or the outcome file appears,
/// covering a coordinator that exited before this shard's poll).
pub fn run_shard(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
    faults: &AggFaults,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = Arc::new(build_setup(spec)?);
    let mut st = AggState::recover_shard(
        Arc::clone(&setup),
        shard as u32,
        &out_dir.join(files::shard_journal(shard)),
    )?;
    st.set_faults(faults);
    let shared = SharedAgg::new(st);
    let handler = shared.handler(&setup, faults.die_after.clone());
    let config = ServerConfig {
        workers: spec.device_shards + spec.origin_shards + 3,
        roster: Some(setup.roster()),
        ..ServerConfig::default()
    };
    let server = Server::spawn(
        "127.0.0.1:0",
        setup.shard_identity(shard),
        config,
        handler,
        spec.seed ^ (0x5a5a + shard as u64),
    )?;
    let proxy = match &spec.net {
        Some(profile) => Some(crate::netchaos::ChaosProxy::spawn(
            server.local_addr(),
            role::SHARD_BASE + shard as u32,
            crate::netchaos::NetFaultPlan::derive(profile, &setup),
            &setup,
        )?),
        None => None,
    };
    let public_addr = proxy
        .as_ref()
        .map_or(server.local_addr(), |p| p.local_addr());
    write_named_addr_file(out_dir, &files::shard_addr(shard), public_addr)?;
    println!("LISTENING {public_addr}");
    use std::io::Write as _;
    std::io::stdout().flush()?;

    // Client half towards the coordinator.
    let mut coord = HubClient::new(&setup, role::SHARD_BASE + shard as u32, addr, out_dir);
    let started = Instant::now();
    let mut root_msg: Option<NetMsg> = None;
    let mut root_acked = false;
    let result = loop {
        {
            let s = shared.step(shared.lock());
            if let Some(e) = s.failure() {
                break Err(NetError::Decode(format!("shard {shard} failed: {e}")));
            }
            if root_msg.is_none() && !root_acked {
                root_msg = s.shard_root_msg();
            }
        }
        if let Some(msg) = &root_msg {
            match coord.poll_once(&setup, msg) {
                Ok(NetMsg::Ack) => {
                    root_acked = true;
                    root_msg = None;
                }
                Ok(NetMsg::Finished) => break Ok(()),
                _ => {}
            }
        } else if root_acked {
            if let Ok(NetMsg::Finished) = coord.poll_once(
                &setup,
                &NetMsg::PullShardStatus {
                    shard: shard as u32,
                },
            ) {
                break Ok(());
            }
            // The coordinator may have exited (finish grace elapsed)
            // before this shard's poll saw Finished; the outcome file
            // is the durable end-of-round signal.
            if out_dir.join(files::OUTCOME).exists() {
                break Ok(());
            }
        }
        if started.elapsed() >= spec.round_timeout {
            break Err(NetError::Decode(format!(
                "shard {shard} round did not converge within {:?}",
                spec.round_timeout
            )));
        }
    };
    let mut metrics = lock_recover(&server.metrics()).clone();
    metrics.merge(&coord.metrics());
    metrics.duplicates_suppressed += shared.lock().duplicates_suppressed();
    write_metrics(out_dir, &format!("shard-{shard}"), &metrics)?;
    if let Some(p) = proxy {
        std::fs::write(
            out_dir.join(files::netfaults(&format!("shard-{shard}"))),
            p.ledger_json(),
        )?;
        p.shutdown();
    }
    server.shutdown();
    result
}

fn round_client(
    setup: &RoundSetup,
    role_id: u32,
    addr: SocketAddr,
    server_pub: [u8; 32],
) -> Client {
    round_client_with(setup, role_id, addr, server_pub, NetMetrics::shared())
}

/// Like [`round_client`], but accumulating into an existing metrics
/// handle — the [`HubClient`] replaces its inner client on every
/// address re-resolution and must not lose the counters (retries,
/// deadline expiries) gathered so far.
fn round_client_with(
    setup: &RoundSetup,
    role_id: u32,
    addr: SocketAddr,
    server_pub: [u8; 32],
    metrics: Arc<Mutex<NetMetrics>>,
) -> Client {
    let identity = Identity::derive(setup.spec.seed, role_id);
    let mut config = ClientConfig::new(identity, Some(server_pub));
    config.read_timeout = setup.spec.io_timeout;
    // Short inner budget (~0.75 s of backoff): after an aggregator
    // crash the address changes, so burning the full schedule against
    // the dead port only delays the HubClient's re-resolution.
    config.backoff = crate::BackoffPolicy::new(50, 4);
    Client::with_metrics(
        addr,
        config,
        StdRng::seed_from_u64(setup.spec.seed ^ 0xd1a1).with_stream(role_id as u64),
        metrics,
    )
}

fn expect_ack(reply: &NetMsg) -> Result<(), NetError> {
    match reply {
        NetMsg::Ack => Ok(()),
        other => Err(NetError::Decode(format!(
            "expected Ack, got {}",
            other.kind()
        ))),
    }
}

fn request_msg(client: &mut Client, cc: &CodecCtx, msg: &NetMsg) -> Result<NetMsg, NetError> {
    let reply = client.request(msg.kind(), &msg.encode())?;
    NetMsg::decode(&reply, cc)
}

/// Cap on the full-jitter pause before a [`HubClient`] re-sends after a
/// failed exchange.
const RETRY_JITTER_MS: u64 = 50;

/// A client of the aggregator hub that survives aggregator respawns:
/// when the inner [`Client`]'s retries exhaust, it re-reads the
/// `agg.addr` file — a respawned aggregator binds a fresh port and
/// republishes it there — and redials, bounded by the round timeout so
/// a dead hub is a typed [`NetError`], never a hang.
pub(crate) struct HubClient {
    client: Client,
    role_id: u32,
    out_dir: PathBuf,
    addr_file: String,
    server_pub: [u8; 32],
    addr: SocketAddr,
    deadline: Instant,
    // One retry budget *spanning* reconnects and address re-resolutions
    // (the inner client's schedule restarts from zero on every redial;
    // this one does not). Reset only by a successful exchange.
    span_attempts: u32,
    span_budget: crate::BackoffPolicy,
    jitter_rng: StdRng,
}

impl HubClient {
    pub(crate) fn new(setup: &RoundSetup, role_id: u32, addr: SocketAddr, out_dir: &Path) -> Self {
        // Prefer the published address: this process may have been
        // (re)spawned after the aggregator already moved ports.
        let addr = read_addr_file(out_dir).unwrap_or(addr);
        let server_pub = setup.aggregator_identity().public;
        HubClient {
            client: round_client(setup, role_id, addr, server_pub),
            role_id,
            out_dir: out_dir.to_path_buf(),
            addr_file: files::AGG_ADDR.to_string(),
            server_pub,
            addr,
            deadline: Instant::now() + setup.spec.round_timeout,
            span_attempts: 0,
            span_budget: Self::span_budget(),
            jitter_rng: Self::jitter_rng(setup, role_id),
        }
    }

    /// The spanning retry budget: 64 outer attempts, each already worth
    /// the inner client's full short schedule, caps a persistently
    /// unreachable hub at a typed failure well inside the round timeout.
    fn span_budget() -> crate::BackoffPolicy {
        crate::BackoffPolicy::new(50, 64)
    }

    fn jitter_rng(setup: &RoundSetup, role_id: u32) -> StdRng {
        StdRng::seed_from_u64(setup.spec.seed ^ 0xbac0ff).with_stream(role_id as u64)
    }

    /// A client of aggregation shard `shard`. Shards publish their
    /// address only through the `shard-N.addr` file (they have no
    /// spawning parent reading a banner), so this waits — bounded by
    /// the round timeout — for the file to appear.
    pub(crate) fn new_to_shard(
        setup: &RoundSetup,
        role_id: u32,
        shard: usize,
        out_dir: &Path,
    ) -> Result<Self, NetError> {
        let addr_file = files::shard_addr(shard);
        let deadline = Instant::now() + setup.spec.round_timeout;
        let addr = loop {
            if let Some(addr) = read_named_addr_file(out_dir, &addr_file) {
                break addr;
            }
            if Instant::now() >= deadline {
                return Err(NetError::Decode(format!(
                    "shard {shard} never published {addr_file}"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let server_pub = setup.shard_identity(shard).public;
        Ok(HubClient {
            client: round_client(setup, role_id, addr, server_pub),
            role_id,
            out_dir: out_dir.to_path_buf(),
            addr_file,
            server_pub,
            addr,
            deadline,
            span_attempts: 0,
            span_budget: Self::span_budget(),
            jitter_rng: Self::jitter_rng(setup, role_id),
        })
    }

    /// One request attempt (the inner client's short retry schedule
    /// only). On failure, re-resolves the published address for the
    /// *next* attempt and returns the error — never blocks the caller's
    /// loop. The chaos supervisor polls through this so it can keep
    /// respawning the aggregator it is waiting on.
    pub(crate) fn poll_once(
        &mut self,
        setup: &RoundSetup,
        msg: &NetMsg,
    ) -> Result<NetMsg, NetError> {
        match request_msg(&mut self.client, &setup.cc, msg) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                match read_named_addr_file(&self.out_dir, &self.addr_file) {
                    Some(new_addr) if new_addr != self.addr => {
                        self.addr = new_addr;
                        self.recreate_client(setup, new_addr);
                    }
                    _ => self.client.disconnect(),
                }
                Err(e)
            }
        }
    }

    /// Replaces the inner client (after an address re-resolution),
    /// carrying the accumulated metrics over to the replacement.
    fn recreate_client(&mut self, setup: &RoundSetup, addr: SocketAddr) {
        let metrics = self.client.metrics();
        self.client = round_client_with(setup, self.role_id, addr, self.server_pub, metrics);
    }

    fn request_msg(&mut self, setup: &RoundSetup, msg: &NetMsg) -> Result<NetMsg, NetError> {
        loop {
            match request_msg(&mut self.client, &setup.cc, msg) {
                Ok(reply) => {
                    self.span_attempts = 0;
                    return Ok(reply);
                }
                Err(e) if e.is_retryable() || matches!(e, NetError::RetriesExhausted { .. }) => {
                    if Instant::now() >= self.deadline {
                        return Err(e);
                    }
                    if self.span_budget.exhausted(self.span_attempts) {
                        return Err(NetError::RetriesExhausted {
                            attempts: self.span_attempts + 1,
                            last: e.to_string(),
                        });
                    }
                    self.span_attempts += 1;
                    if let Some(new_addr) = read_named_addr_file(&self.out_dir, &self.addr_file) {
                        if new_addr != self.addr {
                            self.addr = new_addr;
                            self.recreate_client(setup, new_addr);
                            continue;
                        }
                    }
                    self.client.disconnect();
                    // Full jitter decorrelates the re-poll storm when
                    // every client loses the same server at once.
                    let wait = self.jitter_rng.gen_range(1..=RETRY_JITTER_MS);
                    std::thread::sleep(Duration::from_millis(wait));
                }
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) fn metrics(&self) -> NetMetrics {
        lock_recover(&self.client.metrics()).clone()
    }

    /// Closes the underlying connection (the next request redials).
    pub(crate) fn hangup(&mut self) {
        self.client.disconnect();
    }
}

/// Lazily-built per-aggregation-shard clients for one worker process.
/// At one shard every target resolves to the classic hub client; above
/// that, entry `s` dials shard `s` via its published address file.
struct ShardedHub {
    hubs: std::collections::BTreeMap<usize, HubClient>,
    role_id: u32,
    addr: SocketAddr,
    out_dir: PathBuf,
}

impl ShardedHub {
    fn new(role_id: u32, addr: SocketAddr, out_dir: &Path) -> Self {
        ShardedHub {
            hubs: std::collections::BTreeMap::new(),
            role_id,
            addr,
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// The client for the aggregation shard owning origin `v`.
    fn for_origin(&mut self, setup: &RoundSetup, v: VertexId) -> Result<&mut HubClient, NetError> {
        let target = shard_of(v, setup.spec.agg_shards);
        if let std::collections::btree_map::Entry::Vacant(e) = self.hubs.entry(target) {
            e.insert(if setup.spec.agg_shards > 1 {
                HubClient::new_to_shard(setup, self.role_id, target, &self.out_dir)?
            } else {
                HubClient::new(setup, self.role_id, self.addr, &self.out_dir)
            });
        }
        Ok(self.hubs.get_mut(&target).expect("just inserted"))
    }

    fn metrics(&self) -> NetMetrics {
        let mut merged = NetMetrics::default();
        for hub in self.hubs.values() {
            merged.merge(&hub.metrics());
        }
        merged
    }
}

/// Runs one device process: encrypts and pushes the contribution duties
/// of every vertex in its shard (each duty to the aggregation shard
/// owning its destination origin), then exits.
pub fn run_device(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut hubs = ShardedHub::new(role::DEVICE_BASE + shard as u32, addr, out_dir);
    'vertices: for v in 0..setup.pop.graph.len() {
        if v % spec.device_shards != shard {
            continue;
        }
        // Per-vertex randomness streams make the ciphertexts independent
        // of how vertices shard across processes.
        let mut rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::CONTRIB + v as u64);
        for duty in &setup.duties[v] {
            let sc = setup
                .plan
                .build_contribution(&setup.keys, v as VertexId, duty.exp, false, &mut rng)
                .map_err(|e| NetError::Decode(format!("contribution encryption: {e}")))?;
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            let hub = hubs.for_origin(&setup, duty.origin)?;
            match hub.request_msg(&setup, &msg)? {
                NetMsg::Ack => {}
                // The round is over (possibly refused by the budget
                // ledger before any intake): nothing left to push.
                NetMsg::Finished => break 'vertices,
                other => {
                    return Err(NetError::Decode(format!(
                        "unexpected PushContrib reply {}",
                        other.kind()
                    )))
                }
            }
        }
    }
    write_metrics(out_dir, &format!("device-{shard}"), &hubs.metrics())?;
    Ok(())
}

/// Runs one origin process: for each vertex in its shard, polls the
/// aggregator for the verified slot ciphertexts, substitutes the neutral
/// `Enc(x^0)` for slots that never arrived, combines, and submits.
///
/// `crash_after`: exit with code 17 after that many vertices have been
/// submitted — the driver's watchdog respawns the shard, which recovers
/// by re-pulling (all protocol state lives at the aggregator).
pub fn run_origin(
    spec: &RoundSpec,
    shard: usize,
    addr: SocketAddr,
    out_dir: &Path,
    crash_after: Option<usize>,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut hubs = ShardedHub::new(role::ORIGIN_BASE + shard as u32, addr, out_dir);
    let mut submitted = 0usize;
    'vertices: for v in 0..setup.pop.graph.len() {
        if v % spec.origin_shards != shard {
            continue;
        }
        if crash_after == Some(submitted) {
            std::process::exit(17);
        }
        let hub = hubs.for_origin(&setup, v as VertexId)?;
        let slots = loop {
            match hub.request_msg(&setup, &NetMsg::PullOrigin { origin: v as u32 })? {
                NetMsg::OriginJob { cts } => break cts,
                // The server held the poll until its hold ran out: ask again.
                NetMsg::OriginPending { .. } => {}
                // The round is over (possibly refused by the budget
                // ledger): no origin work left to do.
                NetMsg::Finished => break 'vertices,
                other => {
                    return Err(NetError::Decode(format!(
                        "unexpected PullOrigin reply {}",
                        other.kind()
                    )))
                }
            }
        };
        let work = &setup.works[v];
        if slots.len() != work.requests.len() {
            return Err(NetError::Decode("origin job slot count mismatch".into()));
        }
        let mut rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::ORIGIN + v as u64);
        let cts: Vec<Ciphertext> = slots
            .into_iter()
            .map(|slot| match slot {
                Some(ct) => Ok(ct),
                None => setup.plan.neutral_ct(&setup.keys, &mut rng),
            })
            .collect::<Result<_, _>>()
            .map_err(|e| NetError::Decode(format!("neutral encryption: {e}")))?;
        let mut stats = ExecStats::default();
        let out = combine_origin(&setup.plan, &setup.keys, work, &cts, &mut stats, &mut rng)
            .map_err(|e| NetError::Decode(format!("origin combine: {e}")))?;
        let msg = NetMsg::SubmitOrigin {
            origin: v as u32,
            ct: Box::new(out),
        };
        match hub.request_msg(&setup, &msg)? {
            NetMsg::Ack => {}
            NetMsg::Finished => break 'vertices,
            other => {
                return Err(NetError::Decode(format!(
                    "unexpected SubmitOrigin reply {}",
                    other.kind()
                )))
            }
        }
        submitted += 1;
    }
    write_metrics(out_dir, &format!("origin-{shard}"), &hubs.metrics())?;
    Ok(())
}

/// Runs one committee member: polls check-ins (carrying its joint-noise
/// seed), answers share tasks, and exits once the aggregator reports the
/// round finished.
pub fn run_committee(
    spec: &RoundSpec,
    member: u64,
    addr: SocketAddr,
    out_dir: &Path,
) -> Result<(), NetError> {
    let setup = build_setup(spec)?;
    let mut hub = HubClient::new(&setup, role::COMMITTEE_BASE + member as u32, addr, out_dir);
    let mut rng = StdRng::seed_from_u64(spec.seed).with_stream(stream::COMMITTEE + member);
    let mut seed = [0u8; 32];
    rng.fill(&mut seed);
    let mut computed: std::collections::HashMap<u32, DecryptionShare> =
        std::collections::HashMap::new();
    loop {
        let reply = hub.request_msg(&setup, &NetMsg::CommitteeCheckIn { member, seed })?;
        match reply {
            NetMsg::Finished => break,
            // The server held the check-in until its hold ran out.
            NetMsg::CommitteeWait => {}
            NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } => {
                if !participants.contains(&member) {
                    return Err(NetError::Decode(
                        "share task for a set excluding this member".into(),
                    ));
                }
                if let std::collections::hash_map::Entry::Vacant(slot) = computed.entry(round) {
                    let share = decryption_share(
                        &ct,
                        &setup.key_shares,
                        member,
                        &participants,
                        setup.plan.t_pt as i64,
                        &mut rng,
                    )
                    .map_err(|e| NetError::Decode(format!("share computation: {e}")))?;
                    slot.insert(share);
                }
                let msg = NetMsg::PushShare {
                    member,
                    round,
                    share: Box::new(computed[&round].clone()),
                };
                expect_ack(&hub.request_msg(&setup, &msg)?)?;
            }
            NetMsg::CertSignTask { transcript } => {
                // Endorse the round certificate: a detached ed25519
                // signature over its transcript digest. Deterministic,
                // so a respawned member re-signs identically.
                let sig = sign_transcript(spec.seed, member, &transcript);
                let msg = NetMsg::PushCertSig { member, sig };
                expect_ack(&hub.request_msg(&setup, &msg)?)?;
            }
            other => {
                return Err(NetError::Decode(format!(
                    "unexpected check-in reply {}",
                    other.kind()
                )))
            }
        }
    }
    write_metrics(out_dir, &format!("committee-{member}"), &hub.metrics())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Driver options.
#[derive(Debug, Clone, Default)]
pub struct DriverOpts {
    /// Kill origin shard `.0` after `.1` submitted vertices (exit 17);
    /// the watchdog respawns it once.
    pub crash_origin: Option<(usize, usize)>,
}

/// Reads the `LISTENING <addr>` banner from a piped aggregator child
/// and keeps draining the pipe so the child can never block on stdout.
pub(crate) fn read_agg_banner(agg: &mut Supervised) -> Result<SocketAddr, NetError> {
    let stdout = agg
        .take_stdout()
        .ok_or_else(|| NetError::Decode("aggregator stdout was not piped".into()))?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("LISTENING ")
        .ok_or_else(|| NetError::Decode(format!("bad aggregator banner: {line:?}")))?
        .parse()
        .map_err(|e| NetError::Decode(format!("bad aggregator address: {e}")))?;
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(addr)
}

/// Orchestrates the whole multi-process round: spawns the aggregator,
/// device/origin shards, and committee members as child processes of
/// `exe` (normally `current_exe()`), watches for crashed origins and
/// respawns each once (through the shared [`Supervised`] restart
/// mechanism the chaos supervisor also uses), waits for completion, and
/// merges all metrics files into `NET_round.json`.
pub fn run_driver(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    opts: &DriverOpts,
) -> Result<(), NetError> {
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let out_arg = out_dir.display().to_string();
    let base = spec.to_args();
    let with_base = |mut v: Vec<String>| -> Vec<String> {
        v.extend(base.iter().cloned());
        v.extend(["--out".to_string(), out_arg.clone()]);
        v
    };

    // Aggregator first; its stdout announces the bound port.
    let mut agg = Supervised::spawn(
        exe,
        "aggregator",
        with_base(vec!["aggregator".into()]),
        true,
    )?;
    let addr = read_agg_banner(&mut agg)?;

    let addr_arg = addr.to_string();
    let mut children: Vec<Supervised> = Vec::new();
    // Aggregation shards next (sharded layout only): they publish their
    // own addresses via `shard-N.addr` files, which device and origin
    // clients wait on, so everyone can start concurrently.
    if spec.agg_shards > 1 {
        for s in 0..spec.agg_shards {
            let args = with_base(vec![
                "shard".into(),
                "--shard".into(),
                s.to_string(),
                "--addr".into(),
                addr_arg.clone(),
            ]);
            children.push(Supervised::spawn(exe, &format!("shard-{s}"), args, false)?);
        }
    }
    for i in 0..spec.device_shards {
        let args = with_base(vec![
            "device".into(),
            "--shard".into(),
            i.to_string(),
            "--addr".into(),
            addr_arg.clone(),
        ]);
        children.push(Supervised::spawn(exe, &format!("device-{i}"), args, false)?);
    }
    for j in 0..spec.origin_shards {
        let mut args = with_base(vec![
            "origin".into(),
            "--shard".into(),
            j.to_string(),
            "--addr".into(),
            addr_arg.clone(),
        ]);
        let respawn = args.clone();
        if let Some((shard, after)) = opts.crash_origin {
            if shard == j {
                args.extend(["--crash-after".into(), after.to_string()]);
            }
        }
        children.push(
            Supervised::spawn(exe, &format!("origin-{j}"), args, false)?.with_respawn(respawn, 1),
        );
    }
    for m in 1..=setup.committee_size as u64 {
        let args = with_base(vec![
            "committee".into(),
            "--member".into(),
            m.to_string(),
            "--addr".into(),
            addr_arg.clone(),
        ]);
        children.push(Supervised::spawn(
            exe,
            &format!("committee-{m}"),
            args,
            false,
        )?);
    }

    // Watchdog + status poll until the aggregator reports Finished.
    let mut driver = HubClient::new(&setup, role::DRIVER, addr, out_dir);
    let started = Instant::now();
    let finished = loop {
        if started.elapsed() >= spec.round_timeout {
            break false;
        }
        // Respawn crashed origins (nonzero exit before completion).
        for cp in children.iter_mut() {
            cp.watch()?;
        }
        match driver.request_msg(&setup, &NetMsg::PullStatus) {
            Ok(NetMsg::Finished) => break true,
            Ok(_) => {}
            // The aggregator may be briefly unreachable while saturated;
            // the client already retried, so just keep polling.
            Err(_) => {}
        }
    };

    // Drain every child, then the aggregator itself.
    let mut failures: Vec<String> = Vec::new();
    for cp in children.iter_mut() {
        let status = cp.wait()?;
        if !status.success() {
            failures.push(format!("{} exited with {status}", cp.name));
        }
    }
    let agg_status = agg.wait()?;
    if !agg_status.success() {
        failures.push(format!("aggregator exited with {agg_status}"));
    }
    if !finished {
        failures.push("driver status poll never saw Finished".into());
    }

    // Merge all metrics files (the driver's own included).
    write_metrics(out_dir, "driver", &driver.metrics())?;
    let mut merged = NetMetrics::default();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(out_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("metrics-") && n.ends_with(".bin"))
        })
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path)?;
        merged.merge(&NetMetrics::decode(&bytes)?);
    }
    std::fs::write(out_dir.join(files::METRICS_MERGED), merged.encode())?;
    std::fs::write(out_dir.join(files::METRICS_JSON), merged.to_json(0) + "\n")?;

    if failures.is_empty() {
        Ok(())
    } else {
        Err(NetError::Decode(failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mycelium::plan::ciphertext_digest;

    /// A device whose contributions fail their well-formedness proof, so
    /// its slots hold the substituted `Enc(x^0)`.
    const CHEATER: VertexId = 3;

    impl AggState {
        /// The full-rehash oracle: the checkpoint byte stream with every
        /// held ciphertext re-serialized and re-hashed from its current
        /// bytes instead of taken from the cache.
        fn digest_full_rehash(&self) -> Digest {
            self.digest_with(|held| ciphertext_digest(held.ct()))
        }
    }

    fn spec(agg_shards: usize) -> RoundSpec {
        RoundSpec {
            with_proofs: true,
            agg_shards,
            ..RoundSpec::default()
        }
    }

    /// One live request (encode, decode, journal, apply, fsync), after
    /// which the cached digest must equal the full-rehash oracle.
    fn checked(st: &mut AggState, msg: &NetMsg) -> NetMsg {
        let raw = msg.encode();
        let decoded = NetMsg::decode(&raw, &st.setup.cc).unwrap();
        let reply = st.handle(decoded, &raw).unwrap();
        assert_eq!(
            st.digest(),
            st.digest_full_rehash(),
            "{}: cached digest diverged after {}",
            st.who,
            msg.kind()
        );
        reply
    }

    /// Pushes every contribution duty for an origin `st` owns. Every
    /// duty is built, owned or not, so each device's ciphertexts do not
    /// depend on the shard layout.
    fn push_contributions(st: &mut AggState) {
        let setup = Arc::clone(&st.setup);
        for (v, duties) in setup.duties.iter().enumerate() {
            let v = v as VertexId;
            let mut rng = StdRng::seed_from_u64(1000 + v as u64);
            for duty in duties {
                let sc = setup
                    .plan
                    .build_contribution(&setup.keys, v, duty.exp, v == CHEATER, &mut rng)
                    .unwrap();
                if st.core.owns_origin(duty.origin) {
                    let msg = NetMsg::PushContrib {
                        origin: duty.origin,
                        slot: duty.slot,
                        sc: Box::new(sc),
                    };
                    assert!(matches!(checked(st, &msg), NetMsg::Ack));
                }
            }
        }
    }

    /// Each owned origin in `origins` pulls its slots, combines them and
    /// submits its row, as an origin process does.
    fn submit_origins(st: &mut AggState, origins: std::ops::Range<u32>) {
        let setup = Arc::clone(&st.setup);
        for v in origins {
            if !st.core.owns_origin(v) {
                continue;
            }
            let NetMsg::OriginJob { cts } = checked(st, &NetMsg::PullOrigin { origin: v }) else {
                panic!("origin {v}: every duty was pushed, the job must be ready");
            };
            let cts: Vec<Ciphertext> = cts.into_iter().map(Option::unwrap).collect();
            let mut rng = StdRng::seed_from_u64(2000 + v as u64);
            let work = &setup.works[v as usize];
            let mut stats = ExecStats::default();
            let row =
                combine_origin(&setup.plan, &setup.keys, work, &cts, &mut stats, &mut rng).unwrap();
            let msg = NetMsg::SubmitOrigin {
                origin: v,
                ct: Box::new(row),
            };
            assert!(matches!(checked(st, &msg), NetMsg::Ack));
        }
    }

    fn checkin(m: u64) -> NetMsg {
        NetMsg::CommitteeCheckIn {
            member: m,
            seed: [m as u8; 32],
        }
    }

    /// Drives the committee from check-in to the decided outcome: the
    /// first wave registers every member and selects; the second hands
    /// each participant its share task.
    fn committee_decides(st: &mut AggState) {
        let setup = Arc::clone(&st.setup);
        for _ in 0..2 {
            for m in 1..=setup.committee_size as u64 {
                if let NetMsg::CommitteeShareTask {
                    round,
                    participants,
                    ct,
                } = checked(st, &checkin(m))
                {
                    let mut rng = StdRng::seed_from_u64(3000 + m);
                    let t = setup.plan.t_pt as i64;
                    let share =
                        decryption_share(&ct, &setup.key_shares, m, &participants, t, &mut rng)
                            .unwrap();
                    let msg = NetMsg::PushShare {
                        member: m,
                        round,
                        share: Box::new(share),
                    };
                    checked(st, &msg);
                }
            }
        }
    }

    /// Member `m`'s certificate signature, as its check-in asks for it.
    fn cert_sig(st: &mut AggState, m: u64) -> NetMsg {
        let NetMsg::CertSignTask { transcript } = checked(st, &checkin(m)) else {
            panic!("member {m}: the decided round asks for its signature");
        };
        let sig = sign_transcript(st.setup.spec.seed, m, &transcript);
        NetMsg::PushCertSig { member: m, sig }
    }

    /// Drives the committee from check-in to the sealed certificate and
    /// checks that the cheater is the one rejected device.
    fn committee_to_outcome(st: &mut AggState) {
        committee_decides(st);
        for m in 1..=st.setup.committee_size as u64 {
            let sig = cert_sig(st, m);
            checked(st, &sig);
        }
        let Some(Ok(outcome)) = st.core.outcome() else {
            panic!("{}: round did not decide: {:?}", st.who, st.failure());
        };
        assert_eq!(outcome.rejected, vec![CHEATER]);
        assert!(st.certificate().is_some(), "certificate sealed");
    }

    #[test]
    fn cached_digest_matches_full_rehash_through_a_recovered_hub_round() {
        let setup = Arc::new(build_setup(&spec(1)).unwrap());
        let n = setup.pop.graph.len() as u32;
        let dir = std::env::temp_dir().join(format!("mycelium-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(files::JOURNAL);

        let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
        push_contributions(&mut st);
        submit_origins(&mut st, 0..n / 2);
        let pre_crash = st.digest();
        drop(st);

        // Recovery rebuilds every held ciphertext, and so its cached
        // digest, from the replayed request bytes; the round continues.
        let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
        assert_eq!(st.digest(), pre_crash);
        assert_eq!(st.digest_full_rehash(), pre_crash);
        submit_origins(&mut st, n / 2..n);
        assert!(
            st.core.aggregate().is_some(),
            "every row in: aggregate formed"
        );
        committee_to_outcome(&mut st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_digest_matches_full_rehash_in_every_shard_and_the_coordinator() {
        let setup = Arc::new(build_setup(&spec(4)).unwrap());
        let n = setup.pop.graph.len() as u32;
        let mut coordinator = AggState::new(Arc::clone(&setup));
        for shard in 0..4 {
            let mut st = AggState::new_shard(Arc::clone(&setup), shard);
            push_contributions(&mut st);
            submit_origins(&mut st, 0..n);
            let root = st.shard_root_msg().expect("shard sealed its root");
            checked(&mut coordinator, &root);
        }
        assert!(
            coordinator.core.aggregate().is_some(),
            "every root in: combined"
        );
        committee_to_outcome(&mut coordinator);
    }

    #[test]
    fn shard_status_polls_are_validated_like_shard_roots() {
        let poll = |st: &mut AggState, shard: u32| {
            let msg = NetMsg::PullShardStatus { shard };
            let raw = msg.encode();
            st.handle(msg, &raw)
        };
        // A hub has no shards, before or after its round is done: a
        // poll naming one is malformed, not a shard that saw the end.
        let setup = Arc::new(build_setup(&spec(1)).unwrap());
        let n = setup.pop.graph.len() as u32;
        let mut hub = AggState::new(Arc::clone(&setup));
        assert!(matches!(poll(&mut hub, 0), Err(NetError::Decode(_))));
        push_contributions(&mut hub);
        submit_origins(&mut hub, 0..n);
        committee_to_outcome(&mut hub);
        assert!(hub.core.round_done());
        assert!(matches!(poll(&mut hub, 0), Err(NetError::Decode(_))));
        assert!(hub.finished_shards.is_empty());

        // A coordinator answers its own shards only.
        let setup = Arc::new(build_setup(&spec(4)).unwrap());
        let mut coordinator = AggState::new(setup);
        for shard in [4, 99] {
            assert!(matches!(
                poll(&mut coordinator, shard),
                Err(NetError::Decode(_))
            ));
        }
        for shard in 0..4 {
            let reply = poll(&mut coordinator, shard).unwrap();
            assert!(matches!(reply, NetMsg::CommitteeWait), "{}", reply.kind());
        }
    }

    /// One live request through the server's serve path, held polls
    /// included; returns the reply and how long it took.
    fn serve(shared: &SharedAgg, msg: &NetMsg) -> (NetMsg, Duration) {
        let raw = msg.encode();
        let setup = Arc::clone(&shared.lock().setup);
        let decoded = NetMsg::decode(&raw, &setup.cc).unwrap();
        let t = Instant::now();
        let reply = shared.serve(decoded, &raw).unwrap();
        (reply, t.elapsed())
    }

    /// Serves `msg` on another thread once the calling thread moves on.
    fn serve_in_background(
        shared: &Arc<SharedAgg>,
        msg: NetMsg,
    ) -> std::thread::JoinHandle<(NetMsg, Duration)> {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || serve(&shared, &msg))
    }

    /// What the journal and the protocol state look like from outside.
    fn footprint(shared: &SharedAgg) -> (u64, Digest, u64) {
        let st = shared.lock();
        (
            st.journal_records(),
            st.digest(),
            st.duplicates_suppressed(),
        )
    }

    #[test]
    fn held_polls_wait_for_the_state_and_write_nothing() {
        let setup = Arc::new(build_setup(&RoundSpec::default()).unwrap());
        let dir = std::env::temp_dir().join(format!("mycelium-held-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut st = AggState::recover(Arc::clone(&setup), &dir.join(files::JOURNAL)).unwrap();

        // Every duty of one origin but its last slot is in.
        let (v, work) = setup
            .works
            .iter()
            .enumerate()
            .find(|(_, w)| w.requests.len() >= 2)
            .expect("some origin has two slots");
        let v = v as u32;
        let mut pushes: Vec<NetMsg> = Vec::new();
        for (w, duties) in setup.duties.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1000 + w as u64);
            for duty in duties.iter().filter(|d| d.origin == v) {
                let sc = setup
                    .plan
                    .build_contribution(&setup.keys, w as VertexId, duty.exp, false, &mut rng)
                    .unwrap();
                pushes.push(NetMsg::PushContrib {
                    origin: v,
                    slot: duty.slot,
                    sc: Box::new(sc),
                });
            }
        }
        assert_eq!(pushes.len(), work.requests.len());
        let last = pushes.pop().unwrap();
        for push in &pushes {
            assert!(matches!(checked(&mut st, push), NetMsg::Ack));
        }
        let shared = SharedAgg::new(st);

        // With no state change the poll is held for the whole bound and
        // answered "nothing yet", leaving journal and state untouched.
        let before = footprint(&shared);
        let (reply, took) = serve(&shared, &NetMsg::PullOrigin { origin: v });
        assert!(
            matches!(reply, NetMsg::OriginPending { .. }),
            "{}",
            reply.kind()
        );
        assert!(took >= POLL_HOLD, "released after {took:?}");
        assert!(took < POLL_HOLD * 4, "held for {took:?}");
        assert_eq!(footprint(&shared), before);

        // A member's first check-in journals its seed, as an unheld one
        // does; holding it and checking in again write nothing more.
        let (reply, _) = serve(&shared, &checkin(1));
        assert!(matches!(reply, NetMsg::CommitteeWait), "{}", reply.kind());
        let registered = footprint(&shared);
        assert!(registered.0 > before.0, "the seed is journaled");
        let (reply, took) = serve(&shared, &checkin(1));
        assert!(matches!(reply, NetMsg::CommitteeWait), "{}", reply.kind());
        assert!(took >= POLL_HOLD, "released after {took:?}");
        assert_eq!(footprint(&shared), registered);

        // The last contribution, handled on another worker, releases the
        // held poll with the job at once.
        let poll = serve_in_background(&shared, NetMsg::PullOrigin { origin: v });
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(serve(&shared, &last).0, NetMsg::Ack));
        let (reply, took) = poll.join().unwrap();
        let NetMsg::OriginJob { cts } = reply else {
            panic!("expected the origin job, got {}", reply.kind());
        };
        assert!(cts.iter().all(Option::is_some));
        assert!(took < POLL_HOLD, "released after {took:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn held_checkin_and_status_are_released_with_finished() {
        let setup = Arc::new(build_setup(&spec(1)).unwrap());
        let n = setup.pop.graph.len() as u32;
        let c = setup.committee_size as u64;
        let mut st = AggState::new(Arc::clone(&setup));
        push_contributions(&mut st);
        submit_origins(&mut st, 0..n);
        committee_decides(&mut st);
        for m in 1..c {
            let sig = cert_sig(&mut st, m);
            checked(&mut st, &sig);
        }
        let last_sig = cert_sig(&mut st, c);
        let shared = SharedAgg::new(st);

        // Member 1 has signed and the driver waits: both polls are held
        // until the last signature seals the certificate.
        let member = serve_in_background(&shared, checkin(1));
        let driver = serve_in_background(&shared, NetMsg::PullStatus);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!shared.lock().core.round_done());
        assert!(matches!(serve(&shared, &last_sig).0, NetMsg::Ack));
        for held in [member, driver] {
            let (reply, took) = held.join().unwrap();
            assert!(matches!(reply, NetMsg::Finished), "{}", reply.kind());
            assert!(took < POLL_HOLD, "released after {took:?}");
        }
        let st = shared.lock();
        assert!(st.driver_seen && st.finished_seen.contains(&1));
        assert!(st.certificate().is_some());
    }
}
