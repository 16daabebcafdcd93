//! The encrypted query round as a message-passing protocol over simnet.
//!
//! [`run_query_encrypted`](crate::exec::run_query_encrypted) executes the
//! round as direct function calls; this module executes the *same* round
//! (same building blocks, from [`crate::plan`]) as actors exchanging
//! messages over a faulty network:
//!
//! * **Device actors** (ids `0..n`) play both protocol roles: as
//!   *neighbors* they encrypt their `x^e` contributions and send them —
//!   with well-formedness proofs — to the aggregator, retrying with
//!   bounded exponential backoff until acked; as *origins* they collect
//!   their neighbors' verified ciphertexts, combine them (§4.4–§4.5),
//!   and submit. A contribution that never arrives by the origin's
//!   deadline defaults to the neutral `Enc(x^0)` (§4.4), so device
//!   drop-outs degrade the answer instead of wedging the round.
//! * **The aggregator actor** (id `n`) verifies each contribution's
//!   proof — substituting `Enc(x^0)` for offenders (§4.7), which is how
//!   Byzantine payload substitution injected through the simnet
//!   [`FaultPlan`] is caught — forwards verified ciphertexts to origins,
//!   sums submissions through the verifiable summation tree, and drives
//!   the committee: ping → pick `t+1` live members → collect decryption
//!   shares, reselecting once if a chosen member crashes mid-phase.
//! * **Committee actors** (ids `n+1..=n+c`) answer pings with their
//!   liveness (and joint-noise seed) and compute decryption shares
//!   against the participant set the aggregator announces — Lagrange
//!   coefficients depend on exactly who participates, so the set is
//!   agreed before any share is computed.
//!
//! The round tolerates up to `c − (t+1)` committee crashes; beyond that
//! the aggregator reports the typed [`SimRoundError::CommitteeUnavailable`]
//! instead of producing a wrong answer. Everything is reproducible from
//! the config seed: same seed ⇒ bit-identical result *and* metrics, at
//! any `MYC_THREADS` setting.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use mycelium_bgv::{Ciphertext, KeySet, Plaintext};
use mycelium_cert::{
    build_segments, commit_origin, noise_commitment, sign_transcript, verify_transcript_sig,
    CertSpec, CommitteeSig, OriginCommit, ReleasedGroup, RoundCertificate, SlotStatus,
};
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::par;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::committee::elect;
use mycelium_sharing::threshold::{
    combine, decryption_share, derive_joint_noise, DecryptionShare, KeyShareSet,
};
use mycelium_simnet::{
    ActorId, Ctx, FaultPlan, LinkModel, Payload, Process, Retrier, RoundMetrics, Simulation, Tick,
};

use crate::committee::CommitteeError;
use crate::decode::decode_aggregate;
use crate::exec::{release_noisy, ExecError, ExecStats, MaliciousBehavior, NoisyGroup};
use crate::params::SystemParams;
use crate::plan::{
    aggregate_and_audit, ciphertext_digest, combine_origin, combine_shard_roots, origin_work,
    seal_shard_root, OriginWork, QueryPlan, SignedContribution,
};
use crate::streams;
use crate::summation::{shard_of, PartialRoot};

/// Timer-key layout (per actor, so ranges only need to be disjoint within
/// one actor): retrier message ids live below `1 << 40`; control keys
/// above `1 << 50`.
const SUBMIT_MSG_ID: u64 = 1 << 40;
const PING_BASE: u64 = 1 << 40;
const SHARE_BASE: u64 = 1 << 41;
const CERT_BASE: u64 = 1 << 42;
const ORIGIN_DEADLINE_KEY: u64 = 1 << 50;
const SUBMIT_DEADLINE_KEY: u64 = 1 << 50;
const PING_DEADLINE_KEY: u64 = (1 << 50) + 1;
const CERT_DEADLINE_KEY: u64 = (1 << 50) + 2;
const SHARE_DEADLINE_BASE: u64 = (1 << 50) + 0x100;

/// Simulated-round configuration.
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// Seed for the whole simulation (network, actors, setup).
    pub seed: u64,
    /// Fault schedule.
    pub fault: FaultPlan,
    /// Link latency model.
    pub latency: LinkModel,
    /// Retrier base timeout (ticks).
    pub base_timeout: Tick,
    /// Retrier retransmission budget per message.
    pub max_retries: u32,
    /// Per-phase deadline (ticks): origins give up waiting for missing
    /// contributions, the aggregator gives up waiting for submissions,
    /// pongs, and shares.
    pub deadline: Tick,
    /// Virtual-time budget for the whole round.
    pub max_ticks: Tick,
    /// Aggregation shards. `1` is the classic single-hub topology; `N > 1`
    /// splits intake across `N` shard actors (devices hash-routed by
    /// [`shard_of`]) that each seal a partial summation-tree root and ship
    /// it to the coordinator — mirroring the real transport plane's
    /// sharded layout.
    pub agg_shards: usize,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            fault: FaultPlan::none(),
            latency: LinkModel::default(),
            base_timeout: 64,
            max_retries: 8,
            deadline: 100_000,
            max_ticks: 10_000_000,
            agg_shards: 1,
        }
    }
}

/// Typed failures of the simulated round.
#[derive(Debug, Clone, PartialEq)]
pub enum SimRoundError {
    /// Planning or cryptographic failure (shared with the direct path).
    Exec(ExecError),
    /// Too few committee members alive to reach the decryption threshold.
    CommitteeUnavailable {
        /// Members that answered pings (or shares) in time.
        alive: usize,
        /// `t + 1`, the number of participants needed.
        need: usize,
    },
    /// The protocol did not complete within the virtual-time budget.
    NotConverged {
        /// Virtual time when the run was cut off.
        elapsed: Tick,
    },
}

impl std::fmt::Display for SimRoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimRoundError::Exec(e) => write!(f, "{e}"),
            SimRoundError::CommitteeUnavailable { alive, need } => {
                write!(f, "committee unavailable: {alive} alive, {need} needed")
            }
            SimRoundError::NotConverged { elapsed } => {
                write!(f, "round did not converge within {elapsed} ticks")
            }
        }
    }
}

impl std::error::Error for SimRoundError {}

impl From<ExecError> for SimRoundError {
    fn from(e: ExecError) -> Self {
        SimRoundError::Exec(e)
    }
}

/// The outcome of a simulated round, mirroring
/// [`EncryptedOutcome`](crate::exec::EncryptedOutcome) plus the network
/// measurements.
#[derive(Debug)]
pub struct SimRoundOutcome {
    /// Decoded exact (pre-noise) result — compare against the oracle.
    pub exact: PlainResult,
    /// The released, noised result.
    pub released: Vec<NoisyGroup>,
    /// Devices whose contributions the aggregator rejected.
    pub rejected_devices: Vec<VertexId>,
    /// Elected committee member device indices.
    pub members: Vec<u64>,
    /// Everything the network measured.
    pub metrics: RoundMetrics,
    /// Virtual time the round took.
    pub elapsed: Tick,
    /// Encoded [`RoundCertificate`] for the round, present when at least
    /// `t + 1` committee members signed the transcript in time.
    pub certificate: Option<Vec<u8>>,
}

/// Wire messages of the round.
#[derive(Clone)]
pub enum RoundMsg {
    /// Device → aggregator: a neighbor contribution for `origin`'s
    /// `slot`, with its well-formedness proof.
    Contrib {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The origin this contribution belongs to.
        origin: VertexId,
        /// Slot in the origin's work list.
        slot: u32,
        /// The signed contribution.
        sc: SignedContribution,
    },
    /// Aggregator → device: contribution received.
    ContribAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → origin: a verified (or substituted) contribution.
    OriginDeliver {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// Slot in the origin's work list.
        slot: u32,
        /// The verified ciphertext.
        ct: Ciphertext,
    },
    /// Origin → aggregator: delivery received.
    OriginAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Origin → aggregator: the combined origin ciphertext.
    Submission {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The submitting origin.
        origin: VertexId,
        /// Its combined ciphertext.
        ct: Ciphertext,
    },
    /// Aggregator → origin: submission received.
    SubmissionAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → committee member: liveness probe.
    Ping {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
    },
    /// Committee member → aggregator: alive, with joint-noise seed.
    Pong {
        /// Echoed retrier id.
        msg_id: u64,
        /// 1-based Shamir member index.
        member: u64,
        /// This member's joint-noise seed contribution.
        seed: [u8; 32],
    },
    /// Aggregator → committee member: compute a decryption share against
    /// this participant set.
    ShareRequest {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// Selection round (bumped on reselection).
        round: u32,
        /// The agreed participant set (Lagrange depends on it).
        participants: Vec<u64>,
        /// The aggregate to decrypt.
        ct: Ciphertext,
    },
    /// Committee member → aggregator: the decryption share.
    Share {
        /// Echoed retrier id.
        msg_id: u64,
        /// Echoed selection round.
        round: u32,
        /// 1-based Shamir member index.
        member: u64,
        /// The share.
        share: DecryptionShare,
    },
    /// Shard → coordinator: the shard's sealed partial summation-tree
    /// root over its owned origins, plus the devices it rejected.
    ShardRootMsg {
        /// Sender-scoped retrier id.
        msg_id: u64,
        /// The sending shard's index.
        shard: u32,
        /// Devices whose contributions failed proof verification.
        rejected: Vec<VertexId>,
        /// The shard tree's root commitment (grafted into the
        /// coordinator's top tree, so the published global root
        /// transitively commits every origin ciphertext).
        commitment: [u8; 32],
        /// How many origins the shard summed.
        leaves: u32,
        /// Frozen per-origin certificate commitments for the shard's
        /// owned origins (leaf plus accepted/rejected slot counts).
        commits: Vec<OriginCommit>,
        /// The shard's homomorphic partial aggregate.
        ct: Ciphertext,
    },
    /// Coordinator → shard: root received.
    ShardRootAck {
        /// Echoed retrier id.
        msg_id: u64,
    },
    /// Aggregator → committee member: sign the round-certificate
    /// transcript.
    CertSignReq {
        /// Aggregator-scoped retrier id.
        msg_id: u64,
        /// The certificate transcript digest to sign.
        transcript: [u8; 32],
    },
    /// Committee member → aggregator: Ed25519 signature over the
    /// transcript.
    CertSig {
        /// Echoed retrier id.
        msg_id: u64,
        /// 1-based Shamir member index.
        member: u64,
        /// The signature.
        sig: [u8; 64],
    },
}

/// Declared wire size of a ciphertext: its full RNS representation.
fn ct_wire_bytes(ct: &Ciphertext) -> usize {
    ct.parts()
        .iter()
        .map(|p| p.residues().iter().map(|r| r.len() * 8).sum::<usize>())
        .sum()
}

impl Payload for RoundMsg {
    fn wire_bytes(&self) -> usize {
        const HDR: usize = 16;
        match self {
            RoundMsg::Contrib { sc, .. } => {
                // Proof size: root + per-opening (index, value, salt, path).
                let proof = sc.proof.as_ref().map_or(0, |p| 32 + p.openings.len() * 96);
                HDR + ct_wire_bytes(&sc.ct) + proof
            }
            RoundMsg::OriginDeliver { ct, .. } | RoundMsg::Submission { ct, .. } => {
                HDR + ct_wire_bytes(ct)
            }
            RoundMsg::ShareRequest {
                participants, ct, ..
            } => HDR + participants.len() * 8 + ct_wire_bytes(ct),
            RoundMsg::Share { share, .. } => {
                // One RNS polynomial (coarse: degree × level unknown here,
                // so meter the share as one ciphertext part would be —
                // this is reporting, not protocol state).
                HDR + 32
                    + share
                        .d
                        .residues()
                        .iter()
                        .map(|r| r.len() * 8)
                        .sum::<usize>()
            }
            RoundMsg::ShardRootMsg {
                rejected,
                commits,
                ct,
                ..
            } => {
                // origin + leaf + accepted + rejected per commit.
                HDR + 4 + rejected.len() * 4 + 32 + 4 + 4 + commits.len() * 44 + ct_wire_bytes(ct)
            }
            RoundMsg::Pong { .. } => HDR + 40,
            RoundMsg::CertSignReq { .. } => HDR + 32,
            RoundMsg::CertSig { .. } => HDR + 72,
            RoundMsg::ContribAck { .. }
            | RoundMsg::OriginAck { .. }
            | RoundMsg::SubmissionAck { .. }
            | RoundMsg::ShardRootAck { .. }
            | RoundMsg::Ping { .. } => HDR,
        }
    }
}

/// One outgoing contribution duty of a device.
#[derive(Debug, Clone)]
struct Duty {
    origin: VertexId,
    slot: u32,
    exp: usize,
}

struct DeviceActor {
    vertex: VertexId,
    /// The round spec seed; all protocol randomness derives from it via
    /// the canonical [`streams`] bases, matching the net executor
    /// bit-for-bit.
    spec_seed: u64,
    agg: ActorId,
    agg_shards: usize,
    shard_base: ActorId,
    plan: Rc<QueryPlan>,
    keys: Rc<KeySet>,
    duties: Vec<Duty>,
    work: OriginWork,
    cheating: bool,
    dropped_out: bool,
    deadline: Tick,
    received: Vec<Option<Ciphertext>>,
    filled: usize,
    combined: bool,
    retrier: Retrier<RoundMsg>,
}

impl DeviceActor {
    /// Where traffic concerning origin `o` goes: the hub in the classic
    /// topology, the owning shard actor in the sharded one.
    fn intake_actor(&self, origin: VertexId) -> ActorId {
        if self.agg_shards > 1 {
            self.shard_base + shard_of(origin, self.agg_shards)
        } else {
            self.agg
        }
    }

    fn combine_and_submit(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if self.combined {
            return;
        }
        self.combined = true;
        // Origin randomness comes from the canonical per-vertex stream —
        // neutral substitutions in slot order, then the combine, off the
        // same rng — exactly the net executor's consumption pattern.
        let mut rng =
            StdRng::seed_from_u64(self.spec_seed).with_stream(streams::ORIGIN + self.vertex as u64);
        // Missing contributions default to the neutral Enc(x^0) (§4.4).
        let cts: Vec<Ciphertext> = self
            .received
            .iter()
            .map(|slot| match slot {
                Some(ct) => ct.clone(),
                None => self
                    .plan
                    .neutral_ct(&self.keys, &mut rng)
                    .expect("neutral encryption"),
            })
            .collect();
        let mut stats = ExecStats::default();
        let out = combine_origin(
            &self.plan, &self.keys, &self.work, &cts, &mut stats, &mut rng,
        )
        .expect("origin combine");
        ctx.phase_done("contrib");
        let msg = RoundMsg::Submission {
            msg_id: SUBMIT_MSG_ID,
            origin: self.vertex,
            ct: out,
        };
        let dst = self.intake_actor(self.vertex);
        self.retrier.send(ctx, SUBMIT_MSG_ID, dst, msg);
    }
}

impl Process<RoundMsg> for DeviceActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        ctx.set_timer(self.deadline, ORIGIN_DEADLINE_KEY);
        if !self.dropped_out {
            // Contribution randomness from the canonical per-vertex
            // stream, consumed in duty order — the net device does the
            // same, so honest ciphertexts are bit-identical.
            let mut rng = StdRng::seed_from_u64(self.spec_seed)
                .with_stream(streams::CONTRIB + self.vertex as u64);
            for i in 0..self.duties.len() {
                let duty = self.duties[i].clone();
                let sc = self
                    .plan
                    .build_contribution(&self.keys, self.vertex, duty.exp, self.cheating, &mut rng)
                    .expect("contribution encryption");
                let msg = RoundMsg::Contrib {
                    msg_id: i as u64,
                    origin: duty.origin,
                    slot: duty.slot,
                    sc,
                };
                let dst = self.intake_actor(duty.origin);
                self.retrier.send(ctx, i as u64, dst, msg);
            }
        }
        if self.work.requests.is_empty() {
            self.combine_and_submit(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        match msg {
            RoundMsg::ContribAck { msg_id } | RoundMsg::SubmissionAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::OriginDeliver { msg_id, slot, ct } => {
                ctx.send(from, RoundMsg::OriginAck { msg_id });
                let slot = slot as usize;
                if self.received[slot].is_none() {
                    self.received[slot] = Some(ct);
                    self.filled += 1;
                    if self.filled == self.received.len() {
                        self.combine_and_submit(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        if key == ORIGIN_DEADLINE_KEY {
            self.combine_and_submit(ctx);
            return;
        }
        // Exhausted retries: the receiving side's deadline substitution
        // takes over, so there is nothing left to do here.
        let _ = self.retrier.on_timer(ctx, key);
    }
}

/// Shared slot the aggregator writes the round result into.
#[derive(Default)]
struct AggOutcome {
    plaintext: Option<Plaintext>,
    noise: Vec<i64>,
    rejected: Vec<VertexId>,
    certificate: Option<Vec<u8>>,
    error: Option<SimRoundError>,
}

struct AggregatorActor {
    plan: Rc<QueryPlan>,
    keys: Rc<KeySet>,
    query: Rc<Query>,
    spec_seed: u64,
    with_proofs: bool,
    n_devices: usize,
    committee_size: usize,
    threshold: usize,
    noise_scale: f64,
    charged_epsilon: f64,
    deadline: Tick,
    // Contribution forwarding.
    seen_contribs: BTreeSet<(VertexId, u32)>,
    next_fwd_id: u64,
    retrier: Retrier<RoundMsg>,
    // Submissions (hub topology).
    submissions: Vec<Option<Ciphertext>>,
    got_submissions: usize,
    // Sealed shard roots (sharded topology; empty at `agg_shards <= 1`).
    agg_shards: usize,
    shard_roots: Vec<Option<PartialRoot>>,
    got_roots: usize,
    aggregated: bool,
    aggregate: Option<Ciphertext>,
    // Committee phase.
    pongs: Vec<Option<[u8; 32]>>,
    share_phase: bool,
    round: u32,
    reselected: bool,
    participants: Vec<u64>,
    shares: Vec<Option<DecryptionShare>>,
    finished: bool,
    // Certificate plane: per-slot intake outcomes (hub topology), frozen
    // per-origin commitments (all topologies), and the signing phase.
    slot_map: Rc<Vec<Vec<VertexId>>>,
    statuses: BTreeMap<(VertexId, u32), SlotStatus>,
    commits: Vec<Option<OriginCommit>>,
    cert_rejected: Vec<VertexId>,
    cert: Option<RoundCertificate>,
    cert_sigs: Vec<Option<[u8; 64]>>,
    outcome: Rc<RefCell<AggOutcome>>,
}

impl AggregatorActor {
    fn member_actor(&self, member: u64) -> ActorId {
        self.n_devices + member as usize
    }

    fn fail(&mut self, ctx: &mut Ctx<RoundMsg>, err: SimRoundError) {
        self.finished = true;
        self.outcome.borrow_mut().error = Some(err);
        ctx.halt();
    }

    /// Freezes the hub's per-origin certificate commitments from the slot
    /// statuses recorded at intake. Runs *before* the aggregate is sealed
    /// — the commitment-then-seal ordering the WAL journals in the net
    /// executor — so late contributions can no longer move the tree.
    fn freeze_commits(&mut self) {
        for v in 0..self.n_devices {
            let slots: Vec<(u32, SlotStatus)> = self.slot_map[v]
                .iter()
                .enumerate()
                .map(|(s, &d)| {
                    let status = self
                        .statuses
                        .get(&(v as VertexId, s as u32))
                        .copied()
                        .unwrap_or(SlotStatus::Missing);
                    if matches!(status, SlotStatus::Rejected) && !self.cert_rejected.contains(&d) {
                        self.cert_rejected.push(d);
                    }
                    (d, status)
                })
                .collect();
            self.commits[v] = Some(commit_origin(v as u32, &slots));
        }
    }

    fn start_aggregate(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if self.aggregated {
            return;
        }
        self.aggregated = true;
        if self.agg_shards <= 1 {
            self.freeze_commits();
        }
        let aggregate = if self.agg_shards > 1 {
            // Coordinator: every shard root is present (the coordinator
            // never deadlines out of intake — it waits, bounded by the
            // round's virtual-time budget). Graft them into the top tree.
            let parts: Vec<PartialRoot> = self
                .shard_roots
                .iter()
                .map(|r| r.clone().expect("all shard roots collected"))
                .collect();
            match combine_shard_roots(parts) {
                Ok(ct) => ct,
                Err(e) => return self.fail(ctx, e.into()),
            }
        } else {
            // Origins that never submitted (crashed devices) contribute
            // the additive-neutral Enc(0).
            let (n_ring, t_pt) = (self.plan.n_ring, self.plan.t_pt);
            let cts: Result<Vec<Ciphertext>, ExecError> = self
                .submissions
                .iter()
                .map(|s| match s {
                    Some(ct) => Ok(ct.clone()),
                    None => Ok(Ciphertext::encrypt(
                        &self.keys.public,
                        &Plaintext::zero(n_ring, t_pt),
                        ctx.rng(),
                    )?),
                })
                .collect();
            match cts.and_then(aggregate_and_audit) {
                Ok(ct) => ct,
                Err(e) => return self.fail(ctx, e.into()),
            }
        };
        self.aggregate = Some(aggregate);
        ctx.phase_done("aggregate");
        // Committee phase: probe liveness first — the participant set
        // must be agreed before shares are computed.
        for m in 1..=self.committee_size as u64 {
            let dst = self.member_actor(m);
            self.retrier.send(
                ctx,
                PING_BASE + m,
                dst,
                RoundMsg::Ping {
                    msg_id: PING_BASE + m,
                },
            );
        }
        ctx.set_timer(self.deadline, PING_DEADLINE_KEY);
    }

    fn alive_members(&self) -> Vec<u64> {
        (1..=self.committee_size as u64)
            .filter(|&m| self.pongs[m as usize - 1].is_some())
            .collect()
    }

    fn select_participants(&mut self, ctx: &mut Ctx<RoundMsg>) {
        self.share_phase = true;
        let alive = self.alive_members();
        let need = self.threshold + 1;
        if alive.len() < need {
            return self.fail(
                ctx,
                SimRoundError::CommitteeUnavailable {
                    alive: alive.len(),
                    need,
                },
            );
        }
        self.round += 1;
        self.participants = alive[..need].to_vec();
        self.shares = vec![None; self.committee_size + 1];
        let aggregate = self.aggregate.clone().expect("aggregated");
        for &m in &self.participants.clone() {
            let msg_id = SHARE_BASE + ((self.round as u64) << 20) + m;
            let dst = self.member_actor(m);
            self.retrier.send(
                ctx,
                msg_id,
                dst,
                RoundMsg::ShareRequest {
                    msg_id,
                    round: self.round,
                    participants: self.participants.clone(),
                    ct: aggregate.clone(),
                },
            );
        }
        ctx.set_timer(self.deadline, SHARE_DEADLINE_BASE + self.round as u64);
    }

    fn finish_committee(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if self.finished {
            return;
        }
        self.finished = true;
        let aggregate = self.aggregate.as_ref().expect("aggregated");
        let shares: Vec<DecryptionShare> = self
            .participants
            .iter()
            .map(|&m| self.shares[m as usize].clone().expect("share collected"))
            .collect();
        let plaintext = match combine(aggregate, &shares, self.threshold) {
            Ok(pt) => pt,
            Err(e) => {
                return self.fail(
                    ctx,
                    ExecError::Committee(CommitteeError::Threshold(e)).into(),
                )
            }
        };
        // Joint noise from the seeds of every member that proved alive,
        // in member order (commit-then-combine elided, as in the direct
        // path).
        let seeds: Vec<[u8; 32]> = self.pongs.iter().filter_map(|p| *p).collect();
        let noise = derive_joint_noise(&seeds, self.noise_scale, self.plan.released_values());
        let exact = decode_aggregate(&plaintext, &self.query, &self.plan.analysis);
        let released = release_noisy(&exact, &noise, self.plan.released_len);
        {
            let mut out = self.outcome.borrow_mut();
            out.plaintext = Some(plaintext);
            out.noise = noise;
        }
        ctx.phase_done("committee");
        // The round result is durable; what remains is collecting
        // committee signatures over the certificate transcript, so the
        // halt is deferred to `seal_cert`.
        self.start_cert(ctx, &released, &seeds);
    }

    /// Assembles the round certificate and asks every committee member to
    /// sign its transcript.
    fn start_cert(&mut self, ctx: &mut Ctx<RoundMsg>, released: &[NoisyGroup], seeds: &[[u8; 32]]) {
        let commits: Vec<OriginCommit> = self
            .commits
            .iter()
            .map(|c| {
                c.clone()
                    .expect("every origin commitment frozen before sealing")
            })
            .collect();
        let leaves: Vec<[u8; 32]> = commits.iter().map(|c| c.leaf).collect();
        let counts: Vec<(u32, u32)> = commits.iter().map(|c| (c.accepted, c.rejected)).collect();
        let (segments, contrib_root) = build_segments(&leaves, &counts);
        let mut rejected: Vec<u32> = self.cert_rejected.to_vec();
        rejected.sort_unstable();
        rejected.dedup();
        let spec = CertSpec {
            seed: self.spec_seed,
            devices: self.n_devices as u32,
            query: self.query.name.clone(),
            with_proofs: self.with_proofs,
        };
        let mut cert = RoundCertificate {
            spec_digest: spec.digest(),
            spec,
            committee: self.committee_size as u32,
            threshold: self.threshold as u32,
            share_round: self.round,
            participants: self.participants.iter().map(|&m| m as u32).collect(),
            leaves,
            segments,
            contrib_root,
            rejected,
            aggregate_digest: ciphertext_digest(self.aggregate.as_ref().expect("aggregated")),
            noise_commitment: noise_commitment(seeds),
            charged_epsilon_bits: self.charged_epsilon.to_bits(),
            released: released
                .iter()
                .map(|g| ReleasedGroup {
                    label: g.label.clone(),
                    histogram: g.histogram.clone(),
                })
                .collect(),
            transcript: [0u8; 32],
            signatures: Vec::new(),
        };
        cert.transcript = cert.compute_transcript();
        for m in 1..=self.committee_size as u64 {
            let dst = self.member_actor(m);
            self.retrier.send(
                ctx,
                CERT_BASE + m,
                dst,
                RoundMsg::CertSignReq {
                    msg_id: CERT_BASE + m,
                    transcript: cert.transcript,
                },
            );
        }
        ctx.set_timer(self.deadline, CERT_DEADLINE_KEY);
        self.cert = Some(cert);
    }

    /// Attaches whatever valid signatures arrived and halts the round.
    /// Fewer than `t + 1` signatures means no certificate — the round
    /// result stands, but it is not independently checkable.
    fn seal_cert(&mut self, ctx: &mut Ctx<RoundMsg>) {
        let Some(mut cert) = self.cert.take() else {
            return;
        };
        cert.signatures = (1..=self.committee_size as u64)
            .filter_map(|m| self.cert_sigs[m as usize].map(|sig| CommitteeSig { member: m, sig }))
            .collect();
        if cert.signatures.len() > self.threshold {
            self.outcome.borrow_mut().certificate = Some(cert.encode());
        }
        ctx.phase_done("certify");
        ctx.halt();
    }
}

impl Process<RoundMsg> for AggregatorActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // Origins substitute at `deadline`, then combine and submit; give
        // the submissions one more deadline on top.
        ctx.set_timer(self.deadline * 2, SUBMIT_DEADLINE_KEY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        match msg {
            RoundMsg::Contrib {
                msg_id,
                origin,
                slot,
                sc,
            } => {
                ctx.send(from, RoundMsg::ContribAck { msg_id });
                if !self.seen_contribs.insert((origin, slot)) {
                    return;
                }
                // §4.6–§4.7: verify the well-formedness proof; discard
                // offenders, substituting the neutral Enc(x^0). The slot
                // outcome is recorded for the certificate commitment —
                // accepted slots with the digest of the ciphertext *as
                // verified*, before any substitution.
                let digest = ciphertext_digest(&sc.ct);
                let ct = if self.plan.verify_proof(sc.proof.as_ref(), &digest) {
                    self.statuses
                        .insert((origin, slot), SlotStatus::Accepted(digest));
                    sc.ct
                } else {
                    self.statuses.insert((origin, slot), SlotStatus::Rejected);
                    let mut out = self.outcome.borrow_mut();
                    if !out.rejected.contains(&sc.device) {
                        out.rejected.push(sc.device);
                    }
                    drop(out);
                    self.plan
                        .neutral_ct(&self.keys, ctx.rng())
                        .expect("neutral encryption")
                };
                let fwd_id = self.next_fwd_id;
                self.next_fwd_id += 1;
                self.retrier.send(
                    ctx,
                    fwd_id,
                    origin as ActorId,
                    RoundMsg::OriginDeliver {
                        msg_id: fwd_id,
                        slot,
                        ct,
                    },
                );
            }
            RoundMsg::OriginAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::Submission { msg_id, origin, ct } => {
                ctx.send(from, RoundMsg::SubmissionAck { msg_id });
                let slot = origin as usize;
                // A coordinator holds no per-origin slots (devices route
                // submissions to their owning shard), so a stray
                // submission is acked and dropped.
                if slot < self.submissions.len() && self.submissions[slot].is_none() {
                    self.submissions[slot] = Some(ct);
                    self.got_submissions += 1;
                    ctx.phase_done("submit");
                    if self.got_submissions == self.n_devices {
                        self.start_aggregate(ctx);
                    }
                }
            }
            RoundMsg::ShardRootMsg {
                msg_id,
                shard,
                rejected,
                commitment,
                leaves,
                commits,
                ct,
            } => {
                ctx.send(from, RoundMsg::ShardRootAck { msg_id });
                let s = shard as usize;
                if s >= self.shard_roots.len() || self.shard_roots[s].is_some() {
                    return;
                }
                {
                    let mut out = self.outcome.borrow_mut();
                    for w in rejected {
                        if !out.rejected.contains(&w) {
                            out.rejected.push(w);
                        }
                        if !self.cert_rejected.contains(&w) {
                            self.cert_rejected.push(w);
                        }
                    }
                }
                for cmt in commits {
                    let o = cmt.origin as usize;
                    if o < self.commits.len() && self.commits[o].is_none() {
                        self.commits[o] = Some(cmt);
                    }
                }
                self.shard_roots[s] = Some(PartialRoot {
                    sum: ct,
                    commitment,
                    leaf_count: leaves as usize,
                });
                self.got_roots += 1;
                if self.got_roots == self.agg_shards {
                    self.start_aggregate(ctx);
                }
            }
            RoundMsg::Pong {
                msg_id,
                member,
                seed,
            } => {
                self.retrier.ack(msg_id);
                if self.share_phase {
                    return;
                }
                let idx = member as usize - 1;
                if self.pongs[idx].is_none() {
                    self.pongs[idx] = Some(seed);
                    if self.alive_members().len() == self.committee_size {
                        self.select_participants(ctx);
                    }
                }
            }
            RoundMsg::Share {
                msg_id,
                round,
                member,
                share,
            } => {
                self.retrier.ack(msg_id);
                if self.finished || round != self.round || !self.participants.contains(&member) {
                    return;
                }
                if self.shares[member as usize].is_none() {
                    self.shares[member as usize] = Some(share);
                    let got = self
                        .participants
                        .iter()
                        .filter(|&&m| self.shares[m as usize].is_some())
                        .count();
                    if got == self.participants.len() {
                        self.finish_committee(ctx);
                    }
                }
            }
            RoundMsg::CertSig {
                msg_id,
                member,
                sig,
            } => {
                self.retrier.ack(msg_id);
                let Some(cert) = &self.cert else { return };
                let idx = member as usize;
                if idx == 0 || idx > self.committee_size || self.cert_sigs[idx].is_some() {
                    return;
                }
                // A forged or corrupted signature is simply not counted;
                // the deadline decides whether the quorum was reached.
                if !verify_transcript_sig(self.spec_seed, member, &cert.transcript, &sig) {
                    return;
                }
                self.cert_sigs[idx] = Some(sig);
                if (1..=self.committee_size).all(|m| self.cert_sigs[m].is_some()) {
                    self.seal_cert(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // Crash-durable restart (the simnet model of the journaled
        // aggregator): state survived intact, but every armed timer and
        // in-flight send died with the process. Re-send everything
        // unacknowledged and re-arm the deadline of the phase the
        // journal replay landed us in.
        if self.finished {
            if self.cert.is_some() {
                self.retrier.resend_all(ctx);
                ctx.set_timer(self.deadline, CERT_DEADLINE_KEY);
            }
            return;
        }
        self.retrier.resend_all(ctx);
        if !self.aggregated {
            ctx.set_timer(self.deadline * 2, SUBMIT_DEADLINE_KEY);
        } else if !self.share_phase {
            ctx.set_timer(self.deadline, PING_DEADLINE_KEY);
        } else {
            ctx.set_timer(self.deadline, SHARE_DEADLINE_BASE + self.round as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        if key == CERT_DEADLINE_KEY {
            self.seal_cert(ctx);
            return;
        }
        if self.finished {
            // Only certificate-sign retries stay live after the result is
            // durable; everything else died with the round.
            if self.cert.is_some() {
                let _ = self.retrier.on_timer(ctx, key);
            }
            return;
        }
        if key == SUBMIT_DEADLINE_KEY {
            // A coordinator never substitutes for a missing shard — it
            // keeps waiting (a crashed shard replays and retries), bounded
            // by the round's virtual-time budget.
            if self.agg_shards <= 1 {
                self.start_aggregate(ctx);
            }
            return;
        }
        if key == PING_DEADLINE_KEY {
            if !self.share_phase {
                self.select_participants(ctx);
            }
            return;
        }
        if key == SHARE_DEADLINE_BASE + self.round as u64 && self.round > 0 {
            // A chosen member crashed between pong and share. Mark the
            // non-responders dead and reselect once.
            let missing: Vec<u64> = self
                .participants
                .iter()
                .copied()
                .filter(|&m| self.shares[m as usize].is_none())
                .collect();
            if missing.is_empty() {
                return;
            }
            if self.reselected {
                let alive = self.alive_members().len();
                return self.fail(
                    ctx,
                    SimRoundError::CommitteeUnavailable {
                        alive,
                        need: self.threshold + 1,
                    },
                );
            }
            self.reselected = true;
            for m in missing {
                self.pongs[m as usize - 1] = None;
            }
            self.select_participants(ctx);
            return;
        }
        let _ = self.retrier.on_timer(ctx, key);
    }
}

/// One aggregation shard of the sharded topology: plays the hub's intake
/// role (verify proofs, forward to origins, collect submissions) for the
/// origins it owns, then seals its partial summation-tree root and ships
/// it to the coordinator.
struct ShardActor {
    shard: u32,
    coord: ActorId,
    plan: Rc<QueryPlan>,
    keys: Rc<KeySet>,
    /// `owned[v]`: whether this shard owns origin `v`.
    owned: Vec<bool>,
    owned_count: usize,
    deadline: Tick,
    seen_contribs: BTreeSet<(VertexId, u32)>,
    next_fwd_id: u64,
    retrier: Retrier<RoundMsg>,
    submissions: Vec<Option<Ciphertext>>,
    got_submissions: usize,
    sealed: bool,
    rejected: Vec<VertexId>,
    /// `slot_map[o][s]`: the device expected to fill origin `o`'s slot
    /// `s` — the shape of the certificate commitment leaves.
    slot_map: Rc<Vec<Vec<VertexId>>>,
    /// Per-slot intake outcomes, frozen into commitment leaves at seal.
    statuses: BTreeMap<(VertexId, u32), SlotStatus>,
    outcome: Rc<RefCell<AggOutcome>>,
}

impl ShardActor {
    fn seal(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        // Owned origins that never submitted contribute the
        // additive-neutral Enc(0), exactly like the hub; a shard that
        // owns no origins at all seals a single Enc(0) so the
        // coordinator's tree stays total over shards.
        let (n_ring, t_pt) = (self.plan.n_ring, self.plan.t_pt);
        let mut cts: Result<Vec<Ciphertext>, ExecError> = self
            .submissions
            .iter()
            .zip(&self.owned)
            .filter(|(_, &o)| o)
            .map(|(s, _)| match s {
                Some(ct) => Ok(ct.clone()),
                None => Ok(Ciphertext::encrypt(
                    &self.keys.public,
                    &Plaintext::zero(n_ring, t_pt),
                    ctx.rng(),
                )?),
            })
            .collect();
        if let Ok(v) = &cts {
            if v.is_empty() {
                cts = Ciphertext::encrypt(&self.keys.public, &Plaintext::zero(n_ring, t_pt), {
                    ctx.rng()
                })
                .map(|ct| vec![ct])
                .map_err(Into::into);
            }
        }
        let part = match cts.and_then(seal_shard_root) {
            Ok(p) => p,
            Err(e) => {
                self.outcome.borrow_mut().error = Some(e.into());
                ctx.halt();
                return;
            }
        };
        ctx.phase_done("seal");
        // Freeze the per-origin certificate commitments for the owned
        // origins — before the root ships, mirroring the net shard's
        // journal ordering.
        let commits: Vec<OriginCommit> = self
            .owned
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o)
            .map(|(v, _)| {
                let slots: Vec<(u32, SlotStatus)> = self.slot_map[v]
                    .iter()
                    .enumerate()
                    .map(|(s, &d)| {
                        let status = self
                            .statuses
                            .get(&(v as VertexId, s as u32))
                            .copied()
                            .unwrap_or(SlotStatus::Missing);
                        (d, status)
                    })
                    .collect();
                commit_origin(v as u32, &slots)
            })
            .collect();
        let msg = RoundMsg::ShardRootMsg {
            msg_id: SUBMIT_MSG_ID,
            shard: self.shard,
            rejected: std::mem::take(&mut self.rejected),
            commitment: part.commitment,
            leaves: part.leaf_count as u32,
            commits,
            ct: part.sum,
        };
        let coord = self.coord;
        self.retrier.send(ctx, SUBMIT_MSG_ID, coord, msg);
    }
}

impl Process<RoundMsg> for ShardActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        ctx.set_timer(self.deadline * 2, SUBMIT_DEADLINE_KEY);
        if self.owned_count == 0 {
            self.seal(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        match msg {
            RoundMsg::Contrib {
                msg_id,
                origin,
                slot,
                sc,
            } => {
                ctx.send(from, RoundMsg::ContribAck { msg_id });
                if !self.seen_contribs.insert((origin, slot)) {
                    return;
                }
                // §4.6–§4.7, per shard: verify the well-formedness proof;
                // discard offenders, substituting the neutral Enc(x^0).
                // Slot outcomes are recorded for the certificate
                // commitment, with accepted digests taken pre-substitution.
                let digest = ciphertext_digest(&sc.ct);
                let ct = if self.plan.verify_proof(sc.proof.as_ref(), &digest) {
                    self.statuses
                        .insert((origin, slot), SlotStatus::Accepted(digest));
                    sc.ct
                } else {
                    self.statuses.insert((origin, slot), SlotStatus::Rejected);
                    if !self.rejected.contains(&sc.device) {
                        self.rejected.push(sc.device);
                    }
                    self.plan
                        .neutral_ct(&self.keys, ctx.rng())
                        .expect("neutral encryption")
                };
                let fwd_id = self.next_fwd_id;
                self.next_fwd_id += 1;
                self.retrier.send(
                    ctx,
                    fwd_id,
                    origin as ActorId,
                    RoundMsg::OriginDeliver {
                        msg_id: fwd_id,
                        slot,
                        ct,
                    },
                );
            }
            RoundMsg::OriginAck { msg_id } | RoundMsg::ShardRootAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::Submission { msg_id, origin, ct } => {
                ctx.send(from, RoundMsg::SubmissionAck { msg_id });
                let slot = origin as usize;
                if !self.owned.get(slot).copied().unwrap_or(false) {
                    return;
                }
                if self.submissions[slot].is_none() {
                    self.submissions[slot] = Some(ct);
                    self.got_submissions += 1;
                    ctx.phase_done("submit");
                    if self.got_submissions == self.owned_count {
                        self.seal(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // The simnet model of the WAL-journaled shard: state survives,
        // timers and in-flight sends do not.
        self.retrier.resend_all(ctx);
        if !self.sealed {
            ctx.set_timer(self.deadline * 2, SUBMIT_DEADLINE_KEY);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        if key == SUBMIT_DEADLINE_KEY {
            self.seal(ctx);
            return;
        }
        let _ = self.retrier.on_timer(ctx, key);
    }
}

struct CommitteeActor {
    member: u64,
    /// The round spec seed, under which this member's certificate signing
    /// key is derived (hermetic stand-in for deployed PKI).
    spec_seed: u64,
    key_shares: Rc<KeyShareSet>,
    seed: [u8; 32],
    /// Canonical per-member randomness stream (`COMMITTEE + m`): fills the
    /// joint-noise seed, then feeds share smudging — the same consumption
    /// order as the net committee member.
    rng: StdRng,
}

impl Process<RoundMsg> for CommitteeActor {
    fn on_start(&mut self, _ctx: &mut Ctx<RoundMsg>) {
        self.rng.fill(&mut self.seed);
    }

    fn on_message(&mut self, ctx: &mut Ctx<RoundMsg>, from: ActorId, msg: RoundMsg) {
        match msg {
            RoundMsg::Ping { msg_id } => {
                ctx.send(
                    from,
                    RoundMsg::Pong {
                        msg_id,
                        member: self.member,
                        seed: self.seed,
                    },
                );
            }
            RoundMsg::ShareRequest {
                msg_id,
                round,
                participants,
                ct,
            } => {
                if !participants.contains(&self.member) {
                    return;
                }
                let share = decryption_share(
                    &ct,
                    &self.key_shares,
                    self.member,
                    &participants,
                    1 << 10,
                    &mut self.rng,
                )
                .expect("share computation on relinearized aggregate");
                ctx.send(
                    from,
                    RoundMsg::Share {
                        msg_id,
                        round,
                        member: self.member,
                        share,
                    },
                );
            }
            RoundMsg::CertSignReq { msg_id, transcript } => {
                let sig = sign_transcript(self.spec_seed, self.member, &transcript);
                ctx.send(
                    from,
                    RoundMsg::CertSig {
                        msg_id,
                        member: self.member,
                        sig,
                    },
                );
            }
            _ => {}
        }
    }
}

/// Runs the encrypted query round as a message-passing protocol over the
/// simnet, under the given fault plan. The cryptographic pipeline is the
/// same as [`run_query_encrypted`](crate::exec::run_query_encrypted) —
/// with a healthy network (or one whose losses the retries recover) the
/// exact (pre-noise) result is identical to the direct path's.
///
/// `MaliciousBehavior` maps onto the network: a `DropOut` device sends no
/// contributions (origins substitute `Enc(x^0)` at their deadline); an
/// `OversizedContribution` device submits forged-proof contributions that
/// the aggregator rejects. Listing device actors in
/// `cfg.fault.byzantine` substitutes their `Contrib` payloads in flight
/// with an oversized (forged-proof) contribution — the Byzantine payload
/// arrives as a real message and is caught by the same proof check.
#[allow(clippy::too_many_arguments)]
pub fn run_query_simulated(
    query: &Query,
    pop: &Population,
    params: &SystemParams,
    keys: &KeySet,
    behaviors: &[MaliciousBehavior],
    with_proofs: bool,
    budget: &mut PrivacyBudget,
    cfg: &SimNetConfig,
) -> Result<SimRoundOutcome, SimRoundError> {
    let plan = QueryPlan::new(query, pop, params, with_proofs)?;
    // The committee will not release anything the budget cannot cover;
    // charge up front, exactly like the direct path (§4.4).
    budget
        .charge(params.epsilon)
        .map_err(|e| ExecError::Committee(CommitteeError::Budget(e)))?;
    let n = pop.graph.len();
    let c = params.committee_size;
    let t = c / 2;
    let members = elect(params.devices.max(n as u64), c, b"query-beacon");
    let mut setup_rng = StdRng::seed_from_u64(cfg.seed).with_stream(streams::DEAL);
    let key_shares = Rc::new(KeyShareSet::deal(&keys.secret, t, c, &mut setup_rng));
    let keys = Rc::new(keys.clone());

    // Plan every origin's work (pure, thread-count-invariant), then
    // invert it into per-device contribution duties.
    let works: Vec<OriginWork> =
        par::map_indices(n, |v| origin_work(&plan, query, params, pop, v as VertexId));
    let plan = Rc::new(plan);
    let mut duties: Vec<Vec<Duty>> = vec![Vec::new(); n];
    for work in &works {
        for (slot, &(w, exp)) in work.requests.iter().enumerate() {
            duties[w as usize].push(Duty {
                origin: work.origin,
                slot: slot as u32,
                exp,
            });
        }
    }
    // The certificate commitment's leaf shape: which device fills each of
    // an origin's contribution slots.
    let slot_map: Rc<Vec<Vec<VertexId>>> = Rc::new(
        works
            .iter()
            .map(|w| w.requests.iter().map(|&(d, _)| d).collect())
            .collect(),
    );
    let query_rc = Rc::new(query.clone());

    let outcome = Rc::new(RefCell::new(AggOutcome::default()));
    let mut sim: Simulation<RoundMsg> = Simulation::new(cfg.seed)
        .with_latency(cfg.latency)
        .with_fault_plan(cfg.fault.clone());
    if !cfg.fault.byzantine.is_empty() {
        // In-flight Byzantine substitution: the payload is replaced by an
        // oversized contribution whose witness violates the one-hot
        // circuit, so proof verification at the aggregator fails and the
        // contribution is attributed to the sending device. (Substituting
        // only the ciphertext would not do: this spot-check argument has
        // no prover secret, so binding is per-witness, not per-statement —
        // the deployed system's Groth16 + end-to-end authentication is
        // what rules that out; see DESIGN.md.)
        let evil = plan
            .build_contribution(&keys, 0, 0, true, &mut setup_rng)
            .expect("evil contribution");
        sim = sim.with_tamper(move |_src, _dst, msg: &mut RoundMsg| {
            if let RoundMsg::Contrib { sc, .. } = msg {
                sc.ct = evil.ct.clone();
                sc.proof = evil.proof.clone();
                true
            } else {
                false
            }
        });
    }
    let shards = cfg.agg_shards.max(1);
    // Actor id layout: devices `0..n`, aggregator/coordinator `n`,
    // committee `n+1..=n+c`, shard actors appended after (`n+c+1 + s`) so
    // every classic actor keeps its id — and therefore its rng stream —
    // at any shard count.
    let shard_base = n + c + 1;
    for (v, work) in works.into_iter().enumerate() {
        let slots = work.requests.len();
        sim.add_actor(Box::new(DeviceActor {
            vertex: v as VertexId,
            spec_seed: cfg.seed,
            agg: n,
            agg_shards: shards,
            shard_base,
            plan: Rc::clone(&plan),
            keys: Rc::clone(&keys),
            duties: std::mem::take(&mut duties[v]),
            work,
            cheating: MaliciousBehavior::is_cheater(behaviors, v as VertexId),
            dropped_out: MaliciousBehavior::dropped_out(behaviors, v as VertexId),
            deadline: cfg.deadline,
            received: vec![None; slots],
            filled: 0,
            combined: false,
            retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
        }));
    }
    sim.add_actor(Box::new(AggregatorActor {
        plan: Rc::clone(&plan),
        keys: Rc::clone(&keys),
        query: Rc::clone(&query_rc),
        spec_seed: cfg.seed,
        with_proofs,
        n_devices: n,
        committee_size: c,
        threshold: t,
        noise_scale: plan.analysis.sensitivity / params.epsilon,
        charged_epsilon: params.epsilon,
        deadline: cfg.deadline,
        seen_contribs: BTreeSet::new(),
        next_fwd_id: 0,
        retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
        submissions: vec![None; if shards > 1 { 0 } else { n }],
        got_submissions: 0,
        agg_shards: shards,
        shard_roots: vec![None; if shards > 1 { shards } else { 0 }],
        got_roots: 0,
        aggregated: false,
        aggregate: None,
        pongs: vec![None; c],
        share_phase: false,
        round: 0,
        reselected: false,
        participants: Vec::new(),
        shares: vec![None; c + 1],
        finished: false,
        slot_map: Rc::clone(&slot_map),
        statuses: BTreeMap::new(),
        commits: vec![None; n],
        cert_rejected: Vec::new(),
        cert: None,
        cert_sigs: vec![None; c + 1],
        outcome: Rc::clone(&outcome),
    }));
    for m in 1..=c as u64 {
        sim.add_actor(Box::new(CommitteeActor {
            member: m,
            spec_seed: cfg.seed,
            key_shares: Rc::clone(&key_shares),
            seed: [0u8; 32],
            rng: StdRng::seed_from_u64(cfg.seed).with_stream(streams::COMMITTEE + m),
        }));
    }
    if shards > 1 {
        for s in 0..shards {
            let owned: Vec<bool> = (0..n)
                .map(|v| shard_of(v as VertexId, shards) == s)
                .collect();
            let owned_count = owned.iter().filter(|&&o| o).count();
            sim.add_actor(Box::new(ShardActor {
                shard: s as u32,
                coord: n,
                plan: Rc::clone(&plan),
                keys: Rc::clone(&keys),
                owned,
                owned_count,
                deadline: cfg.deadline,
                seen_contribs: BTreeSet::new(),
                next_fwd_id: 0,
                retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
                submissions: vec![None; n],
                got_submissions: 0,
                sealed: false,
                rejected: Vec::new(),
                slot_map: Rc::clone(&slot_map),
                statuses: BTreeMap::new(),
                outcome: Rc::clone(&outcome),
            }));
        }
    }

    let report = sim.run(cfg.max_ticks);
    let mut agg_out = outcome.borrow_mut();
    if let Some(err) = agg_out.error.take() {
        return Err(err);
    }
    let Some(plaintext) = agg_out.plaintext.take() else {
        return Err(SimRoundError::NotConverged {
            elapsed: report.elapsed,
        });
    };
    let exact = decode_aggregate(&plaintext, query, &plan.analysis);
    let released = release_noisy(&exact, &agg_out.noise, plan.released_len);
    let mut rejected_devices = agg_out.rejected.clone();
    rejected_devices.sort_unstable();
    Ok(SimRoundOutcome {
        exact,
        released,
        rejected_devices,
        members,
        metrics: sim.metrics.clone(),
        elapsed: report.elapsed,
        certificate: agg_out.certificate.take(),
    })
}
