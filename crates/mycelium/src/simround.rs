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
//! * **The aggregation actors** adapt [`AggCore`](crate::aggcore::AggCore),
//!   the aggregation plane's one state machine, which the multi-process
//!   executor drives too. The hub (id `n`) runs it in hub mode; with
//!   `agg_shards > 1`, id `n` is the coordinator and the intake shard
//!   actors follow the committee. The core verifies each contribution's
//!   proof and substitutes `Enc(x^0)` for offenders (§4.7), which is how
//!   Byzantine payload substitution injected through the simnet
//!   [`FaultPlan`] is caught. It sums submissions through the verifiable
//!   summation tree and drives the committee: pick `t+1` checked-in
//!   members, collect decryption shares, reselect once if a chosen
//!   member crashes mid-phase. The actor pushes verified ciphertexts to
//!   origins and pings and tasks to members through its retrier, and
//!   turns its timers into the core's deadlines.
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
use std::rc::Rc;

use mycelium_bgv::{Ciphertext, KeySet};
use mycelium_cert::{sign_transcript, OriginCommit};
use mycelium_dp::PrivacyBudget;
use mycelium_graph::generate::Population;
use mycelium_graph::graph::VertexId;
use mycelium_math::par;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::committee::elect;
use mycelium_sharing::threshold::{decryption_share, DecryptionShare, KeyShareSet};
use mycelium_simnet::{
    ActorId, Ctx, FaultPlan, LinkModel, Payload, Process, Retrier, RoundMetrics, Simulation, Tick,
};

use crate::aggcore::{
    AggConfig, AggCore, AggEnv, AggFailure, AggMode, Deadlines, Delivery, MemberTask, RoundOutcome,
    Transition,
};
use crate::committee::CommitteeError;
use crate::exec::{ExecError, ExecStats, MaliciousBehavior, NoisyGroup};
use crate::params::SystemParams;
use crate::plan::{
    combine_origin, duties, origin_work, Duty, OriginWork, QueryPlan, SignedContribution,
};
use crate::streams;
use crate::summation::shard_of;

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

impl From<AggFailure> for SimRoundError {
    fn from(f: AggFailure) -> Self {
        match f {
            AggFailure::Substitute(e) => SimRoundError::Exec(e.into()),
            AggFailure::Aggregation(e) => SimRoundError::Exec(e),
            AggFailure::CommitteeUnavailable { alive, need } => {
                SimRoundError::CommitteeUnavailable { alive, need }
            }
            AggFailure::Combine(e) => {
                SimRoundError::Exec(ExecError::Committee(CommitteeError::Threshold(e)))
            }
            AggFailure::Aborted(why) => unreachable!("no simnet adapter aborts a round: {why}"),
        }
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
        /// The sealed root's `ciphertext_digest` (metered on the wire;
        /// the coordinator sums the roots themselves).
        commitment: [u8; 32],
        /// How many rows the shard summed: its owned origins, or the one
        /// `Enc(0)` of a shard that owns none.
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

/// The round's shared planning data: what every actor reads and the
/// aggregation core's [`AggEnv`].
struct SimEnv {
    plan: QueryPlan,
    keys: KeySet,
    query: Query,
    works: Vec<OriginWork>,
}

impl AggEnv for SimEnv {
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

struct DeviceActor {
    vertex: VertexId,
    /// The round spec seed; all protocol randomness derives from it via
    /// the canonical [`streams`] bases, matching the net executor
    /// bit-for-bit.
    spec_seed: u64,
    agg: ActorId,
    agg_shards: usize,
    shard_base: ActorId,
    env: Rc<SimEnv>,
    duties: Vec<Duty>,
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
        let env = &*self.env;
        // Missing contributions default to the neutral Enc(x^0) (§4.4).
        let cts: Vec<Ciphertext> = self
            .received
            .iter()
            .map(|slot| match slot {
                Some(ct) => ct.clone(),
                None => env
                    .plan
                    .neutral_ct(&env.keys, &mut rng)
                    .expect("neutral encryption"),
            })
            .collect();
        let mut stats = ExecStats::default();
        let work = &env.works[self.vertex as usize];
        let out = combine_origin(&env.plan, &env.keys, work, &cts, &mut stats, &mut rng)
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
                    .env
                    .plan
                    .build_contribution(
                        &self.env.keys,
                        self.vertex,
                        duty.exp,
                        self.cheating,
                        &mut rng,
                    )
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
        if self.received.is_empty() {
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

/// Where the aggregation actors write what the round produced.
#[derive(Default)]
struct SimReport {
    outcome: Option<Result<RoundOutcome, AggFailure>>,
    certificate: Option<Vec<u8>>,
}

/// The simnet adapter over [`AggCore`], in any of its modes: the hub, the
/// coordinator, or an intake shard. It pushes each verified (or
/// substituted) contribution to its origin, sends pings, share requests
/// and signature requests to the committee through its retrier, turns
/// its timers into [`Deadlines`], and performs what each transition
/// starts.
struct AggActor {
    core: AggCore,
    env: Rc<SimEnv>,
    /// The coordinator's actor id, for an intake shard.
    coord: Option<ActorId>,
    n_devices: usize,
    committee_size: usize,
    deadline: Tick,
    /// Deadlines whose timers fired.
    late: Deadlines,
    next_fwd_id: u64,
    retrier: Retrier<RoundMsg>,
    /// Whether the decided outcome reached `report`.
    reported: bool,
    report: Rc<RefCell<SimReport>>,
}

impl AggActor {
    fn member_actor(&self, member: u64) -> ActorId {
        self.n_devices + member as usize
    }

    /// Sends every member the task the core has for it: a share request
    /// to each participant after a selection, a signature request to
    /// every member once the outcome is decided.
    fn send_tasks(&mut self, ctx: &mut Ctx<RoundMsg>) {
        for m in 1..=self.committee_size as u64 {
            let dst = self.member_actor(m);
            let (msg_id, msg) = match self.core.member_task(m) {
                None => continue,
                Some(MemberTask::Share {
                    round,
                    participants,
                    aggregate,
                }) => {
                    let msg_id = SHARE_BASE + ((round as u64) << 20) + m;
                    let msg = RoundMsg::ShareRequest {
                        msg_id,
                        round,
                        participants: participants.to_vec(),
                        ct: aggregate.clone(),
                    };
                    (msg_id, msg)
                }
                Some(MemberTask::Sign(transcript)) => {
                    let msg_id = CERT_BASE + m;
                    let msg = RoundMsg::CertSignReq {
                        msg_id,
                        transcript: *transcript,
                    };
                    (msg_id, msg)
                }
            };
            self.retrier.send(ctx, msg_id, dst, msg);
        }
    }

    /// Applies every due transition and starts what each one opens, then
    /// reports a newly decided outcome.
    fn advance(&mut self, ctx: &mut Ctx<RoundMsg>) {
        while let Some(t) = self.core.due(self.late) {
            self.core.apply(&*self.env, t);
            match t {
                Transition::Aggregate if self.core.outcome().is_none() => self.aggregated(ctx),
                Transition::Select | Transition::Reselect if self.core.outcome().is_none() => {
                    self.late.shares = false;
                    self.send_tasks(ctx);
                    let round = self.core.share_round() as u64;
                    ctx.set_timer(self.deadline, SHARE_DEADLINE_BASE + round);
                }
                Transition::Seal => {
                    self.report.borrow_mut().certificate =
                        self.core.certificate().map(<[u8]>::to_vec);
                    ctx.phase_done("certify");
                    ctx.halt();
                }
                _ => {}
            }
        }
        if self.reported {
            return;
        }
        let Some(outcome) = self.core.outcome() else {
            return;
        };
        self.reported = true;
        self.report.borrow_mut().outcome = Some(outcome.clone());
        if outcome.is_err() {
            return ctx.halt();
        }
        ctx.phase_done("committee");
        // The round result is decided; what remains is collecting
        // committee signatures over the certificate transcript.
        self.send_tasks(ctx);
        if self.core.round_done() {
            // No certificate to collect (incomplete commitment plane).
            return ctx.halt();
        }
        ctx.set_timer(self.deadline, CERT_DEADLINE_KEY);
    }

    /// The aggregate exists: a shard ships its sealed root to the
    /// coordinator; the hub and the coordinator probe the committee's
    /// liveness, since the participant set must be agreed before shares
    /// are computed.
    fn aggregated(&mut self, ctx: &mut Ctx<RoundMsg>) {
        if let Some(coord) = self.coord {
            ctx.phase_done("seal");
            let sealed = self
                .core
                .sealed_shard()
                .expect("a shard's aggregate is its root");
            let msg = RoundMsg::ShardRootMsg {
                msg_id: SUBMIT_MSG_ID,
                shard: sealed.shard,
                rejected: sealed.rejected,
                commitment: *sealed.root.digest(),
                leaves: sealed.commits.len().max(1) as u32,
                commits: sealed.commits,
                ct: sealed.root.ct().clone(),
            };
            return self.retrier.send(ctx, SUBMIT_MSG_ID, coord, msg);
        }
        ctx.phase_done("aggregate");
        for m in 1..=self.committee_size as u64 {
            let msg_id = PING_BASE + m;
            let dst = self.member_actor(m);
            self.retrier
                .send(ctx, msg_id, dst, RoundMsg::Ping { msg_id });
        }
        ctx.set_timer(self.deadline, PING_DEADLINE_KEY);
    }
}

impl Process<RoundMsg> for AggActor {
    fn on_start(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // Origins substitute at `deadline`, then combine and submit; give
        // the submissions one more deadline on top.
        ctx.set_timer(self.deadline * 2, SUBMIT_DEADLINE_KEY);
        // A shard that owns no origin seals at once.
        self.advance(ctx);
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
                if self.core.contribute(&*self.env, origin, slot, sc) == Ok(Delivery::New) {
                    // Push the verified (or substituted) ciphertext to
                    // its origin.
                    let slots = self.core.origin_slots(origin).expect("just filled");
                    let ct = slots[slot as usize]
                        .as_ref()
                        .expect("just filled")
                        .ct()
                        .clone();
                    let msg_id = self.next_fwd_id;
                    self.next_fwd_id += 1;
                    let msg = RoundMsg::OriginDeliver { msg_id, slot, ct };
                    self.retrier.send(ctx, msg_id, origin as ActorId, msg);
                }
            }
            RoundMsg::OriginAck { msg_id } | RoundMsg::ShardRootAck { msg_id } => {
                self.retrier.ack(msg_id);
            }
            RoundMsg::Submission { msg_id, origin, ct } => {
                ctx.send(from, RoundMsg::SubmissionAck { msg_id });
                if self.core.submit(origin, ct) == Ok(Delivery::New) {
                    ctx.phase_done("submit");
                }
            }
            RoundMsg::ShardRootMsg {
                msg_id,
                shard,
                rejected,
                commits,
                ct,
                ..
            } => {
                ctx.send(from, RoundMsg::ShardRootAck { msg_id });
                let _ = self.core.shard_root(shard, rejected, commits, ct);
            }
            RoundMsg::Pong {
                msg_id,
                member,
                seed,
            } => {
                self.retrier.ack(msg_id);
                let _ = self.core.check_in(member, seed);
            }
            RoundMsg::Share {
                msg_id,
                round,
                member,
                share,
            } => {
                self.retrier.ack(msg_id);
                let _ = self.core.push_share(&*self.env, member, round, share);
            }
            RoundMsg::CertSig {
                msg_id,
                member,
                sig,
            } => {
                self.retrier.ack(msg_id);
                let _ = self.core.push_cert_sig(member, sig);
            }
            _ => return,
        }
        self.advance(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<RoundMsg>) {
        // Crash-durable restart (the simnet model of the journaled
        // aggregator): state survived intact, but every armed timer and
        // in-flight send died with the process. Re-send everything
        // unacknowledged and re-arm the deadline of the phase the
        // journal replay landed us in.
        if self.core.round_done() {
            return;
        }
        self.retrier.resend_all(ctx);
        let (delay, key) = if self.core.outcome().is_some() {
            (self.deadline, CERT_DEADLINE_KEY)
        } else if self.core.aggregate().is_none() {
            (self.deadline * 2, SUBMIT_DEADLINE_KEY)
        } else if self.coord.is_some() {
            return;
        } else if self.core.participants().is_empty() {
            (self.deadline, PING_DEADLINE_KEY)
        } else {
            let round = self.core.share_round() as u64;
            (self.deadline, SHARE_DEADLINE_BASE + round)
        };
        ctx.set_timer(delay, key);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RoundMsg>, key: u64) {
        let share_deadline = SHARE_DEADLINE_BASE + self.core.share_round() as u64;
        match key {
            SUBMIT_DEADLINE_KEY => self.late.intake = true,
            PING_DEADLINE_KEY => self.late.checkin = true,
            CERT_DEADLINE_KEY => self.late.signatures = true,
            k if k == share_deadline && self.core.share_round() > 0 => self.late.shares = true,
            _ => {
                // Once the round is done no retry is wanted any more.
                if !self.core.round_done() {
                    let _ = self.retrier.on_timer(ctx, key);
                }
                return;
            }
        }
        self.advance(ctx);
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

    // Plan every origin's work (pure, thread-count-invariant), then
    // invert it into per-device contribution duties.
    let works: Vec<OriginWork> =
        par::map_indices(n, |v| origin_work(&plan, query, params, pop, v as VertexId));
    let mut duties = duties(&works);
    let env = Rc::new(SimEnv {
        plan,
        keys: keys.clone(),
        query: query.clone(),
        works,
    });

    let report = Rc::new(RefCell::new(SimReport::default()));
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
        let evil = env
            .plan
            .build_contribution(&env.keys, 0, 0, true, &mut setup_rng)
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
    for (v, duties) in duties.iter_mut().enumerate() {
        sim.add_actor(Box::new(DeviceActor {
            vertex: v as VertexId,
            spec_seed: cfg.seed,
            agg: n,
            agg_shards: shards,
            shard_base,
            env: Rc::clone(&env),
            duties: std::mem::take(duties),
            cheating: MaliciousBehavior::is_cheater(behaviors, v as VertexId),
            dropped_out: MaliciousBehavior::dropped_out(behaviors, v as VertexId),
            deadline: cfg.deadline,
            received: vec![None; env.works[v].requests.len()],
            filled: 0,
            combined: false,
            retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
        }));
    }
    let core_cfg = AggConfig {
        seed: cfg.seed,
        with_proofs,
        committee_size: c,
        threshold: t,
        epsilon: params.epsilon,
    };
    let agg_actor = |mode: AggMode, coord: Option<ActorId>| {
        Box::new(AggActor {
            core: AggCore::new(&*env, core_cfg, mode),
            env: Rc::clone(&env),
            coord,
            n_devices: n,
            committee_size: c,
            deadline: cfg.deadline,
            late: Deadlines::default(),
            next_fwd_id: 0,
            retrier: Retrier::new(cfg.base_timeout, cfg.max_retries),
            reported: false,
            report: Rc::clone(&report),
        })
    };
    sim.add_actor(agg_actor(AggMode::hub_process(shards), None));
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
            sim.add_actor(agg_actor(AggMode::shard(s as u32, shards, n), Some(n)));
        }
    }

    let run = sim.run(cfg.max_ticks);
    let mut report = report.borrow_mut();
    let outcome = match report.outcome.take() {
        None => {
            return Err(SimRoundError::NotConverged {
                elapsed: run.elapsed,
            })
        }
        Some(outcome) => outcome?,
    };
    Ok(SimRoundOutcome {
        exact: outcome.exact,
        released: outcome.released,
        rejected_devices: outcome.rejected,
        members,
        metrics: sim.metrics.clone(),
        elapsed: run.elapsed,
        certificate: report.certificate.take(),
    })
}
