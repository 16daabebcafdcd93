//! The aggregation plane's round logic, written once.
//!
//! The aggregator decides every query round (§4): it checks each
//! contribution's well-formedness proof and substitutes the neutral
//! `Enc(x^0)` for offenders (§4.7), sums the origins' ciphertexts through
//! the summation tree, has `t + 1` committee members threshold-decrypt
//! the aggregate and add joint noise, and seals a round certificate the
//! committee signs. [`AggCore`] is that logic as one sans-IO state
//! machine, in three [`AggMode`]s: the single hub, an intake shard, and
//! the coordinator that folds the shards' roots.
//!
//! The core has no sockets, clocks, journal or wire messages. Inputs are
//! method calls, each with a `check_*` twin that says what the input
//! would do ([`Delivery`]) without doing it. Time enters only as
//! [`Deadlines`], the deadlines that have passed: [`AggCore::due`] names
//! the transition that is due, and the adapter applies it with
//! [`AggCore::apply`]. Two adapters drive the core:
//!
//! * `mycelium_net::round::AggState` journals every new input and every
//!   transition (as a mark record) before applying it, and recovers by
//!   re-feeding both from the journal. It keeps the journal, the state
//!   digest, the privacy-budget ledger and the wire-message mapping.
//! * The simnet aggregation actor of [`crate::simround`] pushes verified
//!   contributions to origins and tasks to committee members through
//!   retriers, and turns its timers into deadlines.

use std::collections::{BTreeMap, BTreeSet};

use mycelium_bgv::{BgvError, Ciphertext, KeySet, Plaintext};
use mycelium_cert::{
    build_segments, commit_origin, noise_commitment, verify_transcript_sig, CertSpec, CommitteeSig,
    OriginCommit, ReleasedGroup, RoundCertificate, SlotStatus,
};
use mycelium_crypto::sha256::Digest;
use mycelium_graph::graph::VertexId;
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_query::ast::Query;
use mycelium_query::eval::PlainResult;
use mycelium_sharing::threshold::{combine, derive_joint_noise, DecryptionShare, ThresholdError};

use crate::decode::decode_aggregate;
use crate::exec::{release_noisy, ExecError, NoisyGroup};
use crate::plan::{aggregate_and_audit, OriginWork, QueryPlan, SignedContribution};
use crate::streams;
use crate::summation::shard_of;

/// The round's shared, read-only planning data, as each executor holds
/// it.
pub trait AggEnv {
    /// The query plan (proof circuit, ring, released layout).
    fn plan(&self) -> &QueryPlan;
    /// The BGV keys (substitutions encrypt under the public key).
    fn keys(&self) -> &KeySet;
    /// The query (decoding the aggregate, the certificate's spec).
    fn query(&self) -> &Query;
    /// Every origin's work, by vertex: `works()[o].requests[s].0` is the
    /// device expected to fill origin `o`'s slot `s`.
    fn works(&self) -> &[OriginWork];
}

/// The round parameters the core needs beyond the [`AggEnv`].
#[derive(Debug, Clone, Copy)]
pub struct AggConfig {
    /// The round spec seed: the substitution rng stream, the certificate
    /// spec and the members' signing keys derive from it.
    pub seed: u64,
    /// Whether contributions carry well-formedness proofs.
    pub with_proofs: bool,
    /// Committee size `c`.
    pub committee_size: usize,
    /// Shamir threshold `t` (`t + 1` participants decrypt).
    pub threshold: usize,
    /// The round's epsilon: calibrates the joint noise, and is the
    /// certificate's charged epsilon unless a budget ledger admitted
    /// another ([`AggCore::set_charged_epsilon`]).
    pub epsilon: f64,
}

/// Which role in the aggregation plane an [`AggCore`] plays. Each mode
/// enables a subset of the inputs.
pub enum AggMode {
    /// Classic single hub: intake and the committee protocol in one
    /// process.
    Hub,
    /// One of `agg_shards` intake shards: verifies proofs and sums the
    /// origins it owns (`shard_of(v) == shard`); no committee state.
    Shard {
        /// This shard's index.
        shard: u32,
        /// `owned[v]`: whether origin `v` hashes to this shard.
        owned: Vec<bool>,
        /// Number of owned origins (the intake-complete target).
        owned_count: usize,
    },
    /// The thin coordinator: collects sealed shard roots (its
    /// "submissions" are per-shard partial aggregates, not per-origin
    /// rows), sums them, and drives the committee exactly like the hub.
    Coordinator {
        /// Total shard count (the intake-complete target).
        shards: u32,
    },
}

impl AggMode {
    /// The mode of the plane's hub process: the single hub at one shard,
    /// the coordinator above that.
    pub fn hub_process(shards: usize) -> Self {
        if shards > 1 {
            AggMode::Coordinator {
                shards: shards as u32,
            }
        } else {
            AggMode::Hub
        }
    }

    /// Intake shard `shard` of `shards`, over `n` origins.
    pub fn shard(shard: u32, shards: usize, n: usize) -> Self {
        let owned: Vec<bool> = (0..n)
            .map(|v| shard_of(v as VertexId, shards) == shard as usize)
            .collect();
        let owned_count = owned.iter().filter(|&&b| b).count();
        AggMode::Shard {
            shard,
            owned,
            owned_count,
        }
    }
}

mod held {
    use crate::plan::ciphertext_digest;
    use mycelium_bgv::Ciphertext;
    use mycelium_crypto::sha256::Digest;

    /// A ciphertext the aggregator holds, with its [`ciphertext_digest`]
    /// taken once, when it enters the state. The fields are private to
    /// this module, so no slot can hold a ciphertext without the digest
    /// of exactly those bytes, and checkpoints hash 32 cached bytes per
    /// slot instead of re-serializing every stored residue.
    #[derive(Clone)]
    pub struct HeldCt {
        ct: Ciphertext,
        digest: Digest,
    }

    impl HeldCt {
        /// Holds `ct`, digesting it once.
        pub fn new(ct: Ciphertext) -> Self {
            let digest = ciphertext_digest(&ct);
            HeldCt { ct, digest }
        }

        /// The held ciphertext.
        pub fn ct(&self) -> &Ciphertext {
            &self.ct
        }

        /// Its cached [`ciphertext_digest`].
        pub fn digest(&self) -> &Digest {
            &self.digest
        }
    }
}

pub use held::HeldCt;

/// Which deadlines have passed. The adapter owns the clock; the core only
/// reads these flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadlines {
    /// Intake: the hub or a shard stops waiting for origin rows, and the
    /// missing ones contribute `Enc(0)`. The coordinator ignores it.
    pub intake: bool,
    /// Check-in: participants are selected from whoever checked in.
    pub checkin: bool,
    /// Shares: the current selection's stragglers are dropped (one
    /// reselect, then the round fails).
    pub shares: bool,
    /// Signatures: the certificate is sealed with whatever signatures
    /// arrived.
    pub signatures: bool,
}

/// A phase transition the round's state or a deadline made due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Freeze the per-origin certificate commitments. Always precedes
    /// [`Transition::Aggregate`]: commitment-then-seal is what keeps late
    /// contributions from moving the committed tree.
    Commit,
    /// Form the aggregate (the shard's root, in a shard).
    Aggregate,
    /// Select the first `t + 1` checked-in members as participants.
    Select,
    /// Drop the straggling participants and select again.
    Reselect,
    /// Stragglers after the one reselect: the round fails.
    GiveUp,
    /// Seal the certificate with the signatures that arrived.
    Seal,
}

/// What an input does to the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// It changes the state: the first copy of a write.
    New,
    /// A redelivery of a write the state already holds.
    Duplicate,
    /// Nothing to do: the phase it belongs to is over, or (check-ins) it
    /// is a repeat poll.
    Stale,
}

/// An input that names something outside this core's round or mode.
#[derive(Debug, Clone, PartialEq)]
pub enum InputError {
    /// No such (owned) origin slot.
    ContribOutOfRange {
        /// The origin named.
        origin: u32,
        /// The slot named.
        slot: u32,
    },
    /// No such (owned) origin.
    OriginOutOfRange(u32),
    /// No such committee member, or no committee in this mode.
    MemberOutOfRange(u64),
    /// Shard traffic at a process that is not the coordinator.
    NotCoordinator,
    /// No such shard.
    ShardOutOfRange(u32),
    /// A shard root rejected a device outside the population.
    RejectedOutsidePopulation(u32),
    /// A shard root committed an origin outside the population.
    CommitOutsidePopulation(u32),
    /// Encrypting the `Enc(x^0)` substitute for a rejected contribution
    /// failed.
    Neutral(ExecError),
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::ContribOutOfRange { origin, slot } => {
                write!(
                    f,
                    "contribution for origin {origin} slot {slot} out of range"
                )
            }
            InputError::OriginOutOfRange(o) => write!(f, "origin {o} out of range"),
            InputError::MemberOutOfRange(m) => write!(f, "member {m} out of range"),
            InputError::NotCoordinator => write!(f, "shard traffic at a non-coordinator"),
            InputError::ShardOutOfRange(s) => write!(f, "shard {s} out of range"),
            InputError::RejectedOutsidePopulation(s) => {
                write!(f, "shard {s} rejected a device outside the population")
            }
            InputError::CommitOutsidePopulation(s) => {
                write!(f, "shard {s} committed an origin outside the population")
            }
            InputError::Neutral(e) => write!(f, "neutral encryption failed: {e}"),
        }
    }
}

impl std::error::Error for InputError {}

/// Why a round failed. The `Display` text is what the net executor
/// journals and hashes into its state digest.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFailure {
    /// Encrypting `Enc(0)` for a missing origin row failed.
    Substitute(BgvError),
    /// Building or auditing the summation tree failed.
    Aggregation(ExecError),
    /// Too few committee members alive to reach the threshold.
    CommitteeUnavailable {
        /// Members that checked in (minus dropped stragglers).
        alive: usize,
        /// `t + 1`.
        need: usize,
    },
    /// Threshold combination of the shares failed.
    Combine(ThresholdError),
    /// The adapter ended the round for a reason outside the protocol
    /// (a budget refusal, a journal failure); displayed verbatim.
    Aborted(String),
}

impl std::fmt::Display for AggFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggFailure::Substitute(e) => write!(f, "substitute encryption failed: {e}"),
            AggFailure::Aggregation(e) => write!(f, "aggregation failed: {e}"),
            AggFailure::CommitteeUnavailable { alive, need } => {
                write!(f, "committee unavailable: {alive} alive, {need} needed")
            }
            AggFailure::Combine(e) => write!(f, "threshold combine failed: {e}"),
            AggFailure::Aborted(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for AggFailure {}

/// What the aggregator releases at the end of the round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Decoded exact (pre-noise) result.
    pub exact: PlainResult,
    /// The released, noised result.
    pub released: Vec<NoisyGroup>,
    /// Devices whose contributions failed proof verification, sorted.
    pub rejected: Vec<VertexId>,
}

/// What the round wants from one committee member now.
pub enum MemberTask<'a> {
    /// Compute a decryption share of `aggregate` for this participant
    /// set (Lagrange coefficients depend on exactly who participates).
    Share {
        /// Selection round (bumped on reselection).
        round: u32,
        /// The agreed participant set.
        participants: &'a [u64],
        /// The aggregate to decrypt.
        aggregate: &'a Ciphertext,
    },
    /// Sign this certificate transcript.
    Sign(&'a Digest),
}

/// An intake shard's sealed contribution to the coordinator.
pub struct SealedShard<'a> {
    /// The shard's index.
    pub shard: u32,
    /// Devices the shard rejected, sorted.
    pub rejected: Vec<VertexId>,
    /// Frozen commitments of the shard's owned origins.
    pub commits: Vec<OriginCommit>,
    /// The shard's partial aggregate.
    pub root: &'a HeldCt,
}

/// The aggregation plane's protocol state (see the module docs).
pub struct AggCore {
    cfg: AggConfig,
    mode: AggMode,
    n: usize,
    // Intake: verified (or substituted) per-(origin, slot) ciphertexts.
    contribs: Vec<Vec<Option<HeldCt>>>,
    seen: BTreeSet<(u32, u32)>,
    rejected: Vec<VertexId>,
    // Origin rows (hub, shard) or sealed shard roots (coordinator).
    submissions: Vec<Option<HeldCt>>,
    got_submissions: usize,
    aggregate: Option<HeldCt>,
    // Committee.
    pongs: Vec<Option<[u8; 32]>>,
    share_round: u32,
    participants: Vec<u64>,
    reselected: bool,
    shares: Vec<Option<DecryptionShare>>,
    // Certificate plane: per-slot intake outcomes, frozen per-origin
    // commitments, and the signed round certificate.
    statuses: BTreeMap<(u32, u32), SlotStatus>,
    commits: Vec<Option<OriginCommit>>,
    commits_frozen: bool,
    cert: Option<RoundCertificate>,
    cert_sigs: Vec<Option<[u8; 64]>>,
    cert_sealed: bool,
    cert_bytes: Option<Vec<u8>>,
    charged_epsilon: f64,
    outcome: Option<Result<RoundOutcome, AggFailure>>,
    /// Substitution randomness: the `AGGREGATOR` stream, `+ 1 + shard` in
    /// a shard.
    rng: StdRng,
}

impl AggCore {
    /// Fresh state for `mode`.
    pub fn new(env: &impl AggEnv, cfg: AggConfig, mode: AggMode) -> Self {
        let works = env.works();
        let n = works.len();
        let c = cfg.committee_size;
        let (contribs, submissions) = match &mode {
            AggMode::Coordinator { shards } => (Vec::new(), vec![None; *shards as usize]),
            _ => (
                works.iter().map(|w| vec![None; w.requests.len()]).collect(),
                vec![None; n],
            ),
        };
        let stream = match &mode {
            AggMode::Shard { shard, .. } => streams::AGGREGATOR + 1 + *shard as u64,
            _ => streams::AGGREGATOR,
        };
        AggCore {
            mode,
            n,
            contribs,
            seen: BTreeSet::new(),
            rejected: Vec::new(),
            submissions,
            got_submissions: 0,
            aggregate: None,
            pongs: vec![None; c],
            share_round: 0,
            participants: Vec::new(),
            reselected: false,
            shares: vec![None; c + 1],
            statuses: BTreeMap::new(),
            commits: vec![None; n],
            commits_frozen: false,
            cert: None,
            cert_sigs: vec![None; c + 1],
            cert_sealed: false,
            cert_bytes: None,
            charged_epsilon: cfg.epsilon,
            outcome: None,
            rng: StdRng::seed_from_u64(cfg.seed).with_stream(stream),
            cfg,
        }
    }

    /// The role this core plays.
    pub fn mode(&self) -> &AggMode {
        &self.mode
    }

    /// Whether this core takes intake traffic for origin `origin`.
    pub fn owns_origin(&self, origin: u32) -> bool {
        match &self.mode {
            AggMode::Hub => (origin as usize) < self.n,
            AggMode::Shard { owned, .. } => owned.get(origin as usize).copied().unwrap_or(false),
            AggMode::Coordinator { .. } => false,
        }
    }

    /// A write the state already holds is a duplicate; otherwise it is
    /// new until the round is done.
    fn classify_write(&self, held: bool) -> Delivery {
        if held {
            Delivery::Duplicate
        } else if self.round_done() {
            Delivery::Stale
        } else {
            Delivery::New
        }
    }

    // --- inputs ----------------------------------------------------------

    /// What a contribution for `origin`'s `slot` would do.
    pub fn check_contrib(&self, origin: u32, slot: u32) -> Result<Delivery, InputError> {
        if !self.owns_origin(origin) || slot as usize >= self.contribs[origin as usize].len() {
            return Err(InputError::ContribOutOfRange { origin, slot });
        }
        Ok(self.classify_write(self.seen.contains(&(origin, slot))))
    }

    /// A device's contribution for `origin`'s `slot`. The first copy is
    /// proof-checked (§4.6–§4.7): an offender's slot holds the neutral
    /// `Enc(x^0)` instead and its device joins the reject set. The slot
    /// status recorded for the certificate commitment carries the digest
    /// of the ciphertext *as verified*, before any substitution; that one
    /// digest is the proof statement, the slot status and the held
    /// ciphertext's cached digest.
    pub fn contribute(
        &mut self,
        env: &impl AggEnv,
        origin: u32,
        slot: u32,
        sc: SignedContribution,
    ) -> Result<Delivery, InputError> {
        let delivery = self.check_contrib(origin, slot)?;
        if delivery != Delivery::New {
            return Ok(delivery);
        }
        self.seen.insert((origin, slot));
        let held = HeldCt::new(sc.ct);
        let held = if env.plan().verify_proof(sc.proof.as_ref(), held.digest()) {
            self.statuses
                .insert((origin, slot), SlotStatus::Accepted(*held.digest()));
            held
        } else {
            self.statuses.insert((origin, slot), SlotStatus::Rejected);
            if !self.rejected.contains(&sc.device) {
                self.rejected.push(sc.device);
            }
            let neutral = env
                .plan()
                .neutral_ct(env.keys(), &mut self.rng)
                .map_err(InputError::Neutral)?;
            HeldCt::new(neutral)
        };
        self.contribs[origin as usize][slot as usize] = Some(held);
        Ok(delivery)
    }

    /// Origin `origin`'s slots, as verified or substituted so far.
    pub fn origin_slots(&self, origin: u32) -> Result<&[Option<HeldCt>], InputError> {
        if !self.owns_origin(origin) {
            return Err(InputError::OriginOutOfRange(origin));
        }
        Ok(&self.contribs[origin as usize])
    }

    /// What origin `origin`'s combined row would do.
    pub fn check_submission(&self, origin: u32) -> Result<Delivery, InputError> {
        if !self.owns_origin(origin) {
            return Err(InputError::OriginOutOfRange(origin));
        }
        Ok(self.classify_write(self.submissions[origin as usize].is_some()))
    }

    /// Origin `origin`'s combined row (first copy wins).
    pub fn submit(&mut self, origin: u32, ct: Ciphertext) -> Result<Delivery, InputError> {
        let delivery = self.check_submission(origin)?;
        if delivery == Delivery::New {
            self.submissions[origin as usize] = Some(HeldCt::new(ct));
            self.got_submissions += 1;
        }
        Ok(delivery)
    }

    /// Whether this core is the coordinator and `shard` one of its shards.
    pub fn check_shard(&self, shard: u32) -> Result<(), InputError> {
        match self.mode {
            AggMode::Coordinator { shards } if shard < shards => Ok(()),
            AggMode::Coordinator { .. } => Err(InputError::ShardOutOfRange(shard)),
            _ => Err(InputError::NotCoordinator),
        }
    }

    /// What shard `shard`'s sealed root would do.
    pub fn check_shard_root(
        &self,
        shard: u32,
        rejected: &[VertexId],
        commits: &[OriginCommit],
    ) -> Result<Delivery, InputError> {
        self.check_shard(shard)?;
        if rejected.iter().any(|&v| v as usize >= self.n) {
            return Err(InputError::RejectedOutsidePopulation(shard));
        }
        if commits.iter().any(|c| c.origin as usize >= self.n) {
            return Err(InputError::CommitOutsidePopulation(shard));
        }
        Ok(self.classify_write(self.submissions[shard as usize].is_some()))
    }

    /// Shard `shard`'s sealed root: its partial aggregate, the devices it
    /// rejected, and its owned origins' frozen commitments.
    pub fn shard_root(
        &mut self,
        shard: u32,
        rejected: Vec<VertexId>,
        commits: Vec<OriginCommit>,
        root: Ciphertext,
    ) -> Result<Delivery, InputError> {
        let delivery = self.check_shard_root(shard, &rejected, &commits)?;
        if delivery == Delivery::New {
            self.submissions[shard as usize] = Some(HeldCt::new(root));
            self.got_submissions += 1;
            for v in rejected {
                if !self.rejected.contains(&v) {
                    self.rejected.push(v);
                }
            }
            for cmt in commits {
                let o = cmt.origin as usize;
                if self.commits[o].is_none() {
                    self.commits[o] = Some(cmt);
                }
            }
        }
        Ok(delivery)
    }

    fn check_member(&self, member: u64) -> Result<usize, InputError> {
        let committee = !matches!(self.mode, AggMode::Shard { .. });
        if !committee || member < 1 || member > self.cfg.committee_size as u64 {
            return Err(InputError::MemberOutOfRange(member));
        }
        Ok(member as usize)
    }

    /// What member `member`'s check-in would do: the first one registers
    /// its liveness and noise seed, later ones are polls.
    pub fn check_check_in(&self, member: u64) -> Result<Delivery, InputError> {
        let m = self.check_member(member)?;
        Ok(if self.pongs[m - 1].is_none() {
            Delivery::New
        } else {
            Delivery::Stale
        })
    }

    /// Member `member` checks in with its joint-noise seed. A seed that
    /// arrives after selection still joins the noise seeds.
    pub fn check_in(&mut self, member: u64, seed: [u8; 32]) -> Result<Delivery, InputError> {
        let delivery = self.check_check_in(member)?;
        if delivery == Delivery::New {
            self.pongs[member as usize - 1] = Some(seed);
        }
        Ok(delivery)
    }

    /// What member `member`'s decryption share for selection `round`
    /// would do.
    pub fn check_share(&self, member: u64, round: u32) -> Result<Delivery, InputError> {
        let m = self.check_member(member)?;
        let current = round == self.share_round;
        Ok(if current && self.shares[m].is_some() {
            Delivery::Duplicate
        } else if current && self.outcome.is_none() && self.participants.contains(&member) {
            Delivery::New
        } else {
            Delivery::Stale
        })
    }

    /// Member `member`'s decryption share for selection `round`. The last
    /// participant's share decides the round: threshold combine, joint
    /// noise, release, and the certificate to sign.
    pub fn push_share(
        &mut self,
        env: &impl AggEnv,
        member: u64,
        round: u32,
        share: DecryptionShare,
    ) -> Result<Delivery, InputError> {
        let delivery = self.check_share(member, round)?;
        if delivery == Delivery::New {
            self.shares[member as usize] = Some(share);
            if self
                .participants
                .iter()
                .all(|&m| self.shares[m as usize].is_some())
            {
                self.finish_committee(env);
            }
        }
        Ok(delivery)
    }

    /// What member `member`'s certificate signature would do. A forged or
    /// corrupted signature is not counted; the seal decides the quorum.
    pub fn check_cert_sig(&self, member: u64, sig: &[u8; 64]) -> Result<Delivery, InputError> {
        let m = self.check_member(member)?;
        Ok(if self.cert_sigs[m].is_some() {
            Delivery::Duplicate
        } else if !self.cert_sealed
            && self.cert.as_ref().is_some_and(|cert| {
                verify_transcript_sig(self.cfg.seed, member, &cert.transcript, sig)
            })
        {
            Delivery::New
        } else {
            Delivery::Stale
        })
    }

    /// Member `member`'s signature over the certificate transcript.
    pub fn push_cert_sig(&mut self, member: u64, sig: [u8; 64]) -> Result<Delivery, InputError> {
        let delivery = self.check_cert_sig(member, &sig)?;
        if delivery == Delivery::New {
            self.cert_sigs[member as usize] = Some(sig);
        }
        Ok(delivery)
    }

    // --- transitions -----------------------------------------------------

    /// The transition the state and the passed deadlines make due, if
    /// any. Apply it and ask again: one input can unlock several.
    pub fn due(&self, late: Deadlines) -> Option<Transition> {
        match &self.outcome {
            Some(Ok(_)) => {
                let all_signed = self.cert_sigs[1..].iter().all(Option::is_some);
                (self.certificate_pending() && (all_signed || late.signatures))
                    .then_some(Transition::Seal)
            }
            Some(Err(_)) => None,
            None if self.aggregate.is_none() => {
                // A shard root is a whole subpopulation: the coordinator
                // never substitutes for one, it waits for the shard.
                let (complete, can_be_late) = match &self.mode {
                    AggMode::Hub => (self.got_submissions == self.n, true),
                    AggMode::Shard { owned_count, .. } => {
                        (self.got_submissions == *owned_count, true)
                    }
                    AggMode::Coordinator { shards } => {
                        (self.got_submissions == *shards as usize, false)
                    }
                };
                (complete || (can_be_late && late.intake)).then_some(if self.commits_frozen {
                    Transition::Aggregate
                } else {
                    Transition::Commit
                })
            }
            // A shard's round ends at its sealed root.
            None if matches!(self.mode, AggMode::Shard { .. }) => None,
            None if self.participants.is_empty() => {
                let all_in = self.pongs.iter().all(Option::is_some);
                (all_in || late.checkin).then_some(Transition::Select)
            }
            None => {
                let straggler = self
                    .participants
                    .iter()
                    .any(|&m| self.shares[m as usize].is_none());
                (late.shares && straggler).then_some(if self.reselected {
                    Transition::GiveUp
                } else {
                    Transition::Reselect
                })
            }
        }
    }

    /// Applies transition `t`. Idempotent where a replay can repeat it.
    pub fn apply(&mut self, env: &impl AggEnv, t: Transition) {
        match t {
            Transition::Commit => self.freeze_commits(env),
            Transition::Aggregate => self.form_aggregate(env),
            Transition::Select => self.select(),
            Transition::Reselect => {
                self.reselected = true;
                for &m in &self.participants {
                    if self.shares[m as usize].is_none() {
                        self.pongs[m as usize - 1] = None;
                    }
                }
                self.select();
            }
            Transition::GiveUp => self.fail(self.committee_unavailable()),
            Transition::Seal => self.seal(),
        }
    }

    /// The failure of a round whose committee cannot reach the threshold:
    /// what [`Transition::GiveUp`] records.
    pub fn committee_unavailable(&self) -> AggFailure {
        AggFailure::CommitteeUnavailable {
            alive: self.alive_members().len(),
            need: self.cfg.threshold + 1,
        }
    }

    /// Ends the round with a failure the adapter decided (first outcome
    /// wins).
    pub fn abort(&mut self, why: String) {
        self.fail(AggFailure::Aborted(why));
    }

    /// Pins the epsilon the certificate reports as charged (a budget
    /// ledger's admission).
    pub fn set_charged_epsilon(&mut self, epsilon: f64) {
        self.charged_epsilon = epsilon;
    }

    fn fail(&mut self, failure: AggFailure) {
        if self.outcome.is_none() {
            self.outcome = Some(Err(failure));
        }
    }

    /// Freezes the per-origin certificate commitments from the slot
    /// statuses recorded at intake. The coordinator's commitments arrive
    /// inside the shard roots instead; its freeze just pins them.
    fn freeze_commits(&mut self, env: &impl AggEnv) {
        if self.commits_frozen {
            return;
        }
        self.commits_frozen = true;
        let mine: Vec<usize> = match &self.mode {
            AggMode::Hub => (0..self.n).collect(),
            AggMode::Shard { owned, .. } => (0..self.n).filter(|&v| owned[v]).collect(),
            AggMode::Coordinator { .. } => Vec::new(),
        };
        for v in mine {
            let slots: Vec<(u32, SlotStatus)> = env.works()[v]
                .requests
                .iter()
                .enumerate()
                .map(|(s, &(d, _))| {
                    let status = self
                        .statuses
                        .get(&(v as u32, s as u32))
                        .copied()
                        .unwrap_or(SlotStatus::Missing);
                    (d, status)
                })
                .collect();
            self.commits[v] = Some(commit_origin(v as u32, &slots));
        }
    }

    /// Forms this core's aggregate through the summation tree.
    ///
    /// * Hub: every origin row; a missing row contributes `Enc(0)`.
    /// * Shard: the *owned* rows only, same substitution (homomorphic
    ///   addition is associative, so the grouping cannot change the sum).
    ///   A shard owning no origin sums one `Enc(0)`, so the coordinator's
    ///   sum stays total over shards.
    /// * Coordinator: the shard roots, all present ([`AggCore::due`]
    ///   waits for every one).
    fn form_aggregate(&mut self, env: &impl AggEnv) {
        if self.aggregate.is_some() {
            return;
        }
        let zero = Plaintext::zero(env.plan().n_ring, env.plan().t_pt);
        let (keys, rng) = (env.keys(), &mut self.rng);
        let mut row = |s: &Option<HeldCt>| match s {
            Some(held) => Ok(held.ct().clone()),
            None => Ciphertext::encrypt(&keys.public, &zero, rng),
        };
        let rows: Result<Vec<Ciphertext>, BgvError> = match &self.mode {
            AggMode::Hub => self.submissions.iter().map(&mut row).collect(),
            AggMode::Shard { owned, .. } => {
                let mut rows: Result<Vec<Ciphertext>, BgvError> = self
                    .submissions
                    .iter()
                    .zip(owned)
                    .filter(|(_, &own)| own)
                    .map(|(s, _)| row(s))
                    .collect();
                if matches!(&rows, Ok(v) if v.is_empty()) {
                    rows = row(&None).map(|ct| vec![ct]);
                }
                rows
            }
            AggMode::Coordinator { .. } => Ok(self
                .submissions
                .iter()
                .map(|root| {
                    root.as_ref()
                        .expect("every shard root arrived")
                        .ct()
                        .clone()
                })
                .collect()),
        };
        let sum = rows
            .map_err(AggFailure::Substitute)
            .and_then(|rows| aggregate_and_audit(rows).map_err(AggFailure::Aggregation));
        match sum {
            Ok(sum) => self.aggregate = Some(HeldCt::new(sum)),
            Err(e) => self.fail(e),
        }
    }

    fn alive_members(&self) -> Vec<u64> {
        (1..=self.cfg.committee_size as u64)
            .filter(|&m| self.pongs[m as usize - 1].is_some())
            .collect()
    }

    /// Picks the first `t + 1` alive members as decryption participants.
    fn select(&mut self) {
        let alive = self.alive_members();
        let need = self.cfg.threshold + 1;
        if alive.len() < need {
            return self.fail(self.committee_unavailable());
        }
        self.share_round += 1;
        self.participants = alive[..need].to_vec();
        self.shares = vec![None; self.cfg.committee_size + 1];
    }

    /// Combines the participants' shares, adds the joint noise of every
    /// member that checked in (in member order), decides the outcome, and
    /// assembles the certificate the committee signs.
    fn finish_committee(&mut self, env: &impl AggEnv) {
        let aggregate = self.aggregate.as_ref().expect("aggregated").ct();
        let shares: Vec<DecryptionShare> = self
            .participants
            .iter()
            .map(|&m| self.shares[m as usize].clone().expect("share collected"))
            .collect();
        let plaintext = match combine(aggregate, &shares, self.cfg.threshold) {
            Ok(pt) => pt,
            Err(e) => return self.fail(AggFailure::Combine(e)),
        };
        let plan = env.plan();
        let exact = decode_aggregate(&plaintext, env.query(), &plan.analysis);
        let seeds: Vec<[u8; 32]> = self.pongs.iter().filter_map(|p| *p).collect();
        let noise_scale = plan.analysis.sensitivity / self.cfg.epsilon;
        let noise = derive_joint_noise(&seeds, noise_scale, plan.released_values());
        let released = release_noisy(&exact, &noise, plan.released_len);
        let mut rejected = self.rejected.clone();
        rejected.sort_unstable();
        self.outcome = Some(Ok(RoundOutcome {
            exact,
            released,
            rejected,
        }));
        self.build_certificate(env, &seeds);
    }

    /// Assembles the round certificate from the decided outcome, unless
    /// the commitment plane is incomplete (a shard's commitments never
    /// arrived): then the round stands without a certificate.
    fn build_certificate(&mut self, env: &impl AggEnv, seeds: &[[u8; 32]]) {
        let Some(Ok(out)) = &self.outcome else { return };
        let Some(commits) = self
            .commits
            .iter()
            .map(Option::as_ref)
            .collect::<Option<Vec<&OriginCommit>>>()
            .filter(|_| self.commits_frozen)
        else {
            return;
        };
        let leaves: Vec<Digest> = commits.iter().map(|c| c.leaf).collect();
        let counts: Vec<(u32, u32)> = commits.iter().map(|c| (c.accepted, c.rejected)).collect();
        let (segments, contrib_root) = build_segments(&leaves, &counts);
        let mut rejected = out.rejected.clone();
        rejected.dedup();
        let spec = CertSpec {
            seed: self.cfg.seed,
            devices: self.n as u32,
            query: env.query().name.clone(),
            with_proofs: self.cfg.with_proofs,
        };
        let mut cert = RoundCertificate {
            spec_digest: spec.digest(),
            spec,
            committee: self.cfg.committee_size as u32,
            threshold: self.cfg.threshold as u32,
            share_round: self.share_round,
            participants: self.participants.iter().map(|&m| m as u32).collect(),
            leaves,
            segments,
            contrib_root,
            rejected,
            aggregate_digest: *self.aggregate.as_ref().expect("aggregated").digest(),
            noise_commitment: noise_commitment(seeds),
            charged_epsilon_bits: self.charged_epsilon.to_bits(),
            released: out
                .released
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
        self.cert = Some(cert);
    }

    /// Attaches whatever valid signatures arrived and seals the
    /// certificate. Fewer than `t + 1` means no certificate bytes: the
    /// round result stands, but it is not independently checkable.
    fn seal(&mut self) {
        if self.cert_sealed {
            return;
        }
        self.cert_sealed = true;
        let Some(cert) = self.cert.as_mut() else {
            return;
        };
        cert.signatures = (1..=self.cfg.committee_size as u64)
            .filter_map(|m| self.cert_sigs[m as usize].map(|sig| CommitteeSig { member: m, sig }))
            .collect();
        if cert.signatures.len() > self.cfg.threshold {
            self.cert_bytes = Some(cert.encode());
        }
    }

    // --- reads -----------------------------------------------------------

    /// Whether the round is over from a client's point of view: the
    /// outcome exists and the certificate, when one was built, is sealed.
    pub fn round_done(&self) -> bool {
        match &self.outcome {
            None => false,
            Some(Err(_)) => true,
            Some(Ok(_)) => self.cert.is_none() || self.cert_sealed,
        }
    }

    /// Whether a built certificate still waits for its seal.
    pub fn certificate_pending(&self) -> bool {
        self.cert.is_some() && !self.cert_sealed
    }

    /// What the round wants from member `member` now, if anything.
    pub fn member_task(&self, member: u64) -> Option<MemberTask<'_>> {
        if self.round_done() {
            return None;
        }
        if let (Some(Ok(_)), Some(cert)) = (&self.outcome, &self.cert) {
            let unsigned = self.cert_sigs.get(member as usize)?.is_none();
            return unsigned.then_some(MemberTask::Sign(&cert.transcript));
        }
        let wanted = self.participants.contains(&member) && self.shares[member as usize].is_none();
        wanted.then(|| MemberTask::Share {
            round: self.share_round,
            participants: &self.participants,
            aggregate: self
                .aggregate
                .as_ref()
                .expect("selection implies aggregate")
                .ct(),
        })
    }

    /// A shard's sealed root, once its partial aggregate is formed.
    pub fn sealed_shard(&self) -> Option<SealedShard<'_>> {
        let AggMode::Shard { shard, owned, .. } = &self.mode else {
            return None;
        };
        let root = self.aggregate.as_ref()?;
        let mut rejected = self.rejected.clone();
        rejected.sort_unstable();
        // The aggregate only exists after the commitment freeze, so every
        // owned origin's commitment is present.
        let commits = self
            .commits
            .iter()
            .zip(owned)
            .filter(|(_, &own)| own)
            .map(|(c, _)| c.clone().expect("commits freeze before the root seals"))
            .collect();
        Some(SealedShard {
            shard: *shard,
            rejected,
            commits,
            root,
        })
    }

    /// The round's outcome, once decided.
    pub fn outcome(&self) -> Option<&Result<RoundOutcome, AggFailure>> {
        self.outcome.as_ref()
    }

    /// The sealed certificate's canonical bytes (`None` before the seal
    /// and below quorum).
    pub fn certificate(&self) -> Option<&[u8]> {
        self.cert_bytes.as_deref()
    }

    /// The built certificate's transcript digest.
    pub fn transcript(&self) -> Option<&Digest> {
        self.cert.as_ref().map(|c| &c.transcript)
    }

    /// Intake slots, by origin (empty at the coordinator).
    pub fn contribs(&self) -> &[Vec<Option<HeldCt>>] {
        &self.contribs
    }

    /// Every `(origin, slot)` that took a contribution.
    pub fn seen(&self) -> &BTreeSet<(u32, u32)> {
        &self.seen
    }

    /// Rejected devices, in rejection order.
    pub fn rejected(&self) -> &[VertexId] {
        &self.rejected
    }

    /// Origin rows (shard roots at the coordinator).
    pub fn submissions(&self) -> &[Option<HeldCt>] {
        &self.submissions
    }

    /// How many submissions arrived.
    pub fn got_submissions(&self) -> usize {
        self.got_submissions
    }

    /// The aggregate (a shard's root), once formed.
    pub fn aggregate(&self) -> Option<&HeldCt> {
        self.aggregate.as_ref()
    }

    /// Checked-in members' noise seeds, by member (`[m - 1]`).
    pub fn pongs(&self) -> &[Option<[u8; 32]>] {
        &self.pongs
    }

    /// The current selection round (0 before the first selection).
    pub fn share_round(&self) -> u32 {
        self.share_round
    }

    /// The current participants.
    pub fn participants(&self) -> &[u64] {
        &self.participants
    }

    /// Whether the one reselect was spent.
    pub fn reselected(&self) -> bool {
        self.reselected
    }

    /// Collected shares of the current selection, by member (`[m]`).
    pub fn shares(&self) -> &[Option<DecryptionShare>] {
        &self.shares
    }

    /// Per-slot intake outcomes.
    pub fn statuses(&self) -> &BTreeMap<(u32, u32), SlotStatus> {
        &self.statuses
    }

    /// Whether the commitments are frozen.
    pub fn commits_frozen(&self) -> bool {
        self.commits_frozen
    }

    /// Per-origin certificate commitments.
    pub fn commits(&self) -> &[Option<OriginCommit>] {
        &self.commits
    }

    /// Collected certificate signatures, by member (`[m]`).
    pub fn cert_sigs(&self) -> &[Option<[u8; 64]>] {
        &self.cert_sigs
    }

    /// Whether the certificate was sealed.
    pub fn cert_sealed(&self) -> bool {
        self.cert_sealed
    }

    /// The epsilon the certificate reports as charged.
    pub fn charged_epsilon(&self) -> f64 {
        self.charged_epsilon
    }
}
