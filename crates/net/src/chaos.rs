//! Chaos supervisor for the transport plane.
//!
//! Runs the full multi-process loopback round while killing and
//! respawning processes — **any** role, the aggregator included — at
//! randomized protocol steps, and checks the paper's robustness
//! invariant: every run must end in either the bit-identical released
//! histogram or a typed failure. Never a hang, never a silently wrong
//! answer.
//!
//! Three kill mechanisms cover the interesting crash points:
//!
//! * `--die-after KIND:N` — the aggregator aborts right after the `N`th
//!   handled message of a kind, i.e. after the mutation is journaled
//!   and fsync'd but before the client sees the reply (the classic
//!   "acknowledged write, lost ack" window).
//! * `--die-mid-journal N` — the aggregator aborts halfway through the
//!   `write(2)` of its `N`th journal record, leaving a torn tail the
//!   next incarnation must truncate away.
//! * plain `SIGKILL` of device / origin / committee processes at
//!   scheduled wall-clock offsets.
//!
//! [`Supervised`] is the *single* restart mechanism: the ordinary
//! driver's origin watchdog and this chaos supervisor both respawn
//! crashed children through it.

use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mycelium::exec::NoisyGroup;
use mycelium::params::SystemParams;
use mycelium_math::rng::{Rng, SeedableRng, StdRng};
use mycelium_query::eval::{evaluate, PlainResult};
use mycelium_sharing::threshold::derive_joint_noise;

use crate::error::NetError;
use crate::proto::NetMsg;
use crate::round::{
    build_setup, decode_outcome, files, read_agg_banner, role, stream, HubClient, RoundSetup,
    RoundSpec,
};

// ---------------------------------------------------------------------------
// Supervised children
// ---------------------------------------------------------------------------

/// What [`Supervised::watch`] observed on one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEvent {
    /// The child is still running.
    Running,
    /// The child exited (successfully, or with no respawn budget left);
    /// its status is collected by [`Supervised::wait`].
    Exited,
    /// The child had crashed and was respawned.
    Respawned,
}

/// A supervised child process: spawn, non-blocking crash detection, and
/// budgeted respawn. This is the one restart mechanism in the transport
/// plane — the round driver's origin watchdog and the chaos supervisor
/// both go through it.
pub struct Supervised {
    /// Role label used in supervision messages (`origin-1`, …).
    pub name: String,
    /// How many times this child has been (re)spawned beyond the first.
    pub respawns: u32,
    exe: PathBuf,
    child: Child,
    piped: bool,
    respawn_args: Option<Vec<String>>,
    budget: u32,
    done: bool,
}

impl Supervised {
    /// Spawns `exe args...` (stdout piped if `piped`) with the
    /// single-threaded compute-plane setting every round child uses.
    pub fn spawn(exe: &Path, name: &str, args: Vec<String>, piped: bool) -> Result<Self, NetError> {
        let child = Self::launch(exe, &args, piped)?;
        Ok(Supervised {
            name: name.to_string(),
            respawns: 0,
            exe: exe.to_path_buf(),
            child,
            piped,
            respawn_args: None,
            budget: 0,
            done: false,
        })
    }

    fn launch(exe: &Path, args: &[String], piped: bool) -> Result<Child, NetError> {
        let mut cmd = Command::new(exe);
        cmd.args(args).env("MYC_THREADS", "1");
        if piped {
            cmd.stdout(Stdio::piped());
        }
        Ok(cmd.spawn()?)
    }

    /// Arms automatic respawn: a crashed (nonzero-exit) child is
    /// relaunched with `args`, at most `budget` times.
    pub fn with_respawn(mut self, args: Vec<String>, budget: u32) -> Self {
        self.respawn_args = Some(args);
        self.budget = budget;
        self
    }

    /// Takes the piped stdout handle (for banner reading).
    pub fn take_stdout(&mut self) -> Option<ChildStdout> {
        self.child.stdout.take()
    }

    /// Non-blocking exit probe of the current incarnation.
    pub fn try_exit(&mut self) -> Result<Option<ExitStatus>, NetError> {
        Ok(self.child.try_wait()?)
    }

    /// Replaces the current incarnation (killing it if still alive)
    /// with a fresh launch under different arguments. The chaos
    /// supervisor uses this to arm each aggregator incarnation with the
    /// next scheduled kill.
    pub fn respawn_with_args(&mut self, args: Vec<String>, piped: bool) -> Result<(), NetError> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.piped = piped;
        self.child = Self::launch(&self.exe, &args, piped)?;
        self.respawns += 1;
        self.done = false;
        Ok(())
    }

    /// Delivers `SIGKILL` to a still-running child and reaps it.
    /// Returns whether there was anything to kill.
    pub fn kill(&mut self) -> Result<bool, NetError> {
        if self.done || self.child.try_wait()?.is_some() {
            return Ok(false);
        }
        self.child.kill()?;
        self.child.wait()?;
        Ok(true)
    }

    /// One watchdog poll: detects a crash and respawns within budget.
    pub fn watch(&mut self) -> Result<WatchEvent, NetError> {
        if self.done {
            return Ok(WatchEvent::Exited);
        }
        match self.child.try_wait()? {
            None => Ok(WatchEvent::Running),
            Some(status) if status.success() => {
                self.done = true;
                Ok(WatchEvent::Exited)
            }
            Some(status) => {
                if self.budget == 0 || self.respawn_args.is_none() {
                    self.done = true;
                    return Ok(WatchEvent::Exited);
                }
                self.budget -= 1;
                eprintln!(
                    "driver: {} exited with {status}, respawning once",
                    self.name
                );
                let args = self.respawn_args.clone().expect("checked");
                self.child = Self::launch(&self.exe, &args, self.piped)?;
                self.respawns += 1;
                Ok(WatchEvent::Respawned)
            }
        }
    }

    /// Blocks until the current incarnation exits (cached status if it
    /// already has).
    pub fn wait(&mut self) -> Result<ExitStatus, NetError> {
        Ok(self.child.wait()?)
    }
}

// ---------------------------------------------------------------------------
// Kill schedules
// ---------------------------------------------------------------------------

/// One scheduled aggregator death (armed via CLI flags on a single
/// incarnation; the next incarnation gets the next kill in the plan).
#[derive(Debug, Clone)]
pub enum AggKill {
    /// Abort after the `count`th handled message of `kind`
    /// (post-journal-commit, pre-reply).
    After {
        /// Message kind (`PushContrib`, `SubmitOrigin`,
        /// `CommitteeCheckIn`, `PushShare`).
        kind: String,
        /// Which occurrence triggers the abort (1-based).
        count: u32,
    },
    /// Abort halfway through writing the `count`th journal record,
    /// leaving a torn tail.
    MidJournal {
        /// Which journal append triggers the abort (1-based).
        count: u32,
    },
}

impl AggKill {
    fn to_args(&self) -> Vec<String> {
        match self {
            AggKill::After { kind, count } => {
                vec!["--die-after".into(), format!("{kind}:{count}")]
            }
            AggKill::MidJournal { count } => {
                vec!["--die-mid-journal".into(), count.to_string()]
            }
        }
    }
}

impl std::fmt::Display for AggKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggKill::After { kind, count } => write!(f, "abort after {count} {kind}"),
            AggKill::MidJournal { count } => write!(f, "abort mid-write of journal record {count}"),
        }
    }
}

/// One scheduled `SIGKILL` of a non-aggregator role.
#[derive(Debug, Clone)]
pub struct RoleKill {
    /// Child name (`device-3`, `origin-0`, `committee-2`).
    pub name: String,
    /// Wall-clock offset from round start.
    pub at: Duration,
}

/// A full kill schedule for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The seed the schedule was derived from (reported, for replay).
    pub seed: u64,
    /// Aggregator (hub or coordinator) deaths, one armed per
    /// incarnation in order.
    pub agg_kills: Vec<AggKill>,
    /// Role `SIGKILL`s at wall-clock offsets.
    pub role_kills: Vec<RoleKill>,
    /// Aggregation-shard deaths (`(shard, kill)`), armed per shard in
    /// listed order, one per incarnation. Sharded layout only.
    pub shard_kills: Vec<(usize, AggKill)>,
}

impl ChaosPlan {
    /// The fixed three-phase drill from the acceptance criteria: the
    /// aggregator dies once in each protocol phase — contribution
    /// intake, origin summation, and committee decryption — and every
    /// death must still converge to the bit-identical histogram.
    pub fn drill() -> Self {
        ChaosPlan {
            seed: 0,
            agg_kills: vec![
                AggKill::After {
                    kind: "PushContrib".into(),
                    count: 4,
                },
                AggKill::After {
                    kind: "SubmitOrigin".into(),
                    count: 3,
                },
                AggKill::After {
                    kind: "PushShare".into(),
                    count: 2,
                },
            ],
            role_kills: Vec::new(),
            shard_kills: Vec::new(),
        }
    }

    /// The sharded-layout drill from the acceptance criteria: one
    /// intake shard dies mid-intake (journal replay of its WAL
    /// partition), and the coordinator dies twice — right after a shard
    /// root lands (the mid-combine window: the root is journaled, the
    /// combine may have fired, the shard never saw the ack) and again
    /// during committee decryption. The round must still end `exact`.
    pub fn drill_sharded() -> Self {
        ChaosPlan {
            seed: 0,
            agg_kills: vec![
                AggKill::After {
                    kind: "ShardRoot".into(),
                    count: 1,
                },
                AggKill::After {
                    kind: "PushShare".into(),
                    count: 2,
                },
            ],
            role_kills: Vec::new(),
            shard_kills: vec![(
                0,
                AggKill::After {
                    kind: "PushContrib".into(),
                    count: 2,
                },
            )],
        }
    }

    /// Derives a randomized (but seed-deterministic) kill schedule:
    /// one to three aggregator deaths — by message count or mid-journal
    /// write — plus up to two role `SIGKILL`s.
    pub fn derive(seed: u64, spec: &RoundSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_55ED);
        // The hub handles intake; a coordinator only ever sees shard
        // roots and committee traffic, so its kill kinds differ (a kill
        // armed on a kind that never arrives simply never fires).
        let kinds: &[&str] = if spec.agg_shards > 1 {
            &["ShardRoot", "CommitteeCheckIn", "PushShare"]
        } else {
            &[
                "PushContrib",
                "SubmitOrigin",
                "CommitteeCheckIn",
                "PushShare",
            ]
        };
        let n_agg = rng.gen_range(1..=3u64);
        let mut agg_kills = Vec::new();
        for _ in 0..n_agg {
            if rng.gen_bool(0.25) {
                agg_kills.push(AggKill::MidJournal {
                    count: rng.gen_range(1..=16u64) as u32,
                });
            } else {
                let kind = kinds[rng.gen_range(0..kinds.len() as u64) as usize];
                agg_kills.push(AggKill::After {
                    kind: kind.into(),
                    count: rng.gen_range(1..=5u64) as u32,
                });
            }
        }
        let committee = SystemParams::simulation().committee_size;
        let mut names: Vec<String> = Vec::new();
        for i in 0..spec.device_shards {
            names.push(format!("device-{i}"));
        }
        for j in 0..spec.origin_shards {
            names.push(format!("origin-{j}"));
        }
        for m in 1..=committee {
            names.push(format!("committee-{m}"));
        }
        let mut role_kills = Vec::new();
        for _ in 0..rng.gen_range(0..=2u64) {
            role_kills.push(RoleKill {
                name: names[rng.gen_range(0..names.len() as u64) as usize].clone(),
                at: Duration::from_millis(rng.gen_range(200..=2000u64)),
            });
        }
        // Intake-shard kills (sharded layout only; the extra rng draws
        // happen after everything else, so single-hub schedules are
        // unchanged for any given seed).
        let mut shard_kills = Vec::new();
        if spec.agg_shards > 1 {
            let intake = ["PushContrib", "SubmitOrigin"];
            for _ in 0..rng.gen_range(1..=2u64) {
                let s = rng.gen_range(0..spec.agg_shards as u64) as usize;
                if rng.gen_bool(0.25) {
                    shard_kills.push((
                        s,
                        AggKill::MidJournal {
                            count: rng.gen_range(1..=8u64) as u32,
                        },
                    ));
                } else {
                    let kind = intake[rng.gen_range(0..intake.len() as u64) as usize];
                    shard_kills.push((
                        s,
                        AggKill::After {
                            kind: kind.into(),
                            count: rng.gen_range(1..=4u64) as u32,
                        },
                    ));
                }
            }
        }
        ChaosPlan {
            seed,
            agg_kills,
            role_kills,
            shard_kills,
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// How one chaos run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// The released histogram was bit-identical to the reference.
    Exact,
    /// The round ended with a typed failure (an `Err` outcome or an
    /// aggregator that died with a typed error every incarnation).
    TypedFailure,
    /// INVARIANT VIOLATION: the round produced a different histogram.
    WrongAnswer,
    /// INVARIANT VIOLATION: the round neither finished nor failed
    /// within the round timeout.
    Hang,
    /// INVARIANT VIOLATION: the histogram was right but the round's
    /// certificate is missing or fails offline verification — crash
    /// recovery is not allowed to cost the round its proof object.
    BadCertificate,
}

impl ChaosVerdict {
    /// Whether this verdict satisfies the chaos invariant.
    pub fn ok(self) -> bool {
        matches!(self, ChaosVerdict::Exact | ChaosVerdict::TypedFailure)
    }

    fn as_str(self) -> &'static str {
        match self {
            ChaosVerdict::Exact => "exact",
            ChaosVerdict::TypedFailure => "typed_failure",
            ChaosVerdict::WrongAnswer => "wrong_answer",
            ChaosVerdict::Hang => "hang",
            ChaosVerdict::BadCertificate => "bad_certificate",
        }
    }
}

impl std::fmt::Display for ChaosVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-seed chaos report (`CHAOS_report.json` entry).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// How the run ended.
    pub verdict: ChaosVerdict,
    /// How many aggregator incarnations the run took (1 = never died).
    pub agg_incarnations: u32,
    /// Human-readable log of every kill and respawn that fired.
    pub kills: Vec<String>,
    /// Wall-clock duration of the run.
    pub elapsed_ms: u64,
}

impl ChaosOutcome {
    /// Renders one run as a JSON object.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let kills: Vec<String> = self
            .kills
            .iter()
            .map(|k| format!("\"{}\"", k.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            "{pad}{{\n{pad}  \"seed\": {},\n{pad}  \"verdict\": \"{}\",\n\
             {pad}  \"agg_incarnations\": {},\n{pad}  \"kills\": [{}],\n\
             {pad}  \"elapsed_ms\": {}\n{pad}}}",
            self.seed,
            self.verdict,
            self.agg_incarnations,
            kills.join(", "),
            self.elapsed_ms,
        )
    }
}

/// Renders a full seed-matrix report (the `CHAOS_report.json` artifact).
pub fn report_json(outcomes: &[ChaosOutcome]) -> String {
    let runs: Vec<String> = outcomes.iter().map(|o| o.to_json(4)).collect();
    let violations = outcomes.iter().filter(|o| !o.verdict.ok()).count();
    format!(
        "{{\n  \"runs\": [\n{}\n  ],\n  \"invariant_violations\": {}\n}}\n",
        runs.join(",\n"),
        violations
    )
}

// ---------------------------------------------------------------------------
// The chaos round
// ---------------------------------------------------------------------------

/// The fault-free reference: exact histogram from the plaintext
/// evaluator, released histogram from the deterministic joint noise
/// (committee seeds are a pure function of the round seed, so the
/// *noised* release is reproducible too — decryption is exact and
/// contributes no randomness).
pub(crate) fn reference_result(setup: &RoundSetup) -> (PlainResult, Vec<NoisyGroup>) {
    let exact = evaluate(
        &setup.query,
        &setup.plan.analysis,
        &setup.params.schema,
        &setup.pop,
    );
    let seeds: Vec<[u8; 32]> = (1..=setup.committee_size as u64)
        .map(|m| {
            let mut rng = StdRng::seed_from_u64(setup.spec.seed).with_stream(stream::COMMITTEE + m);
            let mut s = [0u8; 32];
            rng.fill(&mut s);
            s
        })
        .collect();
    let b = setup.plan.analysis.sensitivity / setup.params.epsilon;
    let noise = derive_joint_noise(&seeds, b, setup.plan.released_values());
    let released = mycelium::exec::release_noisy(&exact, &noise, setup.plan.released_len);
    (exact, released)
}

pub(crate) fn judge_outcome(
    out_dir: &Path,
    want_exact: &PlainResult,
    want_released: &[NoisyGroup],
) -> ChaosVerdict {
    let Ok(bytes) = std::fs::read(out_dir.join(files::OUTCOME)) else {
        return ChaosVerdict::Hang;
    };
    let Ok(outcome) = decode_outcome(&bytes) else {
        return ChaosVerdict::WrongAnswer;
    };
    let Ok(outcome) = outcome else {
        return ChaosVerdict::TypedFailure;
    };
    let exact_ok = outcome.exact.groups.len() == want_exact.groups.len()
        && outcome
            .exact
            .groups
            .iter()
            .zip(&want_exact.groups)
            .all(|(a, b)| a.label == b.label && a.histogram == b.histogram);
    let released_ok = outcome.released.len() == want_released.len()
        && outcome
            .released
            .iter()
            .zip(want_released)
            .all(|(a, b)| a.label == b.label && a.histogram == b.histogram);
    if !(exact_ok && released_ok) {
        return ChaosVerdict::WrongAnswer;
    }
    // A successful round must also carry its proof: the certificate
    // artifact exists and verifies offline, however many incarnations
    // the aggregator burned through.
    let Ok(text) = std::fs::read_to_string(out_dir.join(files::CERT_JSON)) else {
        return ChaosVerdict::BadCertificate;
    };
    let Some(cert) = mycelium_cert::extract_cert_hex(&text) else {
        return ChaosVerdict::BadCertificate;
    };
    if !mycelium_cert::verify_bytes(&cert).is_valid() {
        return ChaosVerdict::BadCertificate;
    }
    ChaosVerdict::Exact
}

/// Runs one chaos round: executes the full multi-process round under
/// the plan's kill schedule, respawning every victim (the aggregator
/// recovers by journal replay; other roles recover by re-pulling and
/// idempotent re-pushing), and judges the end state against the
/// fault-free reference.
pub fn run_chaos(
    exe: &Path,
    spec: &RoundSpec,
    out_dir: &Path,
    plan: &ChaosPlan,
) -> Result<ChaosOutcome, NetError> {
    // A chaos run is always a fresh round: stale journal or address
    // files from a previous run would be replayed as protocol state.
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir)?;
    let setup = build_setup(spec)?;
    let (want_exact, want_released) = reference_result(&setup);
    let started = Instant::now();
    let mut kills: Vec<String> = Vec::new();

    let out_arg = out_dir.display().to_string();
    let base = spec.to_args();
    let with_base = |mut v: Vec<String>| -> Vec<String> {
        v.extend(base.iter().cloned());
        v.extend(["--out".to_string(), out_arg.clone()]);
        v
    };
    let agg_args = |kill: Option<&AggKill>| -> Vec<String> {
        let mut a = with_base(vec!["aggregator".into()]);
        if let Some(kill) = kill {
            a.extend(kill.to_args());
        }
        a
    };

    // Incarnation i (1-based) is armed with plan.agg_kills[i - 1].
    let mut incarnations: u32 = 1;
    let mut agg = Supervised::spawn(exe, "aggregator", agg_args(plan.agg_kills.first()), true)?;
    if let Some(kill) = plan.agg_kills.first() {
        kills.push(format!("incarnation 1 armed: {kill}"));
    }
    let addr = read_agg_banner(&mut agg)?;

    let addr_arg = addr.to_string();

    // Aggregation shards (sharded layout only): supervised like the
    // coordinator — each crashed incarnation is respawned with its next
    // scheduled kill armed, and recovers by replaying its own WAL
    // partition.
    struct ShardSup {
        sup: Supervised,
        shard: usize,
        incarnations: u32,
        planned: Vec<AggKill>,
    }
    let shard_args = |shard: usize, kill: Option<&AggKill>| -> Vec<String> {
        let mut a = with_base(vec![
            "shard".into(),
            "--shard".into(),
            shard.to_string(),
            "--addr".into(),
            addr_arg.clone(),
        ]);
        if let Some(kill) = kill {
            a.extend(kill.to_args());
        }
        a
    };
    let mut shard_sups: Vec<ShardSup> = Vec::new();
    if spec.agg_shards > 1 {
        for s in 0..spec.agg_shards {
            let planned: Vec<AggKill> = plan
                .shard_kills
                .iter()
                .filter(|(sh, _)| *sh == s)
                .map(|(_, k)| k.clone())
                .collect();
            if let Some(kill) = planned.first() {
                kills.push(format!("shard {s} incarnation 1 armed: {kill}"));
            }
            shard_sups.push(ShardSup {
                sup: Supervised::spawn(
                    exe,
                    &format!("shard-{s}"),
                    shard_args(s, planned.first()),
                    false,
                )?,
                shard: s,
                incarnations: 1,
                planned,
            });
        }
    }

    let mut children: Vec<Supervised> = Vec::new();
    let mut spawn_child = |name: String, mut head: Vec<String>| -> Result<(), NetError> {
        head.extend(["--addr".to_string(), addr_arg.clone()]);
        let args = with_base(head);
        children.push(Supervised::spawn(exe, &name, args.clone(), false)?.with_respawn(args, 8));
        Ok(())
    };
    for i in 0..spec.device_shards {
        spawn_child(
            format!("device-{i}"),
            vec!["device".into(), "--shard".into(), i.to_string()],
        )?;
    }
    for j in 0..spec.origin_shards {
        spawn_child(
            format!("origin-{j}"),
            vec!["origin".into(), "--shard".into(), j.to_string()],
        )?;
    }
    for m in 1..=setup.committee_size as u64 {
        spawn_child(
            format!("committee-{m}"),
            vec!["committee".into(), "--member".into(), m.to_string()],
        )?;
    }

    enum Exit {
        AggDone,
        AggGaveUp,
        ShardGaveUp,
        Timeout,
    }

    let mut role_fired = vec![false; plan.role_kills.len()];
    // An incarnation that keeps dying on recovery (a typed replay
    // failure, say) must not respawn forever: a small allowance past
    // the scheduled kills turns persistent death into a typed verdict.
    let max_incarnations = plan.agg_kills.len() as u32 + 4;
    let mut driver = HubClient::new(&setup, role::DRIVER, addr, out_dir);
    let mut finished = false;
    let exit = loop {
        if started.elapsed() >= spec.round_timeout {
            break Exit::Timeout;
        }
        // Scheduled role SIGKILLs.
        for (idx, rk) in plan.role_kills.iter().enumerate() {
            if !role_fired[idx] && started.elapsed() >= rk.at {
                role_fired[idx] = true;
                if let Some(cp) = children.iter_mut().find(|c| c.name == rk.name) {
                    if cp.kill()? {
                        kills.push(format!("SIGKILL {} at {:?}", rk.name, rk.at));
                    } else {
                        kills.push(format!("{} already exited before {:?}", rk.name, rk.at));
                    }
                }
            }
        }
        // Aggregator supervision: a dead incarnation is respawned with
        // the next scheduled kill armed (clean once the plan runs out);
        // recovery is journal replay inside the new process.
        if let Some(status) = agg.try_exit()? {
            if status.success() {
                break Exit::AggDone;
            }
            if incarnations >= max_incarnations {
                kills.push(format!(
                    "giving up: incarnation {incarnations} died with {status}"
                ));
                break Exit::AggGaveUp;
            }
            let next = plan.agg_kills.get(incarnations as usize);
            incarnations += 1;
            kills.push(match next {
                Some(kill) => {
                    format!("incarnation {incarnations} respawned after {status}, armed: {kill}")
                }
                None => format!("incarnation {incarnations} respawned after {status}, clean"),
            });
            agg.respawn_with_args(agg_args(next), true)?;
            read_agg_banner(&mut agg)?;
            // `driver_seen` is liveness state, not journaled: a fresh
            // incarnation needs to observe our poll again before it can
            // exit.
            finished = false;
        }
        // Shard supervision mirrors the coordinator's: a crashed shard
        // incarnation is respawned with its next scheduled kill armed
        // and recovers by replaying its own WAL partition. A shard that
        // exits cleanly stays down — the coordinator already holds its
        // sealed root.
        let mut shard_gave_up = false;
        for ss in shard_sups.iter_mut() {
            let Some(status) = ss.sup.try_exit()? else {
                continue;
            };
            if status.success() {
                continue;
            }
            let max = ss.planned.len() as u32 + 4;
            if ss.incarnations >= max {
                kills.push(format!(
                    "giving up: shard {} incarnation {} died with {status}",
                    ss.shard, ss.incarnations
                ));
                shard_gave_up = true;
                break;
            }
            let next = ss.planned.get(ss.incarnations as usize);
            ss.incarnations += 1;
            kills.push(match next {
                Some(kill) => format!(
                    "shard {} incarnation {} respawned after {status}, armed: {kill}",
                    ss.shard, ss.incarnations
                ),
                None => format!(
                    "shard {} incarnation {} respawned after {status}, clean",
                    ss.shard, ss.incarnations
                ),
            });
            ss.sup
                .respawn_with_args(shard_args(ss.shard, next), false)?;
        }
        if shard_gave_up {
            break Exit::ShardGaveUp;
        }
        // Every other crashed role is respawned through the same
        // mechanism the ordinary driver uses.
        for cp in children.iter_mut() {
            cp.watch()?;
        }
        // Single-attempt status poll (never blocks for long: this loop
        // must keep supervising while the aggregator is down; the
        // aggregator holds the poll for at most its hold bound). Once the
        // round reports finished the poller hangs up and goes quiet.
        if !finished {
            if let Ok(NetMsg::Finished) = driver.poll_once(&setup, &NetMsg::PullStatus) {
                finished = true;
                driver.hangup();
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    };

    // Drain: give children a grace window to exit on their own, then
    // reap whatever is left so the run never leaks processes.
    let grace = Instant::now() + Duration::from_secs(15);
    let abandon = matches!(exit, Exit::Timeout | Exit::AggGaveUp | Exit::ShardGaveUp);
    loop {
        let mut alive = false;
        for cp in children.iter_mut() {
            alive |= cp.try_exit()?.is_none();
        }
        for ss in shard_sups.iter_mut() {
            alive |= ss.sup.try_exit()?.is_none();
        }
        if !alive || Instant::now() >= grace || abandon {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for cp in children.iter_mut() {
        let _ = cp.kill();
    }
    for ss in shard_sups.iter_mut() {
        let _ = ss.sup.kill();
    }
    let _ = agg.kill();

    let verdict = match exit {
        Exit::Timeout => ChaosVerdict::Hang,
        Exit::AggGaveUp | Exit::ShardGaveUp => ChaosVerdict::TypedFailure,
        Exit::AggDone => judge_outcome(out_dir, &want_exact, &want_released),
    };
    Ok(ChaosOutcome {
        seed: plan.seed,
        verdict,
        agg_incarnations: incarnations,
        kills,
        elapsed_ms: started.elapsed().as_millis() as u64,
    })
}
