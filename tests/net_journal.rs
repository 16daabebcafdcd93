//! Crash-durability of the aggregator's write-ahead journal, at the
//! `AggState` level (no processes, no sockets).
//!
//! The invariant under test is the one the chaos drill exercises end to
//! end: an aggregator that dies after acknowledging any prefix of the
//! round and is recovered from its journal has **bit-identical**
//! protocol state (witnessed by [`AggState::digest`]) to the pre-crash
//! instance — and keeps behaving identically afterwards. Corruption is
//! always a typed [`JournalError`], never a silently divergent round.

use std::path::PathBuf;
use std::sync::Arc;

use mycelium_bgv::{Ciphertext, Plaintext};
use mycelium_cert::{sign_transcript, to_hex, verify_bytes, RoundCertificate};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_setup, files, AggState, BudgetCfg, RoundSetup, RoundSpec};
use mycelium_net::{Journal, JournalError, NetError};
use mycelium_sharing::threshold::decryption_share;

use mycelium_math::rng::{SeedableRng, StdRng};

fn test_spec() -> RoundSpec {
    RoundSpec {
        seed: 7,
        n: 24,
        query: "Q4".into(),
        device_shards: 8,
        origin_shards: 2,
        ..RoundSpec::default()
    }
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mycelium-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Encodes a stream of state-mutating requests: `contribs` contribution
/// pushes (each for a distinct `(origin, slot)` duty) followed by
/// `checkins` committee check-ins. Returned as raw wire bytes — exactly
/// what the server hands to [`AggState::handle`] and what the journal
/// stores.
fn mutating_requests(setup: &RoundSetup, contribs: usize, checkins: usize) -> Vec<Vec<u8>> {
    let mut raws = Vec::new();
    'outer: for (v, duties) in setup.duties.iter().enumerate() {
        for duty in duties {
            if raws.len() == contribs {
                break 'outer;
            }
            let mut rng = StdRng::seed_from_u64(1000 + v as u64);
            let sc = setup
                .plan
                .build_contribution(&setup.keys, v as u32, duty.exp, false, &mut rng)
                .unwrap();
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            raws.push(msg.encode());
        }
    }
    assert_eq!(raws.len(), contribs, "population has enough duties");
    for m in 1..=checkins as u64 {
        let msg = NetMsg::CommitteeCheckIn {
            member: m,
            seed: [m as u8; 32],
        };
        raws.push(msg.encode());
    }
    raws
}

/// Feeds one raw request through the full live path (decode → journal →
/// apply → fsync), as the server does.
fn feed(st: &mut AggState, setup: &RoundSetup, raw: &[u8]) {
    let msg = NetMsg::decode(raw, &setup.cc).unwrap();
    st.handle(msg, raw).unwrap();
}

#[test]
fn replayed_state_is_bit_identical_and_continues_identically() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("replay");
    let path = dir.join(files::JOURNAL);
    // 10 contributions + 2 check-ins: crosses the every-8-records digest
    // checkpoint, so recovery also verifies a mid-stream checkpoint.
    let raws = mutating_requests(&setup, 10, 2);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(st.journal_records(), 0, "fresh journal");
    for raw in &raws[..11] {
        feed(&mut st, &setup, raw);
    }
    let pre_crash = st.digest();
    let pre_records = st.journal_records();
    // 11 REQ records plus the digest checkpoint flushed after the 8th.
    assert_eq!(pre_records, 12);
    drop(st); // crash: no shutdown hook, the journal is all that survives

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the exact pre-crash state"
    );
    assert_eq!(recovered.journal_records(), pre_records);

    // The recovered instance must also *continue* identically: feed the
    // 12th request to it and the full sequence to a parallel fresh
    // instance, and compare digests again.
    feed(&mut recovered, &setup, &raws[11]);
    let twin_path = dir.join("twin.bin");
    let mut twin = AggState::recover(Arc::clone(&setup), &twin_path).unwrap();
    for raw in &raws {
        feed(&mut twin, &setup, raw);
    }
    assert_eq!(
        recovered.digest(),
        twin.digest(),
        "recovered state must evolve exactly like an uncrashed one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One full live request round-trip that returns the reply (the plain
/// [`feed`] discards it).
fn request(st: &mut AggState, setup: &RoundSetup, msg: &NetMsg) -> NetMsg {
    let raw = msg.encode();
    let decoded = NetMsg::decode(&raw, &setup.cc).unwrap();
    st.handle(decoded, &raw).unwrap()
}

/// Drives a complete hub round up to the decided outcome: every origin
/// submits its (here: neutral) row, the whole committee checks in, and
/// the selected participants answer their share tasks. Stops *before*
/// any certificate signature is pushed, so the caller chooses where in
/// the signature collection to crash.
fn drive_to_outcome(st: &mut AggState, setup: &RoundSetup) {
    for v in 0..setup.pop.graph.len() as u32 {
        let mut rng = StdRng::seed_from_u64(2000 + v as u64);
        let ct = Ciphertext::encrypt(
            &setup.keys.public,
            &Plaintext::zero(setup.plan.n_ring, setup.plan.t_pt),
            &mut rng,
        )
        .unwrap();
        let reply = request(
            st,
            setup,
            &NetMsg::SubmitOrigin {
                origin: v,
                ct: Box::new(ct),
            },
        );
        assert!(matches!(reply, NetMsg::Ack));
    }
    // First check-in wave registers every member (and its noise seed);
    // the tick after the last one selects the participants. The second
    // wave then hands each participant its share task.
    for wave in 0..2 {
        for m in 1..=setup.committee_size as u64 {
            let reply = request(
                st,
                setup,
                &NetMsg::CommitteeCheckIn {
                    member: m,
                    seed: [m as u8; 32],
                },
            );
            if let NetMsg::CommitteeShareTask {
                round,
                participants,
                ct,
            } = reply
            {
                assert_eq!(wave, 1, "no share task before selection");
                let mut rng = StdRng::seed_from_u64(3000 + m);
                let share = decryption_share(
                    &ct,
                    &setup.key_shares,
                    m,
                    &participants,
                    setup.plan.t_pt as i64,
                    &mut rng,
                )
                .unwrap();
                request(
                    st,
                    setup,
                    &NetMsg::PushShare {
                        member: m,
                        round,
                        share: Box::new(share),
                    },
                );
            }
        }
    }
    assert!(st.is_finished(), "round must decide after all shares");
}

/// Fetches member `m`'s `CertSignTask` via a check-in and pushes its
/// transcript signature.
fn push_cert_sig(st: &mut AggState, setup: &RoundSetup, m: u64) {
    let reply = request(
        st,
        setup,
        &NetMsg::CommitteeCheckIn {
            member: m,
            seed: [m as u8; 32],
        },
    );
    let NetMsg::CertSignTask { transcript } = reply else {
        panic!("expected a sign task for member {m}, got {}", reply.kind());
    };
    let sig = sign_transcript(setup.spec.seed, m, &transcript);
    let reply = request(st, setup, &NetMsg::PushCertSig { member: m, sig });
    assert!(matches!(reply, NetMsg::Ack));
}

#[test]
fn replay_rederives_the_sealed_certificate_bit_for_bit() {
    // The proof-carrying-rounds durability invariant (DESIGN.md, "Round
    // certificates"): an aggregator that crashes *mid signature
    // collection* — after the outcome and the certificate transcript
    // were decided, with only part of the committee's endorsements on
    // disk — recovers from its journal and seals the exact certificate
    // an uncrashed twin seals, byte for byte.
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let c = setup.committee_size as u64;
    let dir = journal_dir("cert");
    let path = dir.join(files::JOURNAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    drive_to_outcome(&mut st, &setup);
    assert!(
        st.certificate().is_none(),
        "certificate must not seal before the signature quorum"
    );
    // Two of five signatures land, then the process dies.
    for m in 1..=2 {
        push_cert_sig(&mut st, &setup, m);
    }
    let pre_crash = st.digest();
    drop(st);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the outcome, the certificate transcript, \
         and the collected signatures"
    );
    assert!(
        recovered.certificate().is_none(),
        "still below full sign-off"
    );
    for m in 3..=c {
        push_cert_sig(&mut recovered, &setup, m);
    }
    let cert = recovered
        .certificate()
        .expect("all members signed, the tick seals")
        .to_vec();
    assert!(verify_bytes(&cert).is_valid());

    // The uncrashed twin seals the identical bytes.
    let twin_path = dir.join("twin.bin");
    let mut twin = AggState::recover(Arc::clone(&setup), &twin_path).unwrap();
    drive_to_outcome(&mut twin, &setup);
    for m in 1..=c {
        push_cert_sig(&mut twin, &setup, m);
    }
    assert_eq!(
        twin.certificate(),
        Some(cert.as_slice()),
        "crash recovery must not perturb the sealed certificate"
    );
    assert_eq!(recovered.digest(), twin.digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_requests_after_recovery_are_idempotent() {
    // A client whose ack was lost in the crash retries into the
    // recovered aggregator: the replayed request must be absorbed
    // without journaling a second copy or perturbing state.
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("idem");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 3, 1);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for raw in &raws {
        feed(&mut st, &setup, raw);
    }
    drop(st);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let digest = recovered.digest();
    let records = recovered.journal_records();
    for raw in &raws {
        feed(&mut recovered, &setup, raw); // every client retries
    }
    assert_eq!(recovered.digest(), digest, "duplicates must not mutate");
    assert_eq!(
        recovered.journal_records(),
        records,
        "duplicates must not be re-journaled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_the_valid_prefix_recovers() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("torn");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 3, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    let mut digests = Vec::new();
    for raw in &raws {
        feed(&mut st, &setup, raw);
        digests.push(st.digest());
    }
    drop(st);

    // Tear the tail: the last record loses 3 checksum bytes, exactly as
    // if the process died mid-write(2).
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(recovered.journal_records(), 2, "torn record dropped");
    assert_eq!(
        recovered.digest(),
        digests[1],
        "recovery lands on the longest durable prefix"
    );
    // The unacknowledged third request is retried by its client and the
    // round proceeds as if the torn write never happened.
    feed(&mut recovered, &setup, &raws[2]);
    assert_eq!(recovered.digest(), digests[2]);
    assert_eq!(recovered.journal_records(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_a_journal_record_is_a_typed_corruption_error() {
    let setup = Arc::new(build_setup(&test_spec()).unwrap());
    let dir = journal_dir("bitflip");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 2, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for raw in &raws {
        feed(&mut st, &setup, raw);
    }
    drop(st);

    // Flip one bit inside record 0's payload (header + length prefix +
    // 2 bytes in).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[mycelium_net::journal::HEADER_BYTES + 4 + 2] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    let err = AggState::recover(Arc::clone(&setup), &path)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, NetError::Journal(JournalError::Corrupt { seq: 0 })),
        "expected Corrupt {{ seq: 0 }}, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn budget_spec(round: u32, capacity: f64) -> RoundSpec {
    RoundSpec {
        round,
        budget: Some(BudgetCfg {
            dataset: "contacts".into(),
            capacity,
            delta: 0.0,
            advanced: false,
        }),
        ..test_spec()
    }
}

#[test]
fn budget_charge_survives_a_mid_round_crash() {
    // The round admits (an Admit lands in both the round journal and the
    // session WAL), runs to its decided outcome (the settle tick journals
    // the Charge), and the process dies before any certificate signature.
    // Recovery must rebuild the identical ledger — witnessed by the state
    // digest, which covers the ledger and the charged epsilon — and a
    // second `install_budget` must not append a single duplicate record
    // to either log.
    let setup = Arc::new(build_setup(&budget_spec(0, 1.5)).unwrap());
    let dir = journal_dir("budget-charge");
    let path = dir.join(files::JOURNAL);
    let wal = dir.join(files::BUDGET_WAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    st.install_budget(&wal).unwrap();
    assert!(!st.is_finished(), "admitted round proceeds");
    drive_to_outcome(&mut st, &setup);
    let pre_crash = st.digest();
    let pre_records = st.journal_records();
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    drop(st); // crash mid signature collection

    let mut recovered = AggState::recover(Arc::clone(&setup), &path).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replay must rebuild the admitted-and-charged ledger bit for bit"
    );
    recovered.install_budget(&wal).unwrap();
    assert_eq!(recovered.digest(), pre_crash, "re-install is a no-op");
    assert_eq!(recovered.journal_records(), pre_records);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "no duplicate ops in the session WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_refusal_is_replayed_not_recomputed() {
    // Session WAL: round 0 charges the whole capacity. Round 1 is then
    // refused at install time; the refusal is journaled, the round fails
    // with the canonical typed message, and an aggregator kill + journal
    // replay lands on the identical refused state — even though the
    // refusal decision itself is never re-derived from prices, only
    // replayed from the record.
    let dir = journal_dir("budget-refuse");
    let wal = dir.join(files::BUDGET_WAL);

    // Round 0 consumes the session capacity.
    let setup0 = Arc::new(build_setup(&budget_spec(0, 1.0)).unwrap());
    let mut st0 = AggState::recover(Arc::clone(&setup0), &dir.join("r0.bin")).unwrap();
    st0.install_budget(&wal).unwrap();
    drive_to_outcome(&mut st0, &setup0);
    assert!(st0.failure().is_none());
    drop(st0);

    // Round 1 against the same WAL: refused before any intake.
    let setup1 = Arc::new(build_setup(&budget_spec(1, 1.0)).unwrap());
    let path1 = dir.join("r1.bin");
    let mut st1 = AggState::recover(Arc::clone(&setup1), &path1).unwrap();
    st1.install_budget(&wal).unwrap();
    assert!(st1.is_finished(), "refused round terminates immediately");
    let failure = st1.failure().expect("refusal is a round failure");
    assert!(
        failure.contains("budget exhausted:"),
        "typed refusal message, got {failure}"
    );
    // Clients that retry into the refused round are turned away without
    // new journal growth.
    let raws = mutating_requests(&setup1, 1, 0);
    let msg = NetMsg::decode(&raws[0], &setup1.cc).unwrap();
    let reply = st1.handle(msg, &raws[0]).unwrap();
    assert!(
        matches!(reply, NetMsg::Finished),
        "intake into a refused round must answer Finished"
    );
    let pre_crash = st1.digest();
    let pre_records = st1.journal_records();
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    drop(st1); // kill the aggregator

    let mut recovered = AggState::recover(Arc::clone(&setup1), &path1).unwrap();
    assert_eq!(
        recovered.digest(),
        pre_crash,
        "replayed refusal must rebuild the identical ledger digest"
    );
    assert_eq!(recovered.failure().as_deref(), Some(failure.as_str()));
    recovered.install_budget(&wal).unwrap();
    assert_eq!(recovered.digest(), pre_crash);
    assert_eq!(recovered.journal_records(), pre_records);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "re-deciding the refused round must not grow the session WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_bound_to_a_different_round_is_rejected() {
    let spec = test_spec();
    let setup = Arc::new(build_setup(&spec).unwrap());
    let dir = journal_dir("binding");
    let path = dir.join(files::JOURNAL);
    let raws = mutating_requests(&setup, 1, 0);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    feed(&mut st, &setup, &raws[0]);
    drop(st);

    // Restart with a different round configuration pointed at the stale
    // journal: replaying it would silently poison the new round, so
    // recovery must refuse with a typed mismatch.
    let other = Arc::new(
        build_setup(&RoundSpec {
            seed: spec.seed + 1,
            ..spec
        })
        .unwrap(),
    );
    let err = AggState::recover(other, &path).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, NetError::Journal(JournalError::BindingMismatch { .. })),
        "expected BindingMismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint format is a compatibility surface: journals written
/// by an older build must still recover, so `AggState::digest` (and with
/// it every `DIGEST` record) must hash exactly the same byte stream. One
/// deterministic proof-carrying round — every contribution duty pushed,
/// device 3 cheating so its slots hold a substituted `Enc(x^0)`, every
/// origin row submitted, the aggregate formed, the certificate sealed —
/// pins both values.
#[test]
fn state_digest_and_checkpoint_bytes_are_pinned() {
    const STATE_DIGEST: &str = "d9c69981a99b4ed92a3304b1d7b1f3dc39b2db3f50ded80f94548cee903b8724";
    const LAST_CHECKPOINT: &str =
        "d9c69981a99b4ed92a3304b1d7b1f3dc39b2db3f50ded80f94548cee903b8724";
    const CHEATER: u32 = 3;
    // Journal record tag of a state-digest checkpoint.
    const DIGEST_TAG: u8 = 6;
    let spec = RoundSpec {
        with_proofs: true,
        ..test_spec()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let dir = journal_dir("pinned");
    let path = dir.join(files::JOURNAL);

    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    for (v, duties) in setup.duties.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + v as u64);
        for duty in duties {
            let sc = setup
                .plan
                .build_contribution(
                    &setup.keys,
                    v as u32,
                    duty.exp,
                    v as u32 == CHEATER,
                    &mut rng,
                )
                .unwrap();
            let msg = NetMsg::PushContrib {
                origin: duty.origin,
                slot: duty.slot,
                sc: Box::new(sc),
            };
            assert!(matches!(request(&mut st, &setup, &msg), NetMsg::Ack));
        }
    }
    drive_to_outcome(&mut st, &setup);
    for m in 1..=setup.committee_size as u64 {
        push_cert_sig(&mut st, &setup, m);
    }
    let cert = RoundCertificate::decode(st.certificate().unwrap()).unwrap();
    assert_eq!(
        cert.rejected,
        vec![CHEATER],
        "the cheater's slots were substituted"
    );
    let state = to_hex(&st.digest());
    drop(st);

    let (_, records) = Journal::open(&path, &spec.coordinator_binding_digest()).unwrap();
    let last = records
        .iter()
        .rev()
        .find(|r| r.first() == Some(&DIGEST_TAG))
        .expect("the journal holds a DIGEST checkpoint");
    let checkpoint = to_hex(&last[1..]);
    assert_eq!(
        (state.as_str(), checkpoint.as_str()),
        (STATE_DIGEST, LAST_CHECKPOINT),
        "the state digest / checkpoint byte stream changed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The client side of one proof-carrying hub round, replayable against
/// any [`AggState`]: every contribution duty (device 3 cheats, so its
/// slots are substituted), every origin row, every check-in, share and
/// certificate signature. Replies decide what comes next, the way the
/// real device, origin and committee processes decide it; each origin
/// row and each share is computed once and re-sent verbatim, as a
/// retrying client re-sends its request.
struct RoundClients {
    setup: Arc<RoundSetup>,
    pushes: Vec<NetMsg>,
    rows: std::collections::BTreeMap<u32, NetMsg>,
    shares: std::collections::BTreeMap<(u64, u32), NetMsg>,
}

impl RoundClients {
    fn new(setup: &Arc<RoundSetup>) -> Self {
        const CHEATER: u32 = 3;
        let mut pushes = Vec::new();
        for (v, duties) in setup.duties.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1000 + v as u64);
            for duty in duties {
                let cheat = v as u32 == CHEATER;
                let sc = setup
                    .plan
                    .build_contribution(&setup.keys, v as u32, duty.exp, cheat, &mut rng)
                    .unwrap();
                pushes.push(NetMsg::PushContrib {
                    origin: duty.origin,
                    slot: duty.slot,
                    sc: Box::new(sc),
                });
            }
        }
        RoundClients {
            setup: Arc::clone(setup),
            pushes,
            rows: Default::default(),
            shares: Default::default(),
        }
    }

    /// Sends the whole request sequence from the start until every
    /// member has seen `Finished`.
    fn run(&mut self, st: &mut AggState) {
        let setup = Arc::clone(&self.setup);
        for push in &self.pushes {
            let reply = request(st, &setup, push);
            assert!(matches!(reply, NetMsg::Ack | NetMsg::Finished));
        }
        for v in 0..setup.pop.graph.len() as u32 {
            let cts = match request(st, &setup, &NetMsg::PullOrigin { origin: v }) {
                NetMsg::OriginJob { cts } => cts,
                NetMsg::Finished => continue,
                other => panic!("origin {v}: unexpected {}", other.kind()),
            };
            let row = self.rows.entry(v).or_insert_with(|| {
                let cts: Vec<Ciphertext> = cts.into_iter().map(Option::unwrap).collect();
                let mut rng = StdRng::seed_from_u64(2000 + v as u64);
                let mut stats = mycelium::exec::ExecStats::default();
                let work = &setup.works[v as usize];
                let ct = mycelium::plan::combine_origin(
                    &setup.plan,
                    &setup.keys,
                    work,
                    &cts,
                    &mut stats,
                    &mut rng,
                )
                .unwrap();
                NetMsg::SubmitOrigin {
                    origin: v,
                    ct: Box::new(ct),
                }
            });
            let reply = request(st, &setup, row);
            assert!(matches!(reply, NetMsg::Ack | NetMsg::Finished));
        }
        let c = setup.committee_size as u64;
        let mut finished = vec![false; c as usize + 1];
        for _ in 0..8 {
            for m in 1..=c {
                if finished[m as usize] {
                    continue;
                }
                let checkin = NetMsg::CommitteeCheckIn {
                    member: m,
                    seed: [m as u8; 32],
                };
                match request(st, &setup, &checkin) {
                    NetMsg::Finished => finished[m as usize] = true,
                    NetMsg::CommitteeWait => {}
                    NetMsg::CommitteeShareTask {
                        round,
                        participants,
                        ct,
                    } => {
                        let push = self.shares.entry((m, round)).or_insert_with(|| {
                            let mut rng = StdRng::seed_from_u64(3000 + m);
                            let t = setup.plan.t_pt as i64;
                            let share = decryption_share(
                                &ct,
                                &setup.key_shares,
                                m,
                                &participants,
                                t,
                                &mut rng,
                            )
                            .unwrap();
                            NetMsg::PushShare {
                                member: m,
                                round,
                                share: Box::new(share),
                            }
                        });
                        assert!(matches!(request(st, &setup, push), NetMsg::Ack));
                    }
                    NetMsg::CertSignTask { transcript } => {
                        let sig = sign_transcript(setup.spec.seed, m, &transcript);
                        let push = NetMsg::PushCertSig { member: m, sig };
                        assert!(matches!(request(st, &setup, &push), NetMsg::Ack));
                    }
                    other => panic!("member {m}: unexpected {}", other.kind()),
                }
            }
        }
        assert!(
            finished[1..].iter().all(|&f| f),
            "every member saw the round finish"
        );
    }
}

/// Crashes the hub after every journal record of a full round in turn:
/// a journal holding exactly the first `k` records of the uncrashed run
/// recovers, every client re-sends its requests from the start, and the
/// round seals the same certificate bytes and lands on the same state
/// digest as the run that never crashed.
#[test]
fn every_crash_point_of_a_hub_round_recovers_to_the_same_certificate() {
    let spec = RoundSpec {
        with_proofs: true,
        ..test_spec()
    };
    let setup = Arc::new(build_setup(&spec).unwrap());
    let binding = spec.coordinator_binding_digest();
    let dir = journal_dir("crash-points");
    let mut clients = RoundClients::new(&setup);

    let path = dir.join(files::JOURNAL);
    let mut st = AggState::recover(Arc::clone(&setup), &path).unwrap();
    clients.run(&mut st);
    let cert = st
        .certificate()
        .expect("the uncrashed round seals")
        .to_vec();
    let digest = st.digest();
    drop(st);
    let (_, records) = Journal::open(&path, &binding).unwrap();
    assert!(
        records.len() > clients.pushes.len(),
        "the journal holds the whole round"
    );

    for k in 0..=records.len() {
        let prefix = dir.join(format!("prefix-{k}.bin"));
        let mut journal = Journal::create(&prefix, &binding).unwrap();
        for record in &records[..k] {
            journal.append(record).unwrap();
        }
        journal.commit().unwrap();
        drop(journal);
        let mut st = AggState::recover(Arc::clone(&setup), &prefix)
            .unwrap_or_else(|e| panic!("crash after record {k}: recovery failed: {e}"));
        clients.run(&mut st);
        assert_eq!(
            st.certificate(),
            Some(cert.as_slice()),
            "crash after record {k} of {}: certificate bytes differ",
            records.len()
        );
        assert_eq!(
            st.digest(),
            digest,
            "crash after record {k} of {}: final state differs",
            records.len()
        );
        drop(st);
        std::fs::remove_file(&prefix).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
