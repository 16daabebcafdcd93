//! Layer probes for the traced run: repeated calls into one layer's
//! public API, each inside a span, on inputs shaped like the workload's.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use mycelium::plan::{ciphertext_digest, QueryPlan};
use mycelium_bgv::encoding::encode_monomial;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_math::rng::{SeedableRng, StdRng};
use mycelium_net::client::{Client, ClientConfig};
use mycelium_net::error::NetError;
use mycelium_net::journal::Journal;
use mycelium_net::server::{Handler, Server, ServerConfig};
use mycelium_net::Identity;
use mycelium_zkp::argument;
use mycelium_zkp::wellformed::well_formed_witness;

use crate::trace::Tracer;

/// Rng stream of the probes (disjoint from the round's streams).
const PROBE_STREAM: u64 = 0x9000_0000;
/// Spot checks per proof, as `QueryPlan::build_contribution` uses.
const PROOF_CHECKS: usize = 48;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed).with_stream(PROBE_STREAM)
}

/// `bgv.keygen`: full key generation (secret, public and relinearization
/// keys) at `params`.
pub fn keygen(tr: &mut Tracer, params: &BgvParams, seed: u64, reps: u64) {
    let mut r = rng(seed);
    for i in 0..reps {
        tr.span("bgv.keygen", i, |_| {
            std::hint::black_box(KeySet::generate(params, &mut r));
        });
    }
}

/// `bgv.encrypt`, `math.ntt` (one top-level `RnsPoly::to_ntt`),
/// `bgv.mul`, `bgv.relin`, `bgv.modswitch`, and, when the plan carries
/// a well-formedness circuit, `zkp.prove` and `zkp.verify`.
pub fn kernels(
    tr: &mut Tracer,
    keys: &KeySet,
    plan: &QueryPlan,
    seed: u64,
    reps: u64,
) -> Result<(), String> {
    let mut r = rng(seed);
    let (n, t) = (plan.n_ring, plan.t_pt);
    let span = plan.analysis.total_span;
    for i in 0..reps {
        let exp = i as usize % span;
        let pt = encode_monomial(exp, n, t).map_err(|e| e.to_string())?;
        let a = tr
            .span("bgv.encrypt", i, |_| {
                Ciphertext::encrypt(&keys.public, &pt, &mut r)
            })
            .map_err(|e| e.to_string())?;
        let b = Ciphertext::encrypt(&keys.public, &pt, &mut r).map_err(|e| e.to_string())?;
        let mut poly = a.parts()[0].coeff();
        tr.span("math.ntt", i, |_| poly.to_ntt());
        std::hint::black_box(&poly);
        let prod = tr
            .span("bgv.mul", i, |_| a.mul(&b))
            .map_err(|e| e.to_string())?;
        let relin = tr
            .span("bgv.relin", i, |_| prod.relinearize(&keys.relin))
            .map_err(|e| e.to_string())?;
        let down = tr
            .span("bgv.modswitch", i, |_| relin.mod_switch_down())
            .map_err(|e| e.to_string())?;
        std::hint::black_box(down);
        if let Some(circuit) = &plan.circuit {
            let mut coeffs = vec![0u64; span];
            coeffs[exp] = 1;
            let witness = well_formed_witness(circuit, &coeffs);
            let statement = ciphertext_digest(&a);
            let proof = tr.span("zkp.prove", i, |_| {
                argument::prove_unchecked(&circuit.cs, &witness, &statement, PROOF_CHECKS)
            });
            if !tr.span("zkp.verify", i, |_| {
                argument::verify(&circuit.cs, &statement, &proof)
            }) {
                return Err("an honest well-formedness proof failed to verify".into());
            }
        }
    }
    Ok(())
}

/// `journal.commit`: append and commit (fsync) one record of
/// `record_len` bytes to a journal in `dir`, the output filesystem.
pub fn journal_commit(
    tr: &mut Tracer,
    dir: &Path,
    record_len: usize,
    reps: u64,
) -> Result<(), String> {
    let path = dir.join("probe-journal.bin");
    let mut journal = Journal::create(&path, &[0u8; 32]).map_err(|e| e.to_string())?;
    let payload = vec![0x5au8; record_len];
    let mut result = Ok(());
    for i in 0..reps {
        result = tr.span("journal.commit", i, |_| {
            journal.append(&payload).and_then(|_| journal.commit())
        });
        if result.is_err() {
            break;
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    result.map_err(|e| e.to_string())
}

/// `channel.handshake` (fresh connect, authenticated handshake and a
/// one-byte exchange) and `channel.exchange` (a `payload`-byte round
/// trip on an established channel) against a loopback echo server.
pub fn channel(
    tr: &mut Tracer,
    payload: usize,
    handshakes: u64,
    exchanges: u64,
) -> Result<(), String> {
    let identity = Identity::derive(0xbe, 0);
    let server_pub = identity.public;
    let handler: Arc<dyn Handler> =
        Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> { Ok(req.to_vec()) });
    let server = Server::spawn(
        "127.0.0.1:0",
        identity,
        ServerConfig::default(),
        handler,
        0xbe,
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let config = || ClientConfig::new(Identity::derive(0xbe, 100), Some(server_pub));
    let result = (|| -> Result<(), NetError> {
        for i in 0..handshakes {
            let mut client = Client::new(addr, config(), StdRng::seed_from_u64(1000 + i));
            tr.span("channel.handshake", i, |_| client.request("hs", b"x"))?;
        }
        let body = vec![0x5au8; payload];
        let mut client = Client::new(addr, config(), StdRng::seed_from_u64(7));
        client.request("warm", &body)?;
        for i in 0..exchanges {
            let reply = tr.span("channel.exchange", i, |_| client.request("ct", &body))?;
            if reply != body {
                return Err(NetError::Decode("echo mismatch".into()));
            }
        }
        Ok(())
    })();
    server.shutdown();
    result.map_err(|e| e.to_string())
}

/// `proc.spawn`: spawn, exec and reap a role process of this binary
/// that exits at once.
pub fn spawn(tr: &mut Tracer, exe: &Path, reps: u64) -> Result<(), String> {
    for i in 0..reps {
        let status = tr
            .span("proc.spawn", i, |_| Command::new(exe).arg("noop").status())
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("noop process exited with {status}"));
        }
    }
    Ok(())
}
