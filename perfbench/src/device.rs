//! The `device_paper` workload: one device's per-query work at the
//! paper's ring (`BgvParams::paper_sized()`: N = 32768, 10 × 55-bit q),
//! in-process, with no network.
//!
//! One operation builds `d` contributions (encrypt, well-formedness
//! proof, encode) and then, as the origin, decodes them and folds them
//! with `plan::multiply_into`, and encodes the origin submission. The
//! device uploads the `d` contributions and the submission.
//!
//! The traced run alternates untraced and traced operations; the gap
//! between their medians is the tracing overhead.

use std::sync::Arc;
use std::time::Instant;

use mycelium::exec::ExecStats;
use mycelium::params::SystemParams;
use mycelium::plan::{multiply_into, QueryPlan};
use mycelium::streams as stream;
use mycelium_bgv::{BgvParams, Ciphertext, KeySet};
use mycelium_math::rng::{RngCore, SeedableRng, StdRng};
use mycelium_net::codec::{ciphertext_encoded_bytes, CodecCtx};
use mycelium_net::proto::NetMsg;
use mycelium_net::round::{build_population, RoundSpec};
use mycelium_query::builtin::paper_query;
use mycelium_sharing::threshold::KeyShareSet;

use crate::probes;
use crate::report::{another_fits, median, Report};
use crate::trace::Tracer;

/// Contributions per device per query: the paper's degree bound d.
const D: usize = 10;
/// Set-up repetitions in the timed run (the median is reported).
const SETUP_REPS: usize = 3;
/// Every run measures at least this many operations (pairs when traced).
const MIN_OPS: usize = 3;
/// The device's and the origin's vertex ids in the encoded messages.
const DEVICE: u32 = 1;
const ORIGIN: u32 = 0;

struct Device {
    keys: KeySet,
    plan: QueryPlan,
    cc: CodecCtx,
    /// The monomial exponent of each of the `D` contributions.
    exps: Vec<usize>,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Device, String> {
    let mut params = SystemParams::paper();
    params.bgv = BgvParams::paper_sized();
    let mut keys_rng = StdRng::seed_from_u64(seed).with_stream(stream::KEYS);
    let keys = tr.span("bgv.keygen", 0, |_| {
        KeySet::generate(&params.bgv, &mut keys_rng)
    });
    let mut deal_rng = StdRng::seed_from_u64(seed).with_stream(stream::DEAL);
    let c = params.committee_size;
    tr.span("sharing.deal", 0, |_| {
        std::hint::black_box(KeyShareSet::deal(&keys.secret, c / 2, c, &mut deal_rng))
    });
    let query = paper_query("Q4").ok_or("paper query Q4 is missing")?;
    let pop = build_population(&RoundSpec {
        seed,
        n: 24,
        ..RoundSpec::default()
    });
    let plan = QueryPlan::new(&query, &pop, &params, true).map_err(|e| e.to_string())?;
    let span = plan.analysis.total_span;
    if span * D >= params.bgv.n {
        return Err(format!(
            "span {span} lets the folded monomial wrap the ring"
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let exps = (0..D)
        .map(|_| (rng.next_u64() % span as u64) as usize)
        .collect();
    let cc = CodecCtx::with_context(Arc::clone(keys.public.context()), &params.bgv);
    Ok(Device {
        keys,
        plan,
        cc,
        exps,
    })
}

/// One operation's output, kept for the checks.
struct OpOutput {
    raws: Vec<Vec<u8>>,
    folded: Ciphertext,
    upload: u64,
}

fn op(dev: &Device, seed: u64, index: u64, tr: &mut Tracer) -> Result<OpOutput, String> {
    tr.span("device.op", index, |tr| {
        let mut rng = StdRng::seed_from_u64(seed).with_stream(stream::CONTRIB + index);
        let mut raws = Vec::with_capacity(D);
        for (slot, &exp) in dev.exps.iter().enumerate() {
            let sc = tr
                .span("plan.build_contribution", slot as u64, |_| {
                    dev.plan
                        .build_contribution(&dev.keys, DEVICE, exp, false, &mut rng)
                })
                .map_err(|e| e.to_string())?;
            let msg = NetMsg::PushContrib {
                origin: ORIGIN,
                slot: slot as u32,
                sc: Box::new(sc),
            };
            raws.push(tr.span_kind("codec.encode", "PushContrib", slot as u64, |_| msg.encode()));
        }
        let mut acc = None;
        let mut stats = ExecStats::default();
        for (slot, raw) in raws.iter().enumerate() {
            let msg = tr
                .span_kind("codec.decode", "PushContrib", slot as u64, |_| {
                    NetMsg::decode(raw, &dev.cc)
                })
                .map_err(|e| e.to_string())?;
            let NetMsg::PushContrib { sc, .. } = msg else {
                return Err("a contribution decoded as another message".into());
            };
            tr.span("plan.multiply_into", slot as u64, |_| {
                multiply_into(&mut acc, sc.ct, &dev.keys, &mut stats)
            })
            .map_err(|e| e.to_string())?;
        }
        let submission = NetMsg::SubmitOrigin {
            origin: ORIGIN,
            ct: Box::new(acc.ok_or("nothing folded")?),
        };
        let sent = tr.span_kind("codec.encode", "SubmitOrigin", 0, |_| submission.encode());
        let NetMsg::SubmitOrigin { ct, .. } = submission else {
            unreachable!("built as SubmitOrigin above")
        };
        let upload = raws.iter().map(|r| r.len() as u64).sum::<u64>() + sent.len() as u64;
        Ok(OpOutput {
            raws,
            folded: *ct,
            upload,
        })
    })
}

/// The output checks: every contribution round-trips through the codec
/// and carries a verifying proof, and the fold decrypts to the product
/// monomial `x^(Σ exps)`.
fn check(dev: &Device, out: &OpOutput) -> Result<(), String> {
    for (slot, raw) in out.raws.iter().enumerate() {
        let msg = NetMsg::decode(raw, &dev.cc).map_err(|e| e.to_string())?;
        if msg.encode() != *raw {
            return Err(format!("contribution {slot} does not round-trip the codec"));
        }
        let NetMsg::PushContrib { sc, .. } = msg else {
            return Err(format!("contribution {slot} decoded as another message"));
        };
        if !dev.plan.verify_contribution(&sc) {
            return Err(format!("contribution {slot} fails verify_contribution"));
        }
    }
    let want: usize = dev.exps.iter().sum();
    let pt = out.folded.decrypt(&dev.keys.secret);
    let exact = pt
        .coeffs()
        .iter()
        .enumerate()
        .all(|(i, &c)| c == u64::from(i == want));
    if exact {
        Ok(())
    } else {
        Err(format!("the fold does not decrypt to x^{want}"))
    }
}

pub fn run(seed: u64, seconds: f64, rep: &mut Report) -> Result<(), String> {
    let mut tr = std::mem::replace(&mut rep.tracer, Tracer::new(false));
    let traced = tr.is_on();
    let mut dev = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        // Drop the previous keys first: two paper-scale key sets at once
        // would double the peak memory.
        drop(dev.take());
        let t = Instant::now();
        dev = Some(setup(seed, &mut tr)?);
        rep.setup_s.push(t.elapsed().as_secs_f64());
    }
    let dev = dev.expect("at least one set-up");
    // A traced run spends two operations per loop: one untraced, one
    // traced.
    let per_loop = if traced { 2.0 } else { 1.0 };
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let typical = if rep.op_s.is_empty() {
            0.0
        } else {
            median(&rep.op_s) * per_loop
        };
        let elapsed = started.elapsed().as_secs_f64();
        if !another_fits(rep.op_s.len(), MIN_OPS, elapsed, typical, seconds) {
            break;
        }
        let t = Instant::now();
        let result = op(&dev, seed, index, &mut off);
        let wall = t.elapsed().as_secs_f64();
        let result = result.and_then(|o| check(&dev, &o).map(|_| o));
        index += 1;
        if let Ok(o) = &result {
            rep.op_s.push(wall);
            rep.upload_bytes.push(o.upload);
        }
        rep.check(&format!("device operation {index}"), result.map(|_| ()));
        if traced {
            let result = op(&dev, seed, index, &mut tr).and_then(|o| check(&dev, &o));
            index += 1;
            rep.check(&format!("traced device operation {index}"), result);
        }
    }
    if traced {
        probes::kernels(&mut tr, &dev.keys, &dev.plan, seed, 3)?;
        let params = BgvParams::paper_sized();
        let fresh = ciphertext_encoded_bytes(2, params.levels, params.n);
        rep.value("codec.ct_bytes", fresh as f64);
    }
    rep.tracer = tr;
    Ok(())
}
