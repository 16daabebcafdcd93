//! The raw result of one benchmark run, handed to `run.py` as JSON.
//!
//! The binary only measures and checks; every statistic (medians,
//! percentiles, self time, the `NET_round.json` reader) is computed in
//! `perfbench/analysis.py`, where it is unit-tested.

use crate::trace::Tracer;

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn f64_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
    format!("[{}]", items.join(","))
}

/// Everything one run measured and checked.
pub struct Report {
    /// Wall seconds of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each successful timed operation.
    pub op_s: Vec<f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// One message per failed operation or check.
    pub failures: Vec<String>,
    /// Bytes one device uploads per query, per device operation.
    pub upload_bytes: Vec<u64>,
    /// One raw JSON object per checked round (wall time, round shape,
    /// the embedded `NET_round.json`, journal bytes, certificate
    /// fingerprint).
    pub rounds: Vec<String>,
    /// Named scalar results (`key` → JSON number).
    pub values: Vec<(&'static str, f64)>,
    /// The span recorder (empty unless traced).
    pub tracer: Tracer,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            setup_s: Vec::new(),
            op_s: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            upload_bytes: Vec::new(),
            rounds: Vec::new(),
            values: Vec::new(),
            tracer: Tracer::new(traced),
        }
    }

    /// Counts one checked outcome: `Err` is a failure.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("perfbench: FAILED {what}: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn value(&mut self, key: &'static str, v: f64) {
        self.values.push((key, v));
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let uploads: Vec<String> = self.upload_bytes.iter().map(u64::to_string).collect();
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}:{v:e}", json_str(k)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"stamp\":{{\"nproc\":{},\"simd\":{},\"myc_threads\":{}}},\
             \"setup_s\":{},\"op_s\":{},\"attempted\":{},\"failures\":[{}],\"upload_bytes\":[{}],\
             \"rounds\":[{}],\"values\":{{{}}},\"spans\":{}}}",
            json_str(workload),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(mycelium_math::simd::active_name()),
            json_str(&std::env::var("MYC_THREADS").unwrap_or_else(|_| "unset".into())),
            f64_list(&self.setup_s),
            f64_list(&self.op_s),
            self.attempted,
            failures.join(","),
            uploads.join(","),
            self.rounds.join(","),
            values.join(","),
            self.tracer.to_json(),
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even);
/// used only to decide how many operations fit in the run.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Whether another operation of typical length `typical` still fits
/// into `seconds` after `elapsed`. At least `min_ops` always run.
pub fn another_fits(done: usize, min_ops: usize, elapsed: f64, typical: f64, seconds: f64) -> bool {
    done < min_ops || elapsed + typical <= seconds
}
