//! The benchmark harness: the bench bins under `src/bin` and the pieces
//! they share.
//!
//! The bins measure **virtual time**, the simulated platform seconds of
//! the calibrated cost models, so every number is deterministic. `tables`
//! regenerates the paper's Tables 1–4 and, with `tables ablate`, the
//! ablations of its design choices ([`ablate`]); the other bins write
//! one `BENCH_*.json` each. The host-timed exceptions are
//! `verify_throughput` (dsverify events per second) and the real-disk
//! rows of `tables ablate`. The host time of the library's own I/O path
//! is measured by the separate `perfbench` crate
//! (`python3 perfbench/run.py`).

#![forbid(unsafe_code)]

pub mod ablate;
pub mod percentile;

use std::io::Write as _;

use dstreams_trace::json::Value;

/// The `[--smoke] [--out PATH]` command line every bench bin takes.
pub struct Cli {
    /// Run the small CI configurations instead of the full sweep.
    pub smoke: bool,
    /// Where the JSON results are written.
    pub out: String,
}

impl Cli {
    /// Parse the process arguments; without `--out` the results go to
    /// `default_out`.
    pub fn parse(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| default_out.to_string());
        Cli {
            smoke: args.iter().any(|a| a == "--smoke"),
            out,
        }
    }

    /// Write `{"bench", "mode", ..fields}` to the output path, then
    /// report the claims (see [`verdict`]).
    pub fn finish(
        &self,
        bench: &str,
        fields: Vec<(String, Value)>,
        violations: &[String],
        holds: &str,
    ) {
        let mode = if self.smoke { "smoke" } else { "full" };
        let mut obj = vec![
            ("bench".into(), Value::Str(bench.into())),
            ("mode".into(), Value::Str(mode.into())),
        ];
        obj.extend(fields);
        write_json(&self.out, &Value::Obj(obj));
        verdict(violations, holds);
    }
}

/// Write `json` pretty-printed and newline-terminated to `path`.
pub fn write_json(path: &str, json: &Value) {
    let mut f = std::fs::File::create(path).expect("create json output");
    f.write_all(json.to_json_pretty().as_bytes())
        .expect("write json output");
    f.write_all(b"\n").expect("write json output");
    eprintln!("wrote {path}");
}

/// Print `holds` when no claim is violated; otherwise print each
/// violation and exit 1.
pub fn verdict(violations: &[String], holds: &str) {
    if violations.is_empty() {
        println!("\n{holds}");
        return;
    }
    for v in violations {
        println!("VIOLATED: {v}");
    }
    std::process::exit(1);
}
