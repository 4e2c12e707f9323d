//! Benchmark of the OMEGA design-space exploration and the `mapperd` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-rmat18 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/reference.json` for their parameters and why
//! each was chosen):
//!
//! * `sweep-rmat18` — layer-level GCN `dse::explore` over an R-MAT graph of
//!   2^18 vertices, then the preset-gap pass, then JSON of the outcome;
//! * `model-gat-cora` — model-level Pareto `explore_model` for GAT-2 over
//!   Cora, on a fresh `DseCache` per op;
//! * `serve-mixed` — an in-process `mapperd` under open-loop Poisson load with
//!   a hot / fresh / named request mix.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate run
//! that wraps spans around the calls into each layer and reports the
//! per-layer metrics. Every operation's output is checked; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// The metrics `BENCHMARK.json` declares under `key` (`end_to_end` or
/// `per_layer`), as (name, unit): every workload reports all of them, and a
/// per-layer metric of a layer the workload never calls reads 0.
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json does not parse: {e:?}"))?;
    let metrics = doc
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    metrics
        .iter()
        .map(|metric| {
            let field = |f: &str| {
                metric
                    .get(f)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{key}` metric has no `{f}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Worker threads every workload's system under test uses.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started: set-up is timed from here.
    pub started: Instant,
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        started,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The repository revision, when the benchmark is built inside a git clone.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
        None => head.to_string(),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload sweep-rmat18|model-gat-cora|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} threads={} profile={} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        THREADS,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_revision(),
    );
    let declared = match declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let result = match args.workload.as_str() {
        "sweep-rmat18" => sweep::layer(&args, tracer.as_ref()),
        "model-gat-cora" => sweep::model(&args, tracer.as_ref()),
        "serve-mixed" => serve::run(&args, tracer.as_ref()),
        other => Err(format!(
            "unknown workload `{other}` (sweep-rmat18|model-gat-cora|serve-mixed)"
        )),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(t) = &tracer {
        println!(
            "\nspans (self time = duration minus child spans):\n{}",
            t.summary()
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        match t.write_json(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    let mut json = String::new();
    println!();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match outcome.metrics.get(name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                return ExitCode::FAILURE;
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        };
        println!("{name:<32} {value:>16.6} {unit}");
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_declared_metric_has_a_layer_in_the_reference() {
        let e2e = super::declared("end_to_end").unwrap();
        assert!(e2e
            .iter()
            .any(|(name, unit)| name == "setup_s" && unit == "s"));
        let reference: serde_json::Value =
            serde_json::from_str(include_str!("../reference.json")).unwrap();
        let layers = reference
            .get("per_layer")
            .and_then(|p| p.get("layers"))
            .unwrap();
        for (name, _) in super::declared("per_layer").unwrap() {
            let layer = name.split('.').next().unwrap();
            assert!(
                layers.get(layer).is_some(),
                "{name}: no layer `{layer}` in reference.json"
            );
        }
        for (name, _) in e2e {
            assert!(
                reference
                    .get("end_to_end")
                    .and_then(|e| e.get(&name))
                    .is_some(),
                "{name} undefined"
            );
        }
    }
}
