//! `explore` — exhaustive parallel design-space exploration over the paper's
//! full 6,656-pattern dataflow space, for any dataset and objective — and,
//! with `--model`, the model-level joint search over per-layer dataflows,
//! inter-layer pipelining, and PE partitioning for whole GNN chains.
//!
//! ```text
//! explore --dataset Cora --objective edp --threads 8 --top 10 --refine
//! explore --dataset Citeseer --objective runtime --json results/cora-dse.json
//! explore --dataset Mutag --threads 2 --pes 2048 --hidden 64
//! explore --model gcn2 --dataset Cora --threads 8
//! explore --model gin --dataset Mutag --per-layer-k 4 --json -
//! explore --model gat --dataset Cora --threads 8
//! explore --model gcn2 --dataset Mutag --activation act
//! explore --dataset rmat-20 --threads 8 --stats
//! ```
//!
//! Prints a ranked table of the best dataflows (the *true* optimum of the
//! enumerated space, not a preset or a sample), the preset gap — how much the
//! best Table V preset leaves on the table versus that optimum — and search
//! statistics. In `--model` mode the ranked rows are whole-model mappings and
//! the gap is measured against the best *uniform* preset applied to every
//! layer. `--json PATH` additionally writes the full outcome as JSON (`-` for
//! stdout).

use std::process::ExitCode;
use std::time::Instant;

use omega_accel::engine::ElementwiseOp;
use omega_accel::AccelConfig;
use omega_core::dse::model::{explore_model, ModelDseOptions, ModelExploreOutcome};
use omega_core::dse::{explore, DseCache, DseOptions, ExploreOutcome};
use omega_core::mapper::Objective;
use omega_core::models::GnnModel;
use omega_core::GnnWorkload;
use omega_graph::DatasetSpec;

struct Args {
    dataset: String,
    model: Option<String>,
    per_layer_k: usize,
    objective: Objective,
    objective_set: bool,
    threads: usize,
    top: usize,
    refine: bool,
    prune: bool,
    reference_walk: bool,
    stats: bool,
    hidden: Option<usize>,
    activation: Option<ElementwiseOp>,
    pes: usize,
    bandwidth: Option<usize>,
    pareto: bool,
    rf_bytes: Option<usize>,
    gb_bytes: Option<usize>,
    max_buffer_bytes: Option<u64>,
    seed: u64,
    json: Option<String>,
    remote: Option<String>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        dataset: "Citeseer".into(),
        model: None,
        per_layer_k: 4,
        objective: Objective::Runtime,
        objective_set: false,
        threads: 8,
        top: 10,
        refine: false,
        prune: true,
        reference_walk: false,
        stats: false,
        hidden: None,
        activation: None,
        pes: 512,
        bandwidth: None,
        pareto: false,
        rf_bytes: None,
        gb_bytes: None,
        max_buffer_bytes: None,
        seed: 0x0E5A_2022,
        json: None,
        remote: None,
        deadline_ms: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--dataset" => out.dataset = value(&mut i)?,
            "--model" => out.model = Some(value(&mut i)?),
            "--per-layer-k" => {
                out.per_layer_k =
                    value(&mut i)?.parse().map_err(|e| format!("--per-layer-k: {e}"))?
            }
            "--objective" => {
                out.objective = match value(&mut i)?.to_lowercase().as_str() {
                    "runtime" | "cycles" => Objective::Runtime,
                    "energy" => Objective::Energy,
                    "edp" => Objective::Edp,
                    other => return Err(format!("unknown objective '{other}' (runtime|energy|edp)")),
                };
                out.objective_set = true;
            }
            "--threads" => {
                out.threads = value(&mut i)?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--top" => out.top = value(&mut i)?.parse().map_err(|e| format!("--top: {e}"))?,
            "--refine" => out.refine = true,
            "--no-prune" => out.prune = false,
            "--reference-walk" => out.reference_walk = true,
            "--stats" => out.stats = true,
            "--hidden" => {
                out.hidden = Some(value(&mut i)?.parse().map_err(|e| format!("--hidden: {e}"))?)
            }
            "--activation" => {
                out.activation = Some(match value(&mut i)?.to_lowercase().as_str() {
                    "act" | "relu" => ElementwiseOp::Activation,
                    "norm" | "layernorm" => ElementwiseOp::LayerNorm,
                    other => return Err(format!("unknown activation '{other}' (act|norm)")),
                })
            }
            "--pes" => out.pes = value(&mut i)?.parse().map_err(|e| format!("--pes: {e}"))?,
            "--bandwidth" => {
                out.bandwidth = Some(value(&mut i)?.parse().map_err(|e| format!("--bandwidth: {e}"))?)
            }
            "--pareto" => out.pareto = true,
            "--rf-bytes" => {
                out.rf_bytes =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--rf-bytes: {e}"))?)
            }
            "--gb-bytes" => {
                out.gb_bytes =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--gb-bytes: {e}"))?)
            }
            "--max-buffer-bytes" => {
                out.max_buffer_bytes = Some(
                    value(&mut i)?.parse().map_err(|e| format!("--max-buffer-bytes: {e}"))?,
                )
            }
            "--seed" => out.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--json" => out.json = Some(value(&mut i)?),
            "--remote" => out.remote = Some(value(&mut i)?),
            "--deadline-ms" => {
                out.deadline_ms =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--deadline-ms: {e}"))?)
            }
            "--help" | "-h" => return Err("usage".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if out.threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    if out.top == 0 {
        return Err("--top must be >= 1".into());
    }
    if out.pes == 0 {
        return Err("--pes must be >= 1".into());
    }
    if out.per_layer_k == 0 {
        return Err("--per-layer-k must be >= 1".into());
    }
    if out.pareto && out.objective_set {
        return Err(
            "--objective has no effect with --pareto (the frontier covers runtime, energy, \
             and buffer footprint at once; pick a point from it instead)"
                .into(),
        );
    }
    if out.pareto && out.refine {
        return Err(
            "--refine has no effect with --pareto (refinement chases one scalar objective; \
             the frontier is multi-objective)"
                .into(),
        );
    }
    if out.max_buffer_bytes.is_some() && !out.pareto {
        return Err(
            "--max-buffer-bytes requires --pareto (budget queries are answered from the \
             frontier)"
                .into(),
        );
    }
    if out.rf_bytes == Some(0) || out.gb_bytes == Some(0) {
        return Err("--rf-bytes/--gb-bytes must be >= 1".into());
    }
    if out.remote.is_some() && (out.model.is_some() || out.pareto) {
        return Err(
            "--remote forwards one layer-level search to a running mapperd; it cannot \
             combine with --model or --pareto"
                .into(),
        );
    }
    if out.deadline_ms.is_some() && out.remote.is_none() {
        return Err("--deadline-ms requires --remote (deadlines are a serving concept)".into());
    }
    Ok(out)
}

/// `--remote ADDR`: forward the layer-level search to a running `mapperd`
/// instead of searching locally — the client side of the serving stack, with
/// the same retry/backoff machinery `loadgen` uses. Transient failures (shed
/// responses, injected panics, a daemon still starting) retry with
/// exponential backoff + jitter; permanent errors surface immediately.
fn remote(addr: &str, args: &Args, workload: &GnnWorkload, cfg: &AccelConfig) -> ExitCode {
    use omega_serve::client::{MapperClient, RetryPolicy};
    let mut request = omega_serve::MapRequest::for_workload(workload);
    request.objective = Some(
        match args.objective {
            Objective::Runtime => "runtime",
            Objective::Energy => "energy",
            Objective::Edp => "edp",
        }
        .to_string(),
    );
    request.top_k = Some(args.top);
    request.pes = Some(cfg.num_pes);
    request.bandwidth = Some(cfg.dist_bandwidth);
    request.deadline_ms = args.deadline_ms;
    let policy = RetryPolicy { attempts: 5, base_delay_ms: 50, max_delay_ms: 2000, seed: args.seed };
    let mut client = match MapperClient::connect(addr, policy) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("explore --remote: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let response = match client.request(&request) {
        Ok(response) => response,
        Err(e) => {
            eprintln!("explore --remote: request failed after retries: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !response.ok {
        eprintln!(
            "explore --remote: {} (quality {})",
            response.error.as_deref().unwrap_or("request refused"),
            response.decision_quality.as_deref().unwrap_or("?")
        );
        return ExitCode::FAILURE;
    }
    println!(
        "workload  {} (V={}, F={}, G={}, nnz={})",
        workload.name, workload.v, workload.f, workload.g, workload.nnz
    );
    println!(
        "remote    {addr} — disposition {}, quality {}, server latency {} µs, {} retries",
        response.cache.as_deref().unwrap_or("?"),
        response.decision_quality.as_deref().unwrap_or("?"),
        response.latency_us.unwrap_or(0),
        client.retries(),
    );
    println!();
    println!("{:>4}  {:<28} {:>14} {:>14} {:>14}", "rank", "dataflow", "cycles", "energy (uJ)", "score");
    for (rank, d) in response.ranked.iter().flatten().enumerate() {
        println!(
            "{:>4}  {:<28} {:>14} {:>14.3} {:>14.4e}",
            rank + 1,
            d.dataflow,
            d.cycles,
            d.energy_pj / 1e6,
            d.score,
        );
    }
    ExitCode::SUCCESS
}

/// The named multi-layer models the CLI can explore.
fn model_by_name(name: &str) -> Option<GnnModel> {
    match name.to_lowercase().as_str() {
        "gcn2" => Some(GnnModel::gcn_2layer(7)),
        "sage2" => Some(GnnModel::sage_2layer(32, 7)),
        "gin" => Some(GnnModel::gin(3, 64)),
        "gat" => Some(GnnModel::gat_2layer(8, 7)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "usage" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: explore [--dataset NAME|rmat-N|chung-lu-N] [--model gcn2|sage2|gin|gat] \
                 [--objective runtime|energy|edp] [--threads N] [--top K] \
                 [--per-layer-k K] [--refine] [--no-prune] [--reference-walk] \
                 [--stats] [--hidden G] [--activation act|norm] [--pes N] \
                 [--bandwidth ELEMS] [--pareto] [--rf-bytes N] [--gb-bytes N] \
                 [--max-buffer-bytes N] [--seed S] [--json PATH|-] \
                 [--remote HOST:PORT [--deadline-ms MS]]"
            );
            return ExitCode::FAILURE;
        }
    };

    // The Table IV registry first; unknown names fall through to the scale
    // family (`rmat-N` / `chung-lu-N`), whose summary-driven sweeps are the
    // reason million-vertex workloads are now addressable from the CLI.
    let started = Instant::now();
    let mut workload = match DatasetSpec::by_name(&args.dataset) {
        Some(spec) => {
            let dataset = spec.generate(args.seed);
            GnnWorkload::gcn_layer(&dataset, args.hidden.unwrap_or(16))
        }
        None => match omega_graph::scale_graph(&args.dataset, args.seed) {
            Some(graph) => GnnWorkload::from_graph(&graph, args.hidden.unwrap_or(16)),
            None => {
                eprintln!(
                    "unknown dataset '{}'; known: {}, rmat-N, chung-lu-N",
                    args.dataset,
                    DatasetSpec::all().iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
    };
    // Graph generation plus workload build: on the scale family this is
    // the largest set-up cost, so the workload line reports it.
    let generate_s = started.elapsed().as_secs_f64();
    // `--activation` appends a sequential elementwise suffix to every evaluated
    // design; in model mode the same op rides on every layer instead.
    workload.post_op = args.activation;
    let mut cfg = AccelConfig::paper_default().with_pes(args.pes);
    if let Some(bw) = args.bandwidth {
        cfg = cfg.with_bandwidth(bw);
    }
    // Finite budgets make capacity a *modelled* constraint: working sets that
    // overflow pay costed spill passes inside the phase engines.
    if let Some(rf) = args.rf_bytes {
        cfg.rf_bytes_per_pe = rf;
        cfg.knobs.enforce_capacity = true;
    }
    if let Some(gb) = args.gb_bytes {
        cfg.gb_bytes = gb;
        cfg.knobs.enforce_capacity = true;
    }
    // `--reference-walk` pins every sparse phase to the per-edge oracle: same
    // ranked result (bit-identical), O(nnz) cost — the differential baseline
    // for the summary-driven walk.
    cfg.knobs.reference_walk = args.reference_walk;

    if let Some(addr) = args.remote.clone() {
        return remote(&addr, &args, &workload, &cfg);
    }

    if let Some(model_name) = &args.model {
        let Some(mut model) = model_by_name(model_name) else {
            eprintln!("unknown model '{model_name}'; known: gcn2, sage2, gin, gat");
            return ExitCode::FAILURE;
        };
        if let Some(op) = args.activation {
            model = model.with_activation(op);
        }
        return run_model(&model, &workload, &cfg, &args, generate_s);
    }

    let opts = DseOptions {
        objective: args.objective,
        threads: args.threads,
        top_k: args.top,
        refine_steps: if args.refine { 16 } else { 0 },
        prune: args.prune,
        pareto: args.pareto,
    };
    let outcome = explore(&workload, &cfg, &opts);

    println!(
        "workload  {} (V={}, F={}, G={}, nnz={}, max deg={}{}), generated in {:.2} s",
        workload.name,
        workload.v,
        workload.f,
        workload.g,
        workload.nnz,
        workload.max_degree,
        workload.post_op.map(|op| format!(", post {op}")).unwrap_or_default(),
        generate_s
    );
    println!("machine   {} PEs, {} elems/cycle NoC", cfg.num_pes, cfg.dist_bandwidth);
    println!(
        "search    {} patterns + {} seeds, {} evaluated, {} skipped, {} threads, {:.2}s{}",
        outcome.space,
        outcome.seeded,
        outcome.evaluated,
        outcome.skipped,
        outcome.threads,
        outcome.elapsed_ms / 1e3,
        if args.refine { format!(" (incl. {} refinement evals)", outcome.refine_evals) } else { String::new() },
    );
    if args.stats {
        // The factored-engine observables (also in the JSON outcome): unique
        // phase sims vs reuse, and how much of the space the admissible
        // lower bound pruned without simulating.
        let lookups = outcome.phase_sims + outcome.phase_cache_hits;
        println!(
            "stats     phase_sims={} phase_cache_hits={} ({:.1}% reuse), pruned={} ({:.1}% of space), class_replays={}",
            outcome.phase_sims,
            outcome.phase_cache_hits,
            100.0 * outcome.phase_cache_hits as f64 / lookups.max(1) as f64,
            outcome.pruned,
            100.0 * outcome.pruned as f64 / outcome.space.max(1) as f64,
            outcome.class_replays,
        );
    }
    println!();
    if args.pareto {
        print_frontier(&outcome);
        if let Some(budget) = args.max_buffer_bytes {
            print_budget_query(&outcome, budget);
        }
    } else {
        print_ranked(&outcome, args.objective);
    }

    // The paper-relevant question: how much do Table V's presets leave on the
    // table versus the true optimum of the space? The sweep scored every
    // preset seed already and kept the best one.
    if let (Some(best), Some(preset)) = (outcome.best(), &outcome.best_seed) {
        println!(
            "\npreset gap: best preset {} scores {:.4e}; exhaustive optimum {:.4e} ({:.2}% on the table)",
            preset.dataflow,
            preset.score,
            best.score,
            100.0 * (preset.score / best.score - 1.0),
        );
    }

    if let Some(path) = &args.json {
        match serde_json::to_string_pretty(&outcome) {
            Ok(json) => {
                if path == "-" {
                    println!("{json}");
                } else if let Err(e) = write_with_dirs(path, &json) {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("could not serialise outcome: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Model mode: joint search over per-layer dataflows × inter-layer links × PE
/// partitions for a whole GNN chain, reported against the best uniform preset.
fn run_model(
    model: &GnnModel,
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    args: &Args,
    generate_s: f64,
) -> ExitCode {
    if args.hidden.is_some() || args.refine {
        eprintln!(
            "error: --hidden and --refine have no effect with --model \
             (layer widths come from the model; tile refinement is layer-level only)"
        );
        return ExitCode::FAILURE;
    }
    let opts = ModelDseOptions {
        objective: args.objective,
        threads: args.threads,
        top_k: args.top,
        per_layer_k: args.per_layer_k,
        // The per-layer searches honour `--no-prune`; the ranked output is
        // identical either way.
        prune: args.prune,
        pareto: args.pareto,
        ..ModelDseOptions::default()
    };
    let outcome = explore_model(model, workload, cfg, &opts, &DseCache::new());

    println!(
        "model     {} ({} layers) on {} (V={}, F={}, nnz={}), generated in {:.2} s",
        outcome.model,
        outcome.layer_candidates.len(),
        workload.name,
        workload.v,
        workload.f,
        workload.nnz,
        generate_s
    );
    println!("machine   {} PEs, {} elems/cycle NoC", cfg.num_pes, cfg.dist_bandwidth);
    println!(
        "search    {} joint mappings ({} layer candidates × {} link options) + {} uniform seeds, \
         {} evaluated, {} infeasible, {} threads, {:.2}s",
        outcome.space,
        outcome
            .layer_candidates
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("·"),
        outcome
            .link_options
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("·"),
        outcome.seeded,
        outcome.evaluated,
        outcome.skipped,
        outcome.threads,
        outcome.elapsed_ms / 1e3,
    );
    if args.stats {
        let lookups = outcome.phase_sims + outcome.phase_cache_hits;
        println!(
            "stats     layer searches: phase_sims={} phase_cache_hits={} ({:.1}% reuse)",
            outcome.phase_sims,
            outcome.phase_cache_hits,
            100.0 * outcome.phase_cache_hits as f64 / lookups.max(1) as f64,
        );
    }
    println!();
    if args.pareto {
        print_model_frontier(&outcome);
        if let Some(budget) = args.max_buffer_bytes {
            print_model_budget_query(&outcome, budget);
        }
    } else {
        print_model_ranked(&outcome, args.objective);
    }

    if let (Some(best), Some(uniform), Some(gap)) =
        (outcome.best(), outcome.uniform.as_ref(), outcome.model_gap())
    {
        // The gap is measured in the chosen objective, not always cycles.
        println!(
            "\nmodel gap: best uniform preset {} scores {:.4e} end-to-end; \
             per-layer-specialised mapping scores {:.4e} ({:.2}% on the table; \
             cycles {} vs {})",
            uniform.preset,
            uniform.score,
            best.score,
            100.0 * (gap - 1.0),
            uniform.total_cycles,
            best.report.total_cycles,
        );
    }

    if let Some(path) = &args.json {
        match serde_json::to_string_pretty(&outcome) {
            Ok(json) => {
                if path == "-" {
                    println!("{json}");
                } else if let Err(e) = write_with_dirs(path, &json) {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("could not serialise outcome: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The model-level frontier: whole-chain mappings trading end-to-end runtime,
/// energy, and peak working set (concurrent stages add, sequential steps max).
fn print_model_frontier(outcome: &ModelExploreOutcome) {
    println!(
        "Pareto frontier: {} non-dominated mappings over (runtime, energy, buffer peak)",
        outcome.frontier.len()
    );
    println!(
        "{:>4}  {:<72} {:>14} {:>14} {:>14}",
        "pt", "per-layer mapping", "cycles", "energy (uJ)", "peak (KiB)"
    );
    for (n, p) in outcome.frontier.iter().enumerate() {
        println!(
            "{:>4}  {:<72} {:>14} {:>14.3} {:>14.1}",
            n + 1,
            format!("{}", p.mapping),
            p.runtime_cycles,
            p.energy_pj / 1e6,
            p.buffer_peak_bytes as f64 / 1024.0,
        );
    }
}

fn print_model_budget_query(outcome: &ModelExploreOutcome, budget: u64) {
    println!();
    let fit = outcome
        .frontier
        .iter()
        .filter(|p| p.buffer_peak_bytes <= budget)
        .min_by_key(|p| p.runtime_cycles);
    match fit {
        Some(p) => println!(
            "budget {budget} B: fastest fitting mapping {} — {} cycles, {:.3} uJ, peak {} B",
            p.mapping,
            p.runtime_cycles,
            p.energy_pj / 1e6,
            p.buffer_peak_bytes,
        ),
        None => println!(
            "budget {budget} B: no mapping fits (frontier minimum peak is {} B)",
            outcome.frontier.iter().map(|p| p.buffer_peak_bytes).min().unwrap_or(0),
        ),
    }
}

fn print_model_ranked(outcome: &ModelExploreOutcome, objective: Objective) {
    let score_head = match objective {
        Objective::Runtime => "cycles",
        Objective::Energy => "energy (uJ)",
        Objective::Edp => "EDP (cyc*pJ)",
    };
    println!(
        "{:>4}  {:<72} {:>14} {:>14} {:>14}",
        "rank", "per-layer mapping (⇒ sequential, ∥pel@p/c⇒ pipelined link)", "cycles",
        "energy (uJ)", score_head
    );
    for (rank, r) in outcome.ranked.iter().enumerate() {
        println!(
            "{:>4}  {:<72} {:>14} {:>14.3} {:>14.4e}",
            rank + 1,
            format!("{}", r.mapping),
            r.report.total_cycles,
            r.report.energy.total_uj(),
            r.score,
        );
    }
}

fn write_with_dirs(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// The layer-level Pareto frontier: every point a best-possible trade between
/// runtime, energy, and peak on-chip working set.
fn print_frontier(outcome: &ExploreOutcome) {
    println!(
        "Pareto frontier: {} non-dominated points over (runtime, energy, buffer peak)",
        outcome.frontier.len()
    );
    println!(
        "{:>4}  {:<28} {:<26} {:>14} {:>14} {:>14}",
        "pt", "dataflow", "tiles", "cycles", "energy (uJ)", "peak (KiB)"
    );
    for (n, p) in outcome.frontier.iter().enumerate() {
        println!(
            "{:>4}  {:<28} {:<26} {:>14} {:>14.3} {:>14.1}",
            n + 1,
            p.dataflow.to_string(),
            format!("{:?}", p.dataflow.tile_tuple()),
            p.runtime_cycles,
            p.energy_pj / 1e6,
            p.buffer_peak_bytes as f64 / 1024.0,
        );
    }
}

/// Answers a `--max-buffer-bytes` budget query from the frontier: the fastest
/// design whose peak working set fits (always the exact optimum among all
/// candidates that fit — the feasible-region optimum lies on the frontier).
fn print_budget_query(outcome: &ExploreOutcome, budget: u64) {
    println!();
    let fit = outcome
        .frontier
        .iter()
        .filter(|p| p.buffer_peak_bytes <= budget)
        .min_by_key(|p| p.runtime_cycles);
    match fit {
        Some(p) => println!(
            "budget {budget} B: fastest fitting design {} {:?} — {} cycles, {:.3} uJ, peak {} B",
            p.dataflow,
            p.dataflow.tile_tuple(),
            p.runtime_cycles,
            p.energy_pj / 1e6,
            p.buffer_peak_bytes,
        ),
        None => println!(
            "budget {budget} B: no design fits (frontier minimum peak is {} B)",
            outcome.frontier.iter().map(|p| p.buffer_peak_bytes).min().unwrap_or(0),
        ),
    }
}

fn print_ranked(outcome: &ExploreOutcome, objective: Objective) {
    let score_head = match objective {
        Objective::Runtime => "cycles",
        Objective::Energy => "energy (uJ)",
        Objective::Edp => "EDP (cyc*pJ)",
    };
    println!(
        "{:>4}  {:<28} {:<26} {:>14} {:>14} {:>14}",
        "rank", "dataflow", "tiles", "cycles", "energy (uJ)", score_head
    );
    for (rank, r) in outcome.ranked.iter().enumerate() {
        println!(
            "{:>4}  {:<28} {:<26} {:>14} {:>14.3} {:>14.4e}",
            rank + 1,
            r.dataflow.to_string(),
            format!("{:?}", r.dataflow.tile_tuple()),
            r.report.total_cycles,
            r.report.energy.total_uj(),
            r.score,
        );
    }
}
