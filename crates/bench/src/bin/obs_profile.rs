//! Per-layer profile report over the sparse executors.
//!
//! Traces repeated forward passes of the pruned (2EP / 3EP) and dense
//! scaled YOLOv5s and RetinaNet twins, attributes self-time to each
//! `layer:*` span with [`rtoss_obs::Profile`], and renders the top-N
//! layers per configuration — the "where does the millisecond go"
//! table that tells you which layers the pruning actually sped up.
//!
//! ```text
//! obs_profile [--image N] [--threads N] [--repeats N] [--top N] [--out PATH]
//! ```
//!
//! The per-layer table carries two columns joined from the compiled
//! execution plan: the epilogue fusion applied to each step
//! (`affine+act` marks a conv that absorbed its BN and activation) and
//! the arena slot holding its output. Writes the combined report to
//! `results/obs/profile.txt` by default.

use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_obs as obs;
use rtoss_sparse::SparseModel;
use rtoss_tensor::{init, ExecConfig};
use std::collections::HashMap;
use std::fmt::Write as _;

struct Args {
    image: usize,
    threads: usize,
    repeats: usize,
    top: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        image: 32,
        threads: rtoss_tensor::exec::default_threads(),
        repeats: 5,
        top: 12,
        out: "results/obs/profile.txt".to_string(),
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("obs_profile: {msg}");
        eprintln!(
            "usage: obs_profile [--image N] [--threads N] [--repeats N] [--top N] [--out PATH]"
        );
        std::process::exit(2);
    }
    fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, got {raw:?}")))
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--image" => args.image = number(&flag, &value()),
            "--threads" => args.threads = number(&flag, &value()),
            "--repeats" => args.repeats = number(&flag, &value()),
            "--top" => args.top = number(&flag, &value()),
            "--out" => args.out = value(),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Compiles one (model, pruning) configuration into a sparse engine.
fn build(model: &str, entry: Option<EntryPattern>, seed: u64) -> SparseModel {
    let mut m = match model {
        "yolov5s" => rtoss_models::yolov5s_twin(8, 2, seed),
        "retinanet" => rtoss_models::retinanet_twin(8, 2, seed),
        _ => unreachable!("model names are fixed below"),
    }
    .expect("twin builds");
    if let Some(e) = entry {
        RTossPruner::new(e)
            .prune_graph(&mut m.graph)
            .expect("prunes");
    }
    SparseModel::compile(&m.graph).expect("compiles")
}

/// Per-step facts joined from the compiled plan into the layer table.
struct PlanCols {
    fused: &'static str,
    slot: usize,
}

/// Per-layer table with the plan join: fusion kind and arena slot per
/// step, looked up by graph node name (absorbed BN/activation nodes
/// execute inside their conv's epilogue and so have no row of their
/// own).
fn render_layers(
    layers: &[&obs::SpanStat],
    top: usize,
    repeats: usize,
    plan: &HashMap<String, PlanCols>,
) -> String {
    let shown = if top == 0 {
        layers.len()
    } else {
        top.min(layers.len())
    };
    let total_self: u64 = layers.iter().map(|s| s.self_ns).sum();
    let name_w = layers[..shown]
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>7}  {:>12}  {:>6}  {:>10}  {:>5}",
        "name", "count", "self(ms/it)", "self%", "fused", "slot"
    );
    for s in &layers[..shown] {
        let pct = if total_self == 0 {
            0.0
        } else {
            100.0 * s.self_ns as f64 / total_self as f64
        };
        let (fused, slot) = match plan.get(s.name.trim_start_matches("layer:")) {
            Some(c) => (c.fused, c.slot.to_string()),
            None => ("-", "-".to_string()),
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7}  {:>12.3}  {:>5.1}%  {:>10}  {:>5}",
            s.name,
            s.count,
            s.self_ns as f64 / 1e6 / repeats as f64,
            pct,
            fused,
            slot
        );
    }
    if layers.len() > shown {
        let _ = writeln!(out, "... {} more", layers.len() - shown);
    }
    out
}

/// Traces `repeats` forward passes and returns the per-span profile.
fn profile_engine(engine: &SparseModel, args: &Args, seed: u64) -> obs::Profile {
    let exec = ExecConfig::with_threads(args.threads);
    let input = init::uniform(
        &mut init::rng(seed),
        &[1, 3, args.image, args.image],
        0.0,
        1.0,
    );
    // One untraced warmup so allocator effects land outside the trace.
    engine.forward_with(&input, &exec).expect("forward");
    obs::reset();
    for _ in 0..args.repeats {
        engine.forward_with(&input, &exec).expect("forward");
    }
    obs::Profile::from_trace(&obs::drain())
}

fn main() {
    let args = parse_args();
    obs::set_enabled(true);
    obs::set_sample_every(1);

    let configs: [(&str, &str, Option<EntryPattern>); 6] = [
        ("yolov5s", "dense", None),
        ("yolov5s", "2EP", Some(EntryPattern::Two)),
        ("yolov5s", "3EP", Some(EntryPattern::Three)),
        ("retinanet", "dense", None),
        ("retinanet", "2EP", Some(EntryPattern::Two)),
        ("retinanet", "3EP", Some(EntryPattern::Three)),
    ];

    let mut report = format!(
        "obs_profile: per-layer self time, {} repeats, {}x{} input, {} threads\n\
         (layer spans only; self time excludes nested child spans)\n",
        args.repeats, args.image, args.image, args.threads
    );
    for (model, mode, entry) in configs {
        let engine = build(model, entry, 0x5EED);
        let summary = engine
            .plan_summary(&[1, 3, args.image, args.image])
            .expect("plans");
        report.push_str(&format!(
            "\n== {model} {mode}: arena {} KiB (peak live {} KiB, all outputs retained {} KiB) ==\n",
            summary.arena_bytes / 1024,
            summary.peak_live_bytes / 1024,
            summary.retained_bytes / 1024
        ));
        let plan_map: HashMap<String, PlanCols> = summary
            .steps
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    PlanCols {
                        fused: s.fused,
                        slot: s.out_slot,
                    },
                )
            })
            .collect();
        let profile = profile_engine(&engine, &args, 0x5EED);
        let layers = profile.with_prefix("layer:");
        assert!(
            !layers.is_empty(),
            "{model}/{mode}: traced run produced no layer spans"
        );
        let total_ms: f64 = layers.iter().map(|s| s.self_ns as f64 / 1e6).sum();
        report.push_str(&format!(
            "{} layer spans, {:.3} ms total layer self time per iteration\n",
            layers.len(),
            total_ms / args.repeats as f64
        ));
        report.push_str(&render_layers(&layers, args.top, args.repeats, &plan_map));
    }

    print!("{report}");
    let out = std::path::Path::new(&args.out);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("output dir");
    }
    std::fs::write(out, &report).expect("write report");
    println!("\nreport: {}", args.out);
}
