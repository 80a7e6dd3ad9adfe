//! Regenerates **Fig. 6**: inference speedups of every framework over
//! the Base Model, on the RTX 2080 Ti and the Jetson TX2 — plus a
//! fully *measured* CPU series from this machine's sparse executors.
//!
//! The device-model series runs each method's measured sparsity through
//! the calibrated latency models. The CPU series times real dense /
//! pattern-grouped / unstructured convolutions (`rtoss-sparse`) on a
//! representative 3×3 layer: pruned weights convert into wall-clock
//! speedup, but on this CPU the per-weight COO path converts them just
//! as well as pattern grouping — the paper's §II.B penalty for
//! unstructured sparsity appears only in the device-model series.
//!
//! ```text
//! fig6 [--threads N] [--verify]
//! ```
//!
//! `--threads` sets the intra-op tile-parallelism of the measured CPU
//! and model series (defaults to `RTOSS_THREADS` or the core count).
//! `--verify` runs the rtoss-verify static checks over every pruned
//! artifact about to be timed and refuses to benchmark (exit 1) if any
//! invariant is violated — a broken model would produce a fast but
//! meaningless number.

use rtoss_bench::{print_table, run_roster};
use rtoss_core::baselines::MagnitudePruner;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_hw::DeviceModel;
use rtoss_models::{retinanet, yolov5s, DetectorModel};
use rtoss_sparse::runtime::measure_layer_with;
use rtoss_tensor::{init, ExecConfig};

/// Paper Fig. 6 approximate speedups vs BM: (method, 2080 Ti, TX2).
const PAPER_YOLO: &[(&str, f64, f64)] = &[
    ("PD", 1.74, 2.06),
    ("NMS", 1.2, 1.3),
    ("NS", 1.4, 1.5),
    ("PF", 1.4, 1.5),
    ("NP", 1.3, 1.4),
    ("R-TOSS (3EP)", 1.86, 2.12),
    ("R-TOSS (2EP)", 1.97, 2.15),
];
const PAPER_RETINA: &[(&str, f64, f64)] = &[
    ("PD", 1.4, 1.5),
    ("NMS", 1.2, 1.2),
    ("NS", 1.3, 1.3),
    ("PF", 1.3, 1.3),
    ("NP", 1.25, 1.3),
    ("R-TOSS (3EP)", 1.87, 1.56),
    ("R-TOSS (2EP)", 2.1, 1.87),
];

fn sweep(name: &str, build: impl Fn() -> DetectorModel, paper: &[(&str, f64, f64)]) {
    let rtx = DeviceModel::rtx_2080ti();
    let tx2 = DeviceModel::jetson_tx2();
    let runs = run_roster(build);
    let bm_rtx = rtx.latency_ms(&runs[0].workload);
    let bm_tx2 = tx2.latency_ms(&runs[0].workload);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let s_rtx = bm_rtx / rtx.latency_ms(&r.workload);
            let s_tx2 = bm_tx2 / tx2.latency_ms(&r.workload);
            let (p_rtx, p_tx2) = paper
                .iter()
                .find(|(n, _, _)| *n == r.name)
                .map(|&(_, a, b)| (format!("{a}"), format!("{b}")))
                .unwrap_or(("1.0".into(), "1.0".into()));
            vec![
                r.name.clone(),
                format!("{s_rtx:.2}x"),
                p_rtx,
                format!("{s_tx2:.2}x"),
                p_tx2,
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 6 ({name}): speedup vs BM"),
        &[
            "Method",
            "2080 Ti (sim)",
            "2080 Ti (paper)",
            "TX2 (sim)",
            "TX2 (paper)",
        ],
        &rows,
    );
}

/// Measured CPU series: one representative 3×3 layer, three executors.
fn measured_cpu_series(exec: &ExecConfig) {
    let x = init::uniform(&mut init::rng(7), &[1, 64, 40, 40], -1.0, 1.0);
    let mut rows = Vec::new();
    for (label, k) in [("R-TOSS (2EP)", 2usize), ("R-TOSS (3EP)", 3), ("PD/4EP", 4)] {
        let mut w = init::uniform(&mut init::rng(8), &[64, 64, 3, 3], -1.0, 1.0);
        prune_3x3_weights(&mut w, &canonical_set(k).expect("pattern set")).expect("prune succeeds");
        let t = measure_layer_with(&x, &w, 1, 1, 3, exec).expect("measurement succeeds");
        rows.push(vec![
            label.to_string(),
            format!("{:.2}x", t.pattern_speedup()),
            format!("{:.2}x", t.unstructured_speedup()),
        ]);
    }
    // NMS-style unstructured mask at 2EP-equivalent sparsity.
    {
        let w = init::uniform(&mut init::rng(9), &[64, 64, 3, 3], -1.0, 1.0);
        let p = MagnitudePruner::new(7.0 / 9.0).expect("valid sparsity");
        let mask = {
            // Reuse the pruner's criterion through a throwaway graph.
            let mut g = rtoss_nn::Graph::new();
            let xin = g.add_input("x");
            let conv = rtoss_nn::layers::Conv2d::from_weight(w.clone(), 1, 1);
            let id = g.add_layer("c", Box::new(conv), xin).expect("graph builds");
            g.set_outputs(vec![id]).expect("outputs set");
            use rtoss_core::Pruner;
            p.prune_graph(&mut g).expect("prune succeeds");
            g.conv(id).expect("conv").weight().value.clone()
        };
        let t = measure_layer_with(&x, &mask, 1, 1, 3, exec).expect("measurement succeeds");
        rows.push(vec![
            "NMS (unstructured, same sparsity as 2EP)".to_string(),
            format!("{:.2}x", t.pattern_speedup()),
            format!("{:.2}x", t.unstructured_speedup()),
        ]);
    }
    print_table(
        "Fig. 6 (measured on this CPU): 64x64x3x3 layer, 40x40 input",
        &[
            "Pruning",
            "pattern-grouped executor",
            "per-weight COO executor",
        ],
        &rows,
    );
}

/// End-to-end measured series: the compiled sparse engine on the
/// unpruned vs pruned twin (same executor, so the speedup isolates the
/// work the pruning actually removes — the paper's BM-relative framing).
fn measured_model_series(exec: &ExecConfig) {
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};
    use rtoss_sparse::runtime::measure_model_with;
    let x = init::uniform(&mut init::rng(10), &[1, 3, 64, 64], 0.0, 1.0);
    let time_engine = |entry: Option<EntryPattern>| -> (f64, f64) {
        let mut m = rtoss_models::yolov5s_twin(16, 3, 42).expect("twin builds");
        if let Some(e) = entry {
            RTossPruner::new(e)
                .prune_graph(&mut m.graph)
                .expect("pruning succeeds");
        }
        let t = measure_model_with(&mut m.graph, &x, 5, exec).expect("timing succeeds");
        (t.dense_s, t.sparse_s)
    };
    let (_, bm_engine) = time_engine(None);
    let mut rows = vec![vec![
        "BM".to_string(),
        format!("{:.2} ms", bm_engine * 1e3),
        "1.00x".to_string(),
    ]];
    for entry in [EntryPattern::Three, EntryPattern::Two] {
        let (_, t) = time_engine(Some(entry));
        rows.push(vec![
            format!("R-TOSS ({})", entry.label()),
            format!("{:.2} ms", t * 1e3),
            format!("{:.2}x", bm_engine / t),
        ]);
    }
    print_table(
        "Fig. 6 (measured end-to-end): YOLOv5s twin through the sparse engine",
        &["Pruning", "engine latency", "speedup vs BM"],
        &rows,
    );
}

fn parse_args() -> (ExecConfig, bool) {
    let mut exec = ExecConfig::default();
    let mut verify = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("fig6: missing value for --threads");
                    std::process::exit(2);
                });
                let n: usize = raw.parse().unwrap_or_else(|_| {
                    eprintln!("fig6: --threads takes a number, got {raw:?}");
                    std::process::exit(2);
                });
                exec = ExecConfig::with_threads(n);
            }
            "--verify" => verify = true,
            other => {
                eprintln!("fig6: unknown flag {other}\nusage: fig6 [--threads N] [--verify]");
                std::process::exit(2);
            }
        }
    }
    (exec, verify)
}

/// Pre-flight: statically verify every artifact this harness is about
/// to time. Refuses to benchmark ill-formed models (exit 1).
fn preflight(exec: &ExecConfig) {
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};
    let mut report = rtoss_verify::Report::new();
    // The end-to-end model series: pruned twins through the sparse engine.
    for entry in [EntryPattern::Three, EntryPattern::Two] {
        let mut m = rtoss_models::yolov5s_twin(16, 3, 42).expect("twin builds");
        RTossPruner::new(entry)
            .prune_graph(&mut m.graph)
            .expect("pruning succeeds");
        report.extend(rtoss_verify::check_model(&m.graph, &[1, 3, 64, 64]).diagnostics);
        let engine = rtoss_sparse::SparseModel::compile(&m.graph).expect("compiles");
        report.extend(rtoss_verify::check_sparse_model(&engine).diagnostics);
    }
    // The CPU layer series: pruned 64x64x3x3 weights in compressed form.
    for k in [2usize, 3, 4] {
        let mut w = init::uniform(&mut init::rng(8), &[64, 64, 3, 3], -1.0, 1.0);
        prune_3x3_weights(&mut w, &canonical_set(k).expect("pattern set")).expect("prune succeeds");
        let pc = rtoss_sparse::PatternCompressedConv::from_dense(&w, 1, 1).expect("compresses");
        report.extend(rtoss_verify::check_pattern_layer(
            &format!("{k}EP layer"),
            &pc,
        ));
    }
    // The executor the timed runs will deal tiles through.
    report.extend(rtoss_verify::check_tile_partition(64, exec.threads.max(1)).diagnostics);
    if report.has_errors() {
        eprint!("{}", report.render());
        eprintln!("fig6: refusing to benchmark ill-formed artifacts");
        std::process::exit(1);
    }
    eprintln!(
        "pre-flight verify: clean ({} findings)",
        report.diagnostics.len()
    );
}

fn main() {
    let (exec, verify) = parse_args();
    if verify {
        preflight(&exec);
    }
    eprintln!("device-model series: YOLOv5s...");
    sweep(
        "YOLOv5s",
        || yolov5s(80, 42).expect("yolov5s builds"),
        PAPER_YOLO,
    );
    eprintln!("device-model series: RetinaNet...");
    sweep(
        "RetinaNet",
        || retinanet(80, 42).expect("retinanet builds"),
        PAPER_RETINA,
    );
    eprintln!("measured CPU series ({} threads)...", exec.threads);
    measured_cpu_series(&exec);
    eprintln!("measured end-to-end model series...");
    measured_model_series(&exec);
    println!(
        "\nShape check: R-TOSS (2EP) is the fastest on both platforms, as in\n\
         the paper. The measured CPU series confirms that pattern pruning's\n\
         skipped weights convert into real wall-clock speedup (approaching\n\
         the k/9 bound at 2EP). It does not show pattern grouping ahead of\n\
         the per-weight COO path: both walk the same register-tiled tap\n\
         loop, so at equal non-zeros they tie within run-to-run noise, and\n\
         either may lead a row. The locality penalty of unstructured\n\
         sparsity the paper reports is a GPU/edge-device effect, present\n\
         here only in the device models' realization factors (rtoss-hw)."
    );
}
