//! Serving benchmark: open-loop Poisson load against the dense engine
//! and the R-TOSS 2EP/3EP/4EP pruned engines.
//!
//! Replays the *same* seeded arrival schedule against each variant of a
//! scaled YOLOv5s twin and reports throughput, tail latency, shed rate,
//! and modelled per-request energy — the end-to-end systems view of the
//! paper's claim that semi-structured pruning buys real-time headroom.
//! The schedule is deterministic (seeded ChaCha8); reruns with the same
//! flags reproduce the same arrivals.
//!
//! ```text
//! serve_bench [--qps N] [--requests N] [--seed N] [--workers N]
//!             [--max-batch N] [--deadline-ms N] [--image N]
//!             [--threads N] [--out PATH] [--verify]
//!             [--burst F] [--trace-out PATH] [--events-out PATH]
//!             [--prom-out PATH]
//! ```
//!
//! `--burst F` (F >= 1) replaces the Poisson arrivals with the seeded
//! on/off Markov-modulated bursty schedule at the same mean rate —
//! `--burst 1` (the default) is plain Poisson.
//!
//! `--threads` sets the intra-op tile-parallelism of every forward pass
//! (defaults to `RTOSS_THREADS` or the machine's core count).
//! `--verify` statically checks each pruned graph and compiled engine
//! with rtoss-verify before serving it, and exits non-zero instead of
//! reporting numbers from an ill-formed model. Every engine serves
//! through compiled execution plans prewarmed for each micro-batch
//! size.
//!
//! The observability flags turn tracing on programmatically (no
//! `RTOSS_TRACE=1` needed) and export the run: `--trace-out` writes a
//! Chrome/Perfetto `trace.json` covering every served variant,
//! `--events-out` writes the same events as JSONL, and `--prom-out`
//! writes one Prometheus text exposition per variant (the mode name is
//! inserted before the extension, e.g. `serve.prom` → `serve.2EP.prom`).
//! Every export is validated with the rtoss-verify RV04x passes before
//! it is written; an invalid trace or exposition aborts with exit 1.
//!
//! Writes a JSON report (and verifies it round-trips through serde,
//! including the full per-phase latency bucket counts) to
//! `results/serve/serve_bench.json` by default.

use rtoss_bench::{print_table, workload_for};
use rtoss_core::{snapshot_report, EntryPattern, Pruner, RTossPruner};
use rtoss_hw::{DeviceModel, SparsityStructure};
use rtoss_models::yolov5s_twin;
use rtoss_serve::loadgen::{bursty_schedule, poisson_schedule, run_open_loop, LoadSummary};
use rtoss_serve::{BackpressurePolicy, EnergyModelHook, MetricsSnapshot, ServeConfig, Server};
use rtoss_sparse::SparseModel;
use rtoss_tensor::{init, ExecConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// One served variant's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModeRow {
    /// Variant name: "dense", "2EP", "3EP", "4EP".
    mode: String,
    /// Conv-weight compression of the compiled engine.
    compression: f64,
    /// Client-side load-generator summary.
    summary: LoadSummary,
    /// Server-side metrics snapshot.
    metrics: MetricsSnapshot,
}

/// The full benchmark report written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeBenchReport {
    /// Mean offered load, requests/second.
    qps: f64,
    /// Requests per variant.
    requests: u64,
    /// Schedule / weight seed.
    seed: u64,
    /// Per-request deadline, milliseconds.
    deadline_ms: u64,
    /// Worker threads.
    workers: u64,
    /// Micro-batch cap.
    max_batch: u64,
    /// Input image side, pixels.
    image: u64,
    /// Intra-op threads per forward pass.
    threads: u64,
    /// Arrival burstiness factor (1 = plain Poisson; >1 = on/off
    /// Markov-modulated arrivals at the same mean rate).
    burst: f64,
    /// One row per served variant.
    rows: Vec<ModeRow>,
}

struct Args {
    qps: f64,
    requests: usize,
    seed: u64,
    workers: usize,
    max_batch: usize,
    deadline_ms: u64,
    image: usize,
    threads: usize,
    out: String,
    verify: bool,
    burst: f64,
    trace_out: Option<String>,
    events_out: Option<String>,
    prom_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        qps: 200.0,
        requests: 120,
        seed: 42,
        workers: 2,
        max_batch: 4,
        deadline_ms: 250,
        image: 32,
        threads: rtoss_tensor::exec::default_threads(),
        out: "results/serve/serve_bench.json".to_string(),
        verify: false,
        burst: 1.0,
        trace_out: None,
        events_out: None,
        prom_out: None,
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("serve_bench: {msg}");
        eprintln!(
            "usage: serve_bench [--qps N] [--requests N] [--seed N] [--workers N] \
             [--max-batch N] [--deadline-ms N] [--image N] [--threads N] [--out PATH] \
             [--verify] [--burst F] [--trace-out PATH] [--events-out PATH] \
             [--prom-out PATH]"
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
            "--qps" => args.qps = number(&flag, &value()),
            "--requests" => args.requests = number(&flag, &value()),
            "--seed" => args.seed = number(&flag, &value()),
            "--workers" => args.workers = number(&flag, &value()),
            "--max-batch" => args.max_batch = number(&flag, &value()),
            "--deadline-ms" => args.deadline_ms = number(&flag, &value()),
            "--image" => args.image = number(&flag, &value()),
            "--threads" => args.threads = number(&flag, &value()),
            "--out" => args.out = value(),
            "--verify" => args.verify = true,
            "--burst" => args.burst = number(&flag, &value()),
            "--trace-out" => args.trace_out = Some(value()),
            "--events-out" => args.events_out = Some(value()),
            "--prom-out" => args.prom_out = Some(value()),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

fn serve_variant(mode: &str, entry: Option<EntryPattern>, args: &Args) -> ModeRow {
    // Same seed for every variant: identical weights before pruning.
    let mut model = yolov5s_twin(8, 2, args.seed).expect("model builds");
    let (report, structure) = match entry {
        Some(e) => (
            RTossPruner::new(e)
                .prune_graph(&mut model.graph)
                .expect("prunes"),
            SparsityStructure::SemiStructured,
        ),
        None => (
            snapshot_report(&model.graph, "BM"),
            SparsityStructure::Dense,
        ),
    };
    let workload = workload_for(&model, &report, structure);
    let engine = Arc::new(SparseModel::compile(&model.graph).expect("compiles"));
    if args.verify {
        // Refuse to serve (and time) an ill-formed artifact: a broken
        // mask or sparse layer would report meaningless latencies.
        let mut pre = rtoss_verify::check_model(&model.graph, &[1, 3, args.image, args.image]);
        pre.extend(rtoss_verify::check_sparse_model(&engine).diagnostics);
        if pre.has_errors() {
            eprint!("{}", pre.render());
            eprintln!("serve_bench: {mode}: refusing to serve an ill-formed model");
            std::process::exit(1);
        }
        eprintln!("serve_bench: {mode}: pre-flight verify clean");
    }
    let compression = engine.compression_ratio();

    let server = Server::start(
        engine,
        ServeConfig {
            workers: args.workers,
            queue_capacity: 64,
            policy: BackpressurePolicy::ShedExpired,
            max_batch: args.max_batch,
            batch_timeout: Duration::from_millis(2),
            energy: Some(EnergyModelHook {
                device: DeviceModel::rtx_2080ti(),
                workload,
            }),
            exec: ExecConfig::with_threads(args.threads),
            // Compile plans for every micro-batch size up front so the
            // workers never plan on the request path.
            prewarm: Some(vec![1, 3, args.image, args.image]),
        },
    );

    let schedule = if args.burst > 1.0 {
        bursty_schedule(args.seed, args.qps, args.requests, args.burst)
    } else {
        poisson_schedule(args.seed, args.qps, args.requests)
    };
    let side = args.image;
    let seed = args.seed;
    let summary = run_open_loop(
        &server,
        &schedule,
        Some(Duration::from_millis(args.deadline_ms)),
        |i| {
            init::uniform(
                &mut init::rng(seed ^ i as u64),
                &[1, 3, side, side],
                0.0,
                1.0,
            )
        },
    );
    let metrics = server.metrics().snapshot();
    server.shutdown();
    ModeRow {
        mode: mode.to_string(),
        compression,
        summary,
        metrics,
    }
}

/// Writes `text` to `path`, creating parent directories.
fn write_output(path: &str, text: &str) {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).expect("output dir");
    }
    std::fs::write(p, text).expect("write output");
}

/// Inserts `mode` before the extension: `serve.prom` → `serve.2EP.prom`.
fn mode_path(path: &str, mode: &str) -> String {
    let p = std::path::Path::new(path);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!(
                "{}.{mode}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}.{mode}"),
    }
}

fn main() {
    let args = parse_args();
    let tracing = args.trace_out.is_some() || args.events_out.is_some();
    if tracing {
        rtoss_obs::set_enabled(true);
        rtoss_obs::reset();
    }
    println!(
        "serve_bench: YOLOv5s twin, {} req @ {} qps, seed {}, {} workers, max batch {}, \
         deadline {} ms, {} intra-op threads\n",
        args.requests,
        args.qps,
        args.seed,
        args.workers,
        args.max_batch,
        args.deadline_ms,
        args.threads
    );

    let variants: [(&str, Option<EntryPattern>); 4] = [
        ("dense", None),
        ("2EP", Some(EntryPattern::Two)),
        ("3EP", Some(EntryPattern::Three)),
        ("4EP", Some(EntryPattern::Four)),
    ];
    let rows: Vec<ModeRow> = variants
        .iter()
        .map(|&(mode, entry)| serve_variant(mode, entry, &args))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.2}x", r.compression),
                format!("{:.1}", r.summary.throughput_rps),
                format!("{:.2}", r.summary.p50_ms),
                format!("{:.2}", r.summary.p99_ms),
                format!("{:.1}%", 100.0 * r.summary.shed_rate()),
                format!("{:.2}", r.metrics.mean_batch_size),
                format!(
                    "{:.1}",
                    1e3 * r.metrics.energy_j / r.metrics.completed.max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        "Serving under open-loop Poisson load (dense vs R-TOSS pruned)",
        &[
            "mode", "compress", "rps", "p50 ms", "p99 ms", "shed", "batch", "mJ/req",
        ],
        &table,
    );

    let report = ServeBenchReport {
        qps: args.qps,
        requests: args.requests as u64,
        seed: args.seed,
        deadline_ms: args.deadline_ms,
        workers: args.workers as u64,
        max_batch: args.max_batch as u64,
        image: args.image as u64,
        threads: args.threads as u64,
        burst: args.burst,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: ServeBenchReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back, report, "serde round-trip must be lossless");
    write_output(&args.out, &json);
    println!(
        "\nreport: {} ({} bytes, serde round-trip verified)",
        args.out,
        json.len()
    );

    // Observability exports: validate with the rtoss-verify RV04x
    // passes first, refuse to write anything ill-formed.
    let mut bad = false;
    if let Some(prom_out) = &args.prom_out {
        for row in &report.rows {
            let text = row.metrics.to_prometheus();
            let check = rtoss_verify::check_prometheus_snapshot(&row.mode, &text, &row.metrics);
            if check.has_errors() {
                eprint!("{}", check.render());
                bad = true;
                continue;
            }
            let path = mode_path(prom_out, &row.mode);
            write_output(&path, &text);
            println!("prometheus: {path} (RV043/RV044 clean)");
        }
    }
    if tracing {
        rtoss_obs::set_enabled(false);
        let trace = rtoss_obs::drain();
        if trace.dropped > 0 {
            eprintln!(
                "serve_bench: warning: {} events dropped (per-thread buffer cap)",
                trace.dropped
            );
        }
        let chrome = trace.to_chrome_json();
        // check_trace_json re-parses the export, so this validates both
        // the recorded trace and the serialization of it.
        let check = rtoss_verify::check_trace_json("serve_bench trace", &chrome);
        if check.has_errors() {
            eprint!("{}", check.render());
            bad = true;
        } else {
            if let Some(path) = &args.trace_out {
                write_output(path, &chrome);
                println!(
                    "trace: {path} ({} events, RV040-RV042 clean)",
                    trace.events.len()
                );
            }
            if let Some(path) = &args.events_out {
                write_output(path, &trace.to_jsonl());
                println!("events: {path}");
            }
        }
    }
    if bad {
        eprintln!("serve_bench: observability exports failed verification");
        std::process::exit(1);
    }
}
