//! Pre-flight static analysis over the seed pruned models.
//!
//! Default mode prunes the scaled YOLOv5s / RetinaNet twins with the
//! 2- and 3-entry-pattern configurations, compiles each to the sparse
//! engine, and runs every artifact check; the exit code is non-zero if
//! any invariant is violated. `--fixture NAME` instead runs one
//! seeded-corruption fixture — there the checks are *supposed* to
//! fire, so a non-zero exit proves the verifier can fail. `--json`
//! (combinable with any mode) switches the output to the stable
//! machine-readable schema of [`Report::to_json`] for CI artifacts.

use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_sparse::SparseModel;
use rtoss_verify::{fixtures, Report};
use std::process::ExitCode;

/// NCHW input shape both scaled twins serve.
const INPUT: [usize; 4] = [1, 3, 64, 64];

fn check_one(label: &str, entry: EntryPattern, report: &mut Report) -> Result<(), String> {
    let mut model = match label {
        "yolov5s_twin" => rtoss_models::yolov5s_twin(8, 2, 0x5EED),
        "retinanet_twin" => rtoss_models::retinanet_twin(8, 2, 0x5EED),
        _ => unreachable!("labels are fixed above"),
    }
    .map_err(|e| format!("{label}: model construction failed: {e}"))?;
    RTossPruner::new(entry)
        .prune_graph(&mut model.graph)
        .map_err(|e| format!("{label}/{}: pruning failed: {e}", entry.label()))?;
    report.extend(
        rtoss_verify::check_model(&model.graph, &INPUT)
            .diagnostics
            .into_iter()
            .map(|mut d| {
                d.location = format!("{label}/{}: {}", entry.label(), d.location);
                d
            }),
    );
    let engine = SparseModel::compile(&model.graph)
        .map_err(|e| format!("{label}/{}: sparse compile failed: {e}", entry.label()))?;
    report.extend(
        rtoss_verify::check_sparse_model(&engine)
            .diagnostics
            .into_iter()
            .map(|mut d| {
                d.location = format!("{label}/{}: {}", entry.label(), d.location);
                d
            }),
    );
    // Plan checks (RV050/RV051/RV052): schedule, arena, and planned ≡
    // interpreted bit-identity on a seeded probe, serial and tiled.
    let probe = rtoss_tensor::init::uniform(&mut rtoss_tensor::init::rng(0x5EED), &INPUT, 0.0, 1.0);
    report.extend(
        rtoss_verify::check_execution_plan(&engine, &probe, &[1, 4])
            .diagnostics
            .into_iter()
            .map(|mut d| {
                d.location = format!("{label}/{}: {}", entry.label(), d.location);
                d
            }),
    );
    // Kernel checks (RV090/RV092): pack reconstruction per conv layer,
    // and every tiled executor bit-identical to the scalar reference on
    // every conv layer at the input shape it serves.
    for kernel_report in [
        rtoss_verify::check_model_packs(&engine),
        rtoss_verify::check_model_kernels(&model.graph, &engine, &INPUT),
    ] {
        report.extend(kernel_report.diagnostics.into_iter().map(|mut d| {
            d.location = format!("{label}/{}: {}", entry.label(), d.location);
            d
        }));
    }
    Ok(())
}

/// Runs a small two-replica, two-tier fleet against a handful of
/// requests and returns its terminal snapshot for the RV062/RV063
/// conservation checks.
fn fleet_exercise() -> Result<rtoss_fleet::FleetSnapshot, String> {
    use rtoss_fleet::{Fleet, FleetConfig, SloClass, TenantSpec, TierSpec};
    use std::sync::Arc;

    struct Identity;
    impl rtoss_serve::ServeModel for Identity {
        fn run_batch(
            &self,
            batch: &rtoss_tensor::Tensor,
            _exec: &rtoss_tensor::ExecConfig,
        ) -> Result<Vec<rtoss_tensor::Tensor>, String> {
            Ok(vec![batch.clone()])
        }
    }

    let fleet = Fleet::start(
        vec![
            (TierSpec::new("dense", 75.0), Arc::new(Identity) as _),
            (TierSpec::new("3EP", 73.5), Arc::new(Identity) as _),
        ],
        FleetConfig {
            replicas: 2,
            tenants: vec![
                TenantSpec::new("gold", SloClass::Gold, 1e6, 1e6),
                TenantSpec::new("bulk", SloClass::Bulk, 1e6, 1e6),
            ],
            ..FleetConfig::default()
        },
    )
    .map_err(|e| format!("fleet start: {e}"))?;
    let mut tickets = Vec::new();
    for i in 0..24 {
        let tenant = if i % 2 == 0 { "gold" } else { "bulk" };
        let key = format!("{tenant}/stream-{}", i % 4);
        match fleet.submit(
            tenant,
            &key,
            rtoss_tensor::Tensor::zeros(&[1, 1, 4, 4]),
            None,
        ) {
            Ok(t) => tickets.push(t),
            Err(e) => return Err(format!("submit {i}: {e}")),
        }
    }
    for t in tickets {
        t.wait().map_err(|e| format!("wait: {e}"))?;
    }
    Ok(fleet.shutdown())
}

/// Prints the report in the selected format and maps it to an exit
/// code: failure iff any error-severity finding is present.
fn emit(report: &Report, json: bool) -> ExitCode {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn full_run(json: bool) -> ExitCode {
    let mut report = Report::new();
    for label in ["yolov5s_twin", "retinanet_twin"] {
        for entry in [EntryPattern::Two, EntryPattern::Three] {
            if let Err(e) = check_one(label, entry, &mut report) {
                eprintln!("verify: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Executor invariants are model-independent: prove the tile dealing
    // for a spread of tile counts and the serving histogram geometry.
    for n_tiles in [0, 1, 3, 8, 33, 128] {
        report.extend(rtoss_verify::check_tile_partition(n_tiles, 8).diagnostics);
    }
    report.extend(rtoss_verify::check_histogram_buckets().diagnostics);
    // Fleet invariants: ring coverage for a spread of fleet sizes, the
    // default degradation controller over the seed tier stack, and
    // ledger/replica conservation on a live micro-fleet exercise.
    for replicas in [1, 2, 4, 8] {
        report.extend(
            rtoss_verify::check_hash_ring(&rtoss_fleet::HashRing::new(replicas, 32), 2000)
                .diagnostics
                .into_iter()
                .map(|mut d| {
                    d.location = format!("ring({replicas}x32): {}", d.location);
                    d
                }),
        );
    }
    for num_tiers in [2, 3] {
        report.extend(
            rtoss_verify::check_tier_controller(
                rtoss_fleet::TierControllerConfig::default(),
                num_tiers,
            )
            .diagnostics
            .into_iter()
            .map(|mut d| {
                d.location = format!("controller({num_tiers} tiers): {}", d.location);
                d
            }),
        );
    }
    match fleet_exercise() {
        Ok(snapshot) => {
            report.extend(rtoss_verify::check_fleet_ledger(&snapshot).diagnostics);
            report.extend(rtoss_verify::check_fleet_replicas(&snapshot).diagnostics);
        }
        Err(e) => {
            eprintln!("verify: fleet exercise failed: {e}");
            return ExitCode::from(2);
        }
    }
    emit(&report, json)
}

/// Reads `path` and runs `check` over its contents, exiting non-zero on
/// any error finding. Shared by the `--trace` and `--prom` modes.
fn file_run(path: &str, json: bool, check: impl FnOnce(&str, &str) -> Report) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("verify: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    emit(&check(path, &text), json)
}

/// Parses a `TelemetrySnapshot` JSON document and runs the RV080–RV082
/// telemetry passes over it (conservation without the ledger
/// cross-check — the bench validates against the live ledger itself).
fn check_telemetry_file(label: &str, text: &str) -> Report {
    let snap: rtoss_fleet::TelemetrySnapshot = match serde_json::from_str(text) {
        Ok(s) => s,
        Err(e) => {
            let mut report = Report::new();
            report.push(rtoss_verify::Diagnostic::error(
                "RV080",
                label.to_string(),
                format!("telemetry snapshot does not parse: {e}"),
            ));
            return report;
        }
    };
    let mut report = rtoss_verify::check_telemetry_windows(&snap);
    report.extend(rtoss_verify::check_telemetry_conservation(&snap, None).diagnostics);
    report.extend(rtoss_verify::check_alert_log(&snap).diagnostics);
    report
}

fn fixture_run(name: &str, json: bool) -> ExitCode {
    let Some(report) = fixtures::run(name) else {
        eprintln!(
            "verify: unknown fixture {name:?}; known: {}",
            fixtures::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    emit(&report, json)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => full_run(json),
        ["--fixture", name] => fixture_run(name, json),
        ["--trace", path] => file_run(path, json, rtoss_verify::check_trace_json),
        ["--prom", path] => file_run(path, json, rtoss_verify::check_prometheus),
        ["--telemetry", path] => file_run(path, json, check_telemetry_file),
        ["--flight", path] => file_run(path, json, rtoss_verify::check_flight_dump),
        ["--list-fixtures"] => {
            for name in fixtures::NAMES {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: verify [--json] [--fixture NAME | --trace FILE | --prom FILE | \
                 --telemetry FILE | --flight FILE | --list-fixtures]"
            );
            ExitCode::from(2)
        }
    }
}
