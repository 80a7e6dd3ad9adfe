//! Microkernel checks: pack reconstruction and cross-executor
//! bit-identity (RV090/RV092).
//!
//! Every conv step of a compiled plan runs one kernel: the layer's own
//! kernel-major [`KernelPack`] walked by the register-tiled body. The
//! paper's COO and dense comparisons walk the same body over a pack
//! (or tap window) of their own. Two things can silently go wrong:
//!
//! - **RV090 — pack reconstruction.** The pack is *derived* data built
//!   at load time. If packing drops, duplicates, or reorders a tap,
//!   the executor computes a wrong convolution while the group-level
//!   structures still validate. [`check_pack`] reconstructs a dense
//!   weight tensor from the pack alone and requires it bitwise equal to
//!   the layer's own `to_dense()`.
//! - **RV092 — cross-executor bit-identity.** All executors share one
//!   canonical accumulation order (bias first, then taps in ascending
//!   `(ic, ky, kx)`), so the tiled pattern, COO, and dense executors
//!   must reproduce the scalar reference **bit-for-bit** on every
//!   layer. Closeness is not the contract: serving-layer dedup compares
//!   outputs exactly.
//!
//! The `kernel-pack` / `kernel-equiv` fixtures prove each check can
//! fire.

use crate::diag::{Diagnostic, Report};
use rtoss_nn::Graph;
use rtoss_sparse::{ExecConfig, KernelPack, PatternCompressedConv, SparseModel};
use rtoss_tensor::Tensor;

/// Checks pack reconstruction (RV090): `pack` must rebuild exactly the
/// dense weight tensor `direct` of the layer it was derived from.
/// `kind` names the layer's format in the message.
pub fn check_pack(
    location: &str,
    kind: &str,
    pack: &KernelPack,
    direct: &Tensor,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let &[o, i, k, _] = direct.shape() else {
        out.push(Diagnostic::error(
            "RV090",
            location,
            format!(
                "{kind} layer has non-conv weight shape {:?}",
                direct.shape()
            ),
        ));
        return out;
    };
    let packed = pack.to_dense(o, i, k);
    let mismatch = |(a, b): (&f32, &f32)| a.to_bits() != b.to_bits();
    let pairs = || packed.as_slice().iter().zip(direct.as_slice());
    let diffs = pairs().filter(|&p| mismatch(p)).count();
    if diffs > 0 {
        let first = pairs().position(mismatch).unwrap_or(0);
        out.push(Diagnostic::error(
            "RV090",
            location,
            format!(
                "{kind} pack does not reconstruct the layer's weights: {diffs} of {} \
                 elements differ (first at flat index {first}) — the pack is derived \
                 data, so every executor reading it computes a wrong convolution",
                direct.as_slice().len()
            ),
        ));
    }
    out
}

/// Runs RV090 over every conv layer of an engine: the layer's own pack,
/// and the pack of its derived COO twin.
pub fn check_model_packs(model: &SparseModel) -> Report {
    let mut report = Report::new();
    for (node, layer) in model.conv_layers() {
        let loc = format!("node {node}");
        let dense = layer.to_dense();
        report.extend(check_pack(&loc, "pattern", layer.pack(), &dense));
        let coo = rtoss_sparse::coo_from_pattern(layer);
        report.extend(check_pack(&loc, "coo", coo.pack(), &dense));
    }
    report
}

/// Runs [`check_layer_format_equivalence`] (RV092) over every conv
/// layer of `model`, each at the input shape it sees when `graph` — the
/// graph `model` was compiled from — runs on `input_shape`.
pub fn check_model_kernels(graph: &Graph, model: &SparseModel, input_shape: &[usize]) -> Report {
    let mut report = Report::new();
    let shapes = match graph.infer_shapes(input_shape) {
        Ok(s) => s,
        Err(e) => {
            report.push(Diagnostic::error(
                "RV092",
                format!("kernels{input_shape:?}"),
                format!("shape inference failed: {e}"),
            ));
            return report;
        }
    };
    for (node, layer) in model.conv_layers() {
        let loc = format!("node {node}");
        let x_shape = graph
            .nodes()
            .get(node)
            .and_then(|n| n.inputs.first())
            .and_then(|&j| shapes.get(j));
        match x_shape {
            Some(x_shape) => report.extend(check_layer_format_equivalence(&loc, layer, x_shape)),
            None => report.push(Diagnostic::error(
                "RV092",
                loc,
                "conv node has no input shape in the graph it was compiled from",
            )),
        }
    }
    report
}

/// Checks cross-executor bit-identity for one layer (RV092): runs the
/// tiled pattern, COO, and dense executors on a deterministic probe of
/// `x_shape` and requires each bitwise equal to the scalar reference
/// executor. The `kernel-equiv` fixture corrupts one pack and expects
/// exactly this check to notice.
pub fn check_layer_format_equivalence(
    location: &str,
    layer: &PatternCompressedConv,
    x_shape: &[usize],
) -> Vec<Diagnostic> {
    use rtoss_sparse::exec::{
        conv2d_dense_into_with, conv2d_pattern_scalar_into_with, conv2d_pattern_sparse_into_with,
        conv2d_unstructured_into_with, conv_output_shape,
    };
    use rtoss_tensor::exec::Epilogue;

    let mut out = Vec::new();
    let out_shape = match conv_output_shape(
        x_shape,
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        "rv092",
    ) {
        Ok(s) => s,
        Err(e) => {
            out.push(Diagnostic::error(
                "RV092",
                location,
                format!("layer does not accept input shape {x_shape:?}: {e}"),
            ));
            return out;
        }
    };
    let x: Vec<f32> = (0..x_shape.iter().product::<usize>())
        .map(|i| ((i % 23) as f32) * 0.125 - 1.375)
        .collect();
    let bias = vec![0.25f32; layer.out_channels()];
    let exec = ExecConfig::serial();
    let out_len: usize = out_shape.iter().product();
    let mut reference = vec![0.0f32; out_len];
    if let Err(e) = conv2d_pattern_scalar_into_with(
        &x,
        x_shape,
        layer,
        Some(&bias),
        &Epilogue::NONE,
        &mut reference,
        &exec,
    ) {
        out.push(Diagnostic::error(
            "RV092",
            location,
            format!("scalar reference executor failed: {e}"),
        ));
        return out;
    }
    let coo = rtoss_sparse::coo_from_pattern(layer);
    let dense = layer.to_dense();
    let mut got = vec![0.0f32; out_len];
    let check_run = |label: &str,
                     r: Result<[usize; 4], rtoss_tensor::TensorError>,
                     got: &[f32],
                     out: &mut Vec<Diagnostic>| match r {
        Ok(_) => {
            let diffs = got
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            if diffs > 0 {
                out.push(Diagnostic::error(
                    "RV092",
                    location,
                    format!(
                        "{label} executor differs from the scalar reference in {diffs} of \
                         {out_len} elements on input {x_shape:?} — all formats must share \
                         the canonical accumulation order"
                    ),
                ));
            }
        }
        Err(e) => out.push(Diagnostic::error(
            "RV092",
            location,
            format!("{label} executor failed: {e}"),
        )),
    };
    let r = conv2d_pattern_sparse_into_with(
        &x,
        x_shape,
        layer,
        Some(&bias),
        &Epilogue::NONE,
        &mut got,
        &exec,
    );
    check_run("pattern-tiled", r, &got, &mut out);
    let r = conv2d_unstructured_into_with(
        &x,
        x_shape,
        &coo,
        Some(&bias),
        &Epilogue::NONE,
        &mut got,
        &exec,
    );
    check_run("coo", r, &got, &mut out);
    let r = conv2d_dense_into_with(
        &x,
        x_shape,
        &dense,
        layer.stride(),
        layer.padding(),
        Some(&bias),
        &Epilogue::NONE,
        &mut got,
        &exec,
    );
    check_run("dense", r, &got, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};

    fn twin() -> (Graph, SparseModel) {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 0x90).expect("twin builds");
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .expect("prunes");
        let engine = SparseModel::compile(&m.graph).expect("compiles");
        (m.graph, engine)
    }

    #[test]
    fn clean_engine_passes_all_kernel_checks() {
        let (graph, engine) = twin();
        assert!(!check_model_packs(&engine).has_errors());
        let report = check_model_kernels(&graph, &engine, &[1, 3, 32, 32]);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn corrupted_pattern_pack_fires_rv090() {
        let (_, engine) = twin();
        let (_, layer) = engine.conv_layers()[0];
        let mut bad = layer.clone();
        let vals = bad.pack_mut().values_mut();
        vals[0] = f32::from_bits(vals[0].to_bits() ^ 1);
        let diags = check_pack("corrupt", "pattern", bad.pack(), &bad.to_dense());
        assert!(diags.iter().any(|d| d.code == "RV090"), "{diags:?}");
    }

    #[test]
    fn corrupted_coo_pack_fires_rv090() {
        let (_, engine) = twin();
        let (_, layer) = engine.conv_layers()[0];
        let mut coo = rtoss_sparse::coo_from_pattern(layer);
        coo.pack_mut().values_mut()[0] += 1.0;
        let diags = check_pack("corrupt", "coo", coo.pack(), &coo.to_dense());
        assert!(diags.iter().any(|d| d.code == "RV090"), "{diags:?}");
    }
}
