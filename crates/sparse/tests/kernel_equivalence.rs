//! Property tests for the register-tiled conv microkernels.
//!
//! Two contracts, randomized over shapes, strides, paddings, entry
//! patterns, kernel sizes, bias/epilogue mixes, and thread widths:
//!
//! 1. **Pack round-trip** — both kernel-major packs (pattern and COO)
//!    reconstruct the pruned dense weights *bitwise* through
//!    `to_dense()`: the pack layout loses nothing and invents nothing.
//!    (RV090 re-checks this statically per compiled layer.)
//! 2. **Kernel equivalence** — every tiled executor variant (pattern
//!    microkernel, COO, dense) produces bitwise the output of the
//!    scalar reference executor at every thread width, for every
//!    kernel size a compiled plan runs: pruned and unpruned 3×3, 1×1,
//!    and the 6×6 stride-2 stem. This is the randomized face of RV092:
//!    any divergence in canonical accumulation order, padded staging,
//!    or ragged-edge writeback shows up as a bit flip, not a tolerance
//!    failure.

use proptest::prelude::*;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::exec::{
    conv2d_dense_into_with, conv2d_pattern_scalar_into_with, conv2d_pattern_sparse_into_with,
    conv2d_unstructured_into_with,
};
use rtoss_sparse::{PatternCompressedConv, UnstructuredSparseConv};
use rtoss_tensor::exec::Epilogue;
use rtoss_tensor::ops::out_extent;
use rtoss_tensor::{init, EpilogueAct, ExecConfig, Tensor};

/// Random pruned 3×3 weights: `o`×`i` kernels kept to `k_entries` taps.
fn pruned(o: usize, i: usize, k_entries: usize, seed: u64) -> Tensor {
    let mut w = init::uniform(&mut init::rng(seed), &[o, i, 3, 3], -1.0, 1.0);
    prune_3x3_weights(&mut w, &canonical_set(k_entries).unwrap()).unwrap();
    w
}

/// Random `o`×`i` weights of kernel size `k`. With `prune`, 3×3
/// kernels keep `k_entries` taps and 1×1 layers lose a seeded third of
/// their weights; 6×6 (the stem) and unpruned layers stay dense.
fn weights(o: usize, i: usize, k: usize, prune: bool, k_entries: usize, seed: u64) -> Tensor {
    if prune && k == 3 {
        return pruned(o, i, k_entries, seed);
    }
    let mut w = init::uniform(&mut init::rng(seed), &[o, i, k, k], -1.0, 1.0);
    if prune && k == 1 {
        for (j, v) in w.as_mut_slice().iter_mut().enumerate() {
            if (j as u64 * 7 + seed).is_multiple_of(3) {
                *v = 0.0;
            }
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packs_round_trip_to_dense(
        o in 1usize..9,
        i in 1usize..7,
        k_entries in 2usize..5,
        seed in 0u64..1000,
    ) {
        let w = pruned(o, i, k_entries, 0xF00D ^ seed);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        prop_assert_eq!(
            pc.pack().to_dense(o, i, 3).as_slice(),
            w.as_slice(),
            "pattern pack: o={} i={} {}EP", o, i, k_entries
        );
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        prop_assert_eq!(
            un.pack().to_dense(o, i, 3).as_slice(),
            w.as_slice(),
            "coo pack: o={} i={} {}EP", o, i, k_entries
        );
    }

    #[test]
    fn tiled_kernel_variants_bit_identical_to_scalar(
        o in 1usize..8,
        i in 1usize..6,
        h in 3usize..20,
        wd in 3usize..20,
        batch in 1usize..3,
        stride in 1usize..3,
        pad in 0usize..2,
        k_sel in 0usize..3,
        prune_sel in 0usize..4,
        k_entries in 2usize..5,
        bias_sel in 0usize..2,
        epi_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let k = [1usize, 3, 6][k_sel];
        // The 6×6 stem runs at stride 2, pad 2.
        let (stride, pad) = if k == 6 { (2, 2) } else { (stride, pad) };
        // One case in four is unpruned.
        let prune = prune_sel != 0;
        let w = weights(o, i, k, prune, k_entries, 0xBEEF ^ seed);
        let x = init::uniform(&mut init::rng(seed ^ 7), &[batch, i, h, wd], -1.0, 1.0);
        let with_bias = bias_sel == 1;
        let with_epilogue = epi_sel == 1;
        let bias: Option<Vec<f32>> =
            with_bias.then(|| (0..o).map(|v| v as f32 * 0.1 - 0.2).collect());
        let scale: Vec<f32> = (0..o).map(|v| 0.5 + v as f32 * 0.25).collect();
        let shift: Vec<f32> = (0..o).map(|v| v as f32 * -0.3).collect();
        let epi = if with_epilogue {
            Epilogue { affine: Some((&scale, &shift)), act: Some(EpilogueAct::Relu) }
        } else {
            Epilogue::NONE
        };
        let label = format!(
            "o={o} i={i} {h}x{wd} b={batch} k={k} s{stride}p{pad} prune={prune} \
             {k_entries}EP bias={with_bias} epi={with_epilogue}"
        );
        let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
        let oh = out_extent(h, k, stride, pad).unwrap();
        let ow = out_extent(wd, k, stride, pad).unwrap();
        let n_out = batch * o * oh * ow;
        let mut want = vec![f32::NAN; n_out];
        conv2d_pattern_scalar_into_with(
            x.as_slice(), x.shape(), &pc, bias.as_deref(), &epi, &mut want,
            &ExecConfig::serial(),
        ).unwrap();
        for threads in 1usize..=4 {
            let cfg = ExecConfig::with_threads(threads);
            // NAN-dirty buffers prove every element is overwritten.
            let mut got = vec![f32::NAN; n_out];
            conv2d_pattern_sparse_into_with(
                x.as_slice(), x.shape(), &pc, bias.as_deref(), &epi, &mut got, &cfg,
            ).unwrap();
            prop_assert_eq!(&got, &want, "pattern vs scalar, {} t={}", label, threads);
            let mut got = vec![f32::NAN; n_out];
            conv2d_unstructured_into_with(
                x.as_slice(), x.shape(), &un, bias.as_deref(), &epi, &mut got, &cfg,
            ).unwrap();
            prop_assert_eq!(&got, &want, "coo vs scalar, {} t={}", label, threads);
            let mut got = vec![f32::NAN; n_out];
            conv2d_dense_into_with(
                x.as_slice(), x.shape(), &w, stride, pad, bias.as_deref(), &epi, &mut got,
                &cfg,
            ).unwrap();
            prop_assert_eq!(&got, &want, "dense vs scalar, {} t={}", label, threads);
        }
    }
}
