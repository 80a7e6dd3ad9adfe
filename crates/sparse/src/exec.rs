//! Sparse convolution executors.
//!
//! Every executor computes exactly the same result as
//! [`rtoss_tensor::ops::conv2d`] on the masked dense weights (up to
//! f32 summation order); they differ only in where the kernels they
//! walk come from:
//!
//! - [`conv2d_pattern_sparse`]: the layer's own [`KernelPack`] — the
//!   one conv kernel a compiled plan runs, for pruned and unpruned
//!   layers alike.
//! - [`conv2d_unstructured`]: a COO layer's [`KernelPack`] — the
//!   paper's unstructured comparison on the same weights.
//! - [`conv2d_dense`]: all `k×k` taps of every kernel, zeros included
//!   — the benches' dense baseline in the same accumulation order.
//!
//! All three share one register-tiled body: per [`MR`]×[`NR`] output
//! tile a stack accumulator block takes every kernel's taps through
//! [`accum_taps`]'s runtime tap loop, then writes back once with the
//! fused epilogue. [`conv2d_pattern_scalar_into_with`] is the scalar
//! reference — one row-sweep per tap, no tiling. The proptests and
//! RV092 pin every tiled executor bit-identical to it.
//!
//! # Canonical accumulation order
//!
//! All paths accumulate each output element as `bias`, then taps in
//! ascending `(ic, ky, kx)` order (the pack order). f32 addition does
//! not commute in rounding, so sharing one chain is what makes the
//! paths bit-identical to each other. The dense path additionally adds
//! `0.0 * x` for pruned taps, which is bitwise inert except when an
//! output element is exactly `±0.0` *and* the layer bias is `-0.0` —
//! the executors' contract excludes negative-zero biases.
//!
//! Every executor tiles its output into `(batch, out-channel)` planes
//! and runs the tiles across scoped threads (`*_with` variants take an
//! [`ExecConfig`]; the plain variants use the process default). Tiles
//! own disjoint `&mut` output slices, and each plane accumulates in the
//! serial sweep's floating-point order, so results are bit-identical
//! for every thread count.
//!
//! [`KernelPack`]: crate::pack::KernelPack
//! [`MR`]: rtoss_tensor::microkernel::MR
//! [`NR`]: rtoss_tensor::microkernel::NR
//! [`accum_taps`]: rtoss_tensor::microkernel::accum_taps

use crate::format::{PatternCompressedConv, UnstructuredSparseConv};
use rtoss_tensor::exec::{run_tiles, Epilogue, ExecConfig};
use rtoss_tensor::microkernel::{
    accum_taps, pad_plane_into, padded_plane_len, writeback, FastDivmod, Tile, MR, NR,
};
use rtoss_tensor::ops::out_extent;
use rtoss_tensor::{Tensor, TensorError};

fn check_input(
    shape: &[usize],
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize), TensorError> {
    if shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: shape.len(),
            op,
        });
    }
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    if c != in_ch {
        return Err(TensorError::Invalid {
            op,
            msg: format!("input has {c} channels, layer expects {in_ch}"),
        });
    }
    let oh = out_extent(h, kernel, stride, pad).ok_or_else(|| TensorError::Invalid {
        op,
        msg: "kernel does not fit input".into(),
    })?;
    let ow = out_extent(w, kernel, stride, pad).ok_or_else(|| TensorError::Invalid {
        op,
        msg: "kernel does not fit input".into(),
    })?;
    Ok((n, h, w, oh, ow))
}

/// Accumulates `val * x_row` into `out_row` for one (kernel-cell, output
/// row) pair. Padding bounds are hoisted out of the inner loop: the
/// valid `ox` range is computed once, and the stride-1 common case runs
/// a branch-free contiguous saxpy. The scalar-reference inner loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_row(
    out_row: &mut [f32],
    x_plane: &[f32],
    w_in: usize,
    iy: isize,
    h_in: usize,
    kx: usize,
    stride: usize,
    pad: usize,
    val: f32,
) {
    if iy < 0 || iy >= h_in as isize {
        return;
    }
    let ow = out_row.len();
    // Valid ox satisfy 0 <= ox*stride + kx - pad < w_in.
    let ox_start = pad.saturating_sub(kx).div_ceil(stride).min(ow);
    let ox_end = ((w_in + pad).saturating_sub(kx).div_ceil(stride)).min(ow);
    if ox_start >= ox_end {
        return;
    }
    let x_row = &x_plane[iy as usize * w_in..(iy as usize + 1) * w_in];
    let ix_start = ox_start * stride + kx - pad;
    if stride == 1 {
        let len = ox_end - ox_start;
        let xs = &x_row[ix_start..ix_start + len];
        let os = &mut out_row[ox_start..ox_end];
        for (o, &xv) in os.iter_mut().zip(xs.iter()) {
            *o += val * xv;
        }
    } else {
        let mut ix = ix_start;
        for o in &mut out_row[ox_start..ox_end] {
            *o += val * x_row[ix];
            ix += stride;
        }
    }
}

/// Output shape `[n, out_ch, oh, ow]` of a sparse convolution over an
/// input of `x_shape`, validating geometry without executing anything.
/// The execution plan calls this once at plan time so per-call forwards
/// skip shape inference entirely.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
#[allow(clippy::too_many_arguments)]
pub fn conv_output_shape(
    x_shape: &[usize],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    op: &'static str,
) -> Result<[usize; 4], TensorError> {
    let (n, _h, _w, oh, ow) = check_input(x_shape, in_ch, kernel, stride, pad, op)?;
    Ok([n, out_ch, oh, ow])
}

/// Geometry every `*_into_with` executor shares, resolved once by
/// [`check_conv_into`].
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    oh: usize,
    ow: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

/// Validates input geometry plus the bias/epilogue/output-buffer
/// lengths shared by every into-variant.
#[allow(clippy::too_many_arguments)]
fn check_conv_into(
    op: &'static str,
    x_shape: &[usize],
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out_len: usize,
) -> Result<ConvGeom, TensorError> {
    let (n, h, w, oh, ow) = check_input(x_shape, in_ch, kernel, stride, pad, op)?;
    if let Some(b) = bias {
        if b.len() != out_ch {
            return Err(TensorError::Invalid {
                op,
                msg: format!("bias length {} != out channels {out_ch}", b.len()),
            });
        }
    }
    if let Some((scale, shift)) = epilogue.affine {
        if scale.len() != out_ch || shift.len() != out_ch {
            return Err(TensorError::Invalid {
                op,
                msg: format!(
                    "epilogue affine lengths {}/{} != out channels {out_ch}",
                    scale.len(),
                    shift.len()
                ),
            });
        }
    }
    let want_len = n * out_ch * oh * ow;
    if out_len != want_len {
        return Err(TensorError::Invalid {
            op,
            msg: format!("output buffer holds {out_len} elements, need {want_len}"),
        });
    }
    Ok(ConvGeom {
        n,
        c: in_ch,
        h,
        w,
        o: out_ch,
        oh,
        ow,
        k: kernel,
        stride,
        pad,
    })
}

/// Shared Tensor-returning entry point: shape-check, zeroed buffer,
/// delegate to the `*_into_with` body, wrap the result. Every format's
/// convenience wrapper goes through here instead of repeating the
/// boilerplate.
#[allow(clippy::too_many_arguments)]
fn conv_entry(
    x: &Tensor,
    op: &'static str,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    run: impl FnOnce(&mut [f32]) -> Result<[usize; 4], TensorError>,
) -> Result<Tensor, TensorError> {
    let shape = conv_output_shape(x.shape(), in_ch, out_ch, kernel, stride, pad, op)?;
    let mut out = vec![0.0f32; shape.iter().product()];
    run(&mut out)?;
    Tensor::from_vec(out, &shape)
}

/// Register-tiled `(batch, out-channel)`-plane driver shared by the
/// pattern, COO, and dense executors. Stages the input into
/// zero-padded planes (one pass — see the microkernel module docs),
/// then walks each output plane in [`MR`]×[`NR`] tiles. Per tile the
/// accumulator block starts at the bias, takes every kernel
/// `kernels(oc)` yields — `(ic, taps, vals)` in canonical order —
/// through [`accum_taps`], and is written back once with the fused
/// epilogue. Block and plane indices are decomposed with
/// [`FastDivmod`] — no hardware divide on the walk.
///
/// The block lives and dies inside this one frame, and its only
/// callees are `#[inline(always)]`, so its address never crosses a
/// real call boundary and LLVM can promote it to vector registers (see
/// the microkernel module docs). `kernels` only yields slices; it
/// never sees the block.
#[allow(clippy::too_many_arguments)]
fn run_tiled_conv<'w, I>(
    x: &[f32],
    g: ConvGeom,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    threads: usize,
    kernels: impl Fn(usize) -> I + Sync,
) where
    I: Iterator<Item = (usize, &'w [(u8, u8)], &'w [f32])>,
{
    let plane = g.oh * g.ow;
    let segs_per_row = g.ow.div_ceil(NR).max(1);
    let row_blocks = g.oh.div_ceil(MR).max(1);
    let seg_div = FastDivmod::new(segs_per_row as u32);
    let oc_div = FastDivmod::new(g.o as u32);
    let hw = g.h * g.w;
    let php = padded_plane_len(g.h, g.w, g.pad, g.stride, g.k);
    let mut staged = vec![0.0f32; g.n * g.c * php];
    for (p, dst) in staged.chunks_mut(php).enumerate() {
        pad_plane_into(dst, &x[p * hw..(p + 1) * hw], g.h, g.w, g.pad);
    }
    let xp = &staged[..];
    let tiles: Vec<(usize, &mut [f32])> = out.chunks_mut(plane).enumerate().collect();
    run_tiles(tiles, threads, |(tile_ix, out_plane)| {
        let (ni, oc) = {
            let (q, r) = oc_div.divmod(tile_ix as u32);
            (q as usize, r as usize)
        };
        // Each staged plane carries its own slack tail (included in
        // `php`), so ragged tiles stay within their plane's slice.
        let x_batch = &xp[ni * g.c * php..];
        for s in 0..(row_blocks * segs_per_row) as u32 {
            let (by, sx) = seg_div.divmod(s);
            let oy0 = by as usize * MR;
            let ox0 = sx as usize * NR;
            let tile = Tile {
                wp: g.w + 2 * g.pad,
                oy0,
                mr: MR.min(g.oh - oy0),
                ox0,
                nr: NR.min(g.ow - ox0),
                stride: g.stride,
            };
            let mut acc = [[bias.map_or(0.0, |b| b[oc]); NR]; MR];
            for (ic, taps, vals) in kernels(oc) {
                if ic >= g.c {
                    continue; // corrupt layer; RV011/RV013 reject pre-flight
                }
                accum_taps(&mut acc, &x_batch[ic * php..], &tile, taps, vals);
            }
            writeback(out_plane, g.ow, &tile, &acc, oc, epilogue);
        }
    });
}

/// Executes a pattern-compressed convolution: `x (N,C,H,W) → (N,O,oh,ow)`.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
pub fn conv2d_pattern_sparse(
    x: &Tensor,
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
) -> Result<Tensor, TensorError> {
    conv2d_pattern_sparse_with(x, layer, bias, &ExecConfig::default())
}

/// [`conv2d_pattern_sparse`] with an explicit [`ExecConfig`].
///
/// The output is tiled into `(batch, out-channel)` planes dispatched
/// across `exec.threads` scoped threads. Each plane accumulates its
/// kernels in the canonical pack order, so every thread count produces
/// bit-identical results.
///
/// # Errors
///
/// Same conditions as [`conv2d_pattern_sparse`].
pub fn conv2d_pattern_sparse_with(
    x: &Tensor,
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
    exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    conv_entry(
        x,
        "conv2d_pattern_sparse",
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        |out| {
            conv2d_pattern_sparse_into_with(
                x.as_slice(),
                x.shape(),
                layer,
                bias,
                &Epilogue::NONE,
                out,
                exec,
            )
        },
    )
}

/// Write-into-buffer variant of [`conv2d_pattern_sparse_with`] with an
/// [`Epilogue`] hook: the compiled execution plan's conv step, running
/// the register-tiled microkernel over the layer's prebuilt
/// [`KernelPack`].
///
/// `x`/`x_shape` describe the input (an arena slice — no `Tensor`
/// allocation on the hot path); the result is written into `out`, which
/// must hold exactly `n * out_channels * oh * ow` elements. Every
/// element of `out` is overwritten (bias or zero fill first), so a
/// reused arena buffer needs no clearing. The epilogue runs per output
/// segment at tile writeback — hot in registers, composing with the
/// scoped-thread tiling, and bit-identical for every thread count
/// (each plane is processed by exactly one worker in the serial
/// sweep's order).
///
/// Returns the output shape `[n, out_channels, oh, ow]`.
///
/// # Errors
///
/// Same conditions as [`conv2d_pattern_sparse`], plus mismatched
/// epilogue or output-buffer lengths.
///
/// [`KernelPack`]: crate::pack::KernelPack
#[allow(clippy::too_many_arguments)]
pub fn conv2d_pattern_sparse_into_with(
    x: &[f32],
    x_shape: &[usize],
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    exec: &ExecConfig,
) -> Result<[usize; 4], TensorError> {
    let g = check_conv_into(
        "conv2d_pattern_sparse",
        x_shape,
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        bias,
        epilogue,
        out.len(),
    )?;
    debug_validate_pattern(layer);
    let pack = layer.pack();
    run_tiled_conv(x, g, bias, epilogue, out, exec.threads, |oc| {
        pack.oc_kernels(oc)
    });
    Ok([g.n, g.o, g.oh, g.ow])
}

/// Scalar-reference twin of [`conv2d_pattern_sparse_into_with`]: same
/// canonical accumulation order (pack order — `bias`, then taps by
/// ascending `(ic, ky, kx)`), but one whole-plane row sweep per tap
/// and a per-plane epilogue instead of register tiling. Every tiled
/// variant is pinned bit-identical to this by the kernel proptests and
/// RV092; `kernel_bench` uses it as the speed baseline.
///
/// # Errors
///
/// Same conditions as [`conv2d_pattern_sparse_into_with`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_pattern_scalar_into_with(
    x: &[f32],
    x_shape: &[usize],
    layer: &PatternCompressedConv,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    exec: &ExecConfig,
) -> Result<[usize; 4], TensorError> {
    let g = check_conv_into(
        "conv2d_pattern_scalar",
        x_shape,
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        bias,
        epilogue,
        out.len(),
    )?;
    debug_validate_pattern(layer);
    let plane = g.oh * g.ow;
    let hw = g.h * g.w;
    let pack = layer.pack();
    let tiles: Vec<(usize, &mut [f32])> = out.chunks_mut(plane).enumerate().collect();
    run_tiles(tiles, exec.threads, |(tile, out_plane)| {
        let (ni, oc) = (tile / g.o, tile % g.o);
        // The buffer may be a reused arena slot: fill unconditionally.
        out_plane.fill(bias.map_or(0.0, |b| b[oc]));
        for (ic, taps, vals) in pack.oc_kernels(oc) {
            if ic >= g.c {
                continue;
            }
            let x_plane = &x[(ni * g.c + ic) * hw..(ni * g.c + ic + 1) * hw];
            for (&(ky, kx), &val) in taps.iter().zip(vals) {
                for oy in 0..g.oh {
                    let iy = (oy * g.stride + ky as usize) as isize - g.pad as isize;
                    accumulate_row(
                        &mut out_plane[oy * g.ow..(oy + 1) * g.ow],
                        x_plane,
                        g.w,
                        iy,
                        g.h,
                        kx as usize,
                        g.stride,
                        g.pad,
                        val,
                    );
                }
            }
        }
        epilogue.apply(oc, out_plane);
    });
    Ok([g.n, g.o, g.oh, g.ow])
}

/// Executes an unstructured (COO) sparse convolution.
///
/// # Errors
///
/// Returns an error if the input rank/channels do not match the layer
/// or the kernel does not fit.
pub fn conv2d_unstructured(
    x: &Tensor,
    layer: &UnstructuredSparseConv,
    bias: Option<&[f32]>,
) -> Result<Tensor, TensorError> {
    conv2d_unstructured_with(x, layer, bias, &ExecConfig::default())
}

/// [`conv2d_unstructured`] with an explicit [`ExecConfig`].
///
/// Same `(batch, out-channel)`-plane tiling as the pattern executor;
/// each plane replays its COO runs in entry order, so results are
/// bit-identical for every thread count.
///
/// # Errors
///
/// Same conditions as [`conv2d_unstructured`].
pub fn conv2d_unstructured_with(
    x: &Tensor,
    layer: &UnstructuredSparseConv,
    bias: Option<&[f32]>,
    exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    conv_entry(
        x,
        "conv2d_unstructured",
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        |out| {
            conv2d_unstructured_into_with(
                x.as_slice(),
                x.shape(),
                layer,
                bias,
                &Epilogue::NONE,
                out,
                exec,
            )
        },
    )
}

/// Write-into-buffer variant of [`conv2d_unstructured_with`] with an
/// [`Epilogue`] hook; the COO twin of
/// [`conv2d_pattern_sparse_into_with`] — same buffer contract, same
/// register-tiled walk, over the COO layer's own pack (one offset
/// slice per `(oc, ic)` run instead of one per pattern group).
///
/// Returns the output shape `[n, out_channels, oh, ow]`.
///
/// # Errors
///
/// Same conditions as [`conv2d_unstructured`], plus mismatched epilogue
/// or output-buffer lengths.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_unstructured_into_with(
    x: &[f32],
    x_shape: &[usize],
    layer: &UnstructuredSparseConv,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    exec: &ExecConfig,
) -> Result<[usize; 4], TensorError> {
    let g = check_conv_into(
        "conv2d_unstructured",
        x_shape,
        layer.in_channels(),
        layer.out_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        bias,
        epilogue,
        out.len(),
    )?;
    // Debug-build checkpoint: a corrupt artifact (out-of-bounds channel
    // or offset) would otherwise surface as wrong output. Release
    // builds rely on the opt-in `rtoss-verify` pre-flight pass instead
    // of paying this on every forward.
    #[cfg(debug_assertions)]
    {
        let violations = layer.validate();
        debug_assert!(
            violations.is_empty(),
            "conv2d_unstructured on invalid layer: {violations:?}"
        );
    }
    let pack = layer.pack();
    run_tiled_conv(x, g, bias, epilogue, out, exec.threads, |oc| {
        pack.oc_kernels(oc)
    });
    Ok([g.n, g.o, g.oh, g.ow])
}

/// Executes a dense conv through the canonical-order tiled path.
///
/// # Errors
///
/// Same conditions as [`conv2d_dense_with`].
pub fn conv2d_dense(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    conv2d_dense_with(x, w, bias, stride, pad, &ExecConfig::default())
}

/// [`conv2d_dense`] with an explicit [`ExecConfig`].
///
/// This is the benches' dense baseline, **not** a replacement for
/// [`rtoss_tensor::ops::conv2d`]: it accumulates bias-first in the
/// canonical `(ic, ky, kx)` tap order (zero taps included, which is
/// bitwise inert — see the module docs), so its output is
/// bit-identical to the sparse executors on the same weights, whereas
/// the im2col+GEMM path adds bias after the matmul and rounds
/// differently.
///
/// # Errors
///
/// Returns an error if the weight is not rank-4 square or the input
/// does not match it.
pub fn conv2d_dense_with(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
    exec: &ExecConfig,
) -> Result<Tensor, TensorError> {
    let (o, c, k) = check_dense_weight(w)?;
    conv_entry(x, "conv2d_dense", c, o, k, stride, pad, |out| {
        conv2d_dense_into_with(
            x.as_slice(),
            x.shape(),
            w,
            stride,
            pad,
            bias,
            &Epilogue::NONE,
            out,
            exec,
        )
    })
}

fn check_dense_weight(w: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    let ws = w.shape();
    if ws.len() != 4 || ws[2] != ws[3] {
        return Err(TensorError::Invalid {
            op: "conv2d_dense",
            msg: format!("expected rank-4 square-kernel weights, got {ws:?}"),
        });
    }
    Ok((ws[0], ws[1], ws[2]))
}

/// Write-into-buffer dense conv in the canonical accumulation order
/// (see [`conv2d_dense_with`] for why this exists alongside the im2col
/// path). All `k×k` taps of every kernel run through the same
/// register-tiled walk as the sparse formats.
///
/// Returns the output shape `[n, out_channels, oh, ow]`.
///
/// # Errors
///
/// Returns an error on non-square weights, mismatched input geometry,
/// or mismatched epilogue/output-buffer lengths.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_dense_into_with(
    x: &[f32],
    x_shape: &[usize],
    w: &Tensor,
    stride: usize,
    pad: usize,
    bias: Option<&[f32]>,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    exec: &ExecConfig,
) -> Result<[usize; 4], TensorError> {
    let (o, c, k) = check_dense_weight(w)?;
    let g = check_conv_into(
        "conv2d_dense",
        x_shape,
        c,
        o,
        k,
        stride,
        pad,
        bias,
        epilogue,
        out.len(),
    )?;
    let kk = k * k;
    // The full tap window in canonical (ky, kx) order, shared by every
    // kernel — the dense analogue of a pattern group's offset slice.
    let full_taps: Vec<(u8, u8)> = (0..k as u8)
        .flat_map(|ky| (0..k as u8).map(move |kx| (ky, kx)))
        .collect();
    let wd = w.as_slice();
    run_tiled_conv(x, g, bias, epilogue, out, exec.threads, |oc| {
        let full_taps = &full_taps[..];
        (0..c).map(move |ic| {
            let at = (oc * c + ic) * kk;
            (ic, full_taps, &wd[at..at + kk])
        })
    });
    Ok([g.n, g.o, g.oh, g.ow])
}

/// Debug-build checkpoint: a corrupt artifact (out-of-bounds channel
/// or offset) would otherwise surface as silently-wrong output in the
/// tiled workers. Release builds rely on the opt-in `rtoss-verify`
/// pre-flight pass instead of paying this on every forward.
fn debug_validate_pattern(layer: &PatternCompressedConv) {
    #[cfg(debug_assertions)]
    {
        let violations = layer.validate();
        debug_assert!(
            violations.is_empty(),
            "pattern executor on invalid layer: {violations:?}"
        );
    }
    let _ = layer;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::{init, ops};

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    fn pruned(k_entries: usize, o: usize, i: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[o, i, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn pattern_sparse_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let w = pruned(3, 6, 4, 11);
            let x = init::uniform(&mut init::rng(12), &[2, 4, 9, 9], -1.0, 1.0);
            let bias: Vec<f32> = (0..6).map(|v| v as f32 * 0.1).collect();
            let dense = ops::conv2d(&x, &w, Some(&bias), stride, pad).unwrap();
            let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
            let sparse = conv2d_pattern_sparse(&x, &pc, Some(&bias)).unwrap();
            assert_close(&sparse, &dense, 1e-4);
        }
    }

    #[test]
    fn unstructured_matches_dense() {
        let w = pruned(2, 5, 3, 13);
        let x = init::uniform(&mut init::rng(14), &[1, 3, 7, 7], -1.0, 1.0);
        let dense = ops::conv2d(&x, &w, None, 1, 1).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        let sparse = conv2d_unstructured(&x, &un, None).unwrap();
        assert_close(&sparse, &dense, 1e-4);
    }

    #[test]
    fn all_formats_bit_identical_on_same_weights() {
        for &(stride, pad, batch) in &[(1usize, 1usize, 2usize), (2, 1, 1), (1, 0, 1)] {
            let w = pruned(2, 8, 5, 15);
            let x = init::uniform(&mut init::rng(16), &[batch, 5, 12, 11], -1.0, 1.0);
            let bias: Vec<f32> = (0..8).map(|v| v as f32 * 0.1 - 0.3).collect();
            let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
            let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
            let cfg = ExecConfig::serial();
            let a = conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &cfg).unwrap();
            let b = conv2d_unstructured_with(&x, &un, Some(&bias), &cfg).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "pattern vs coo s{stride}p{pad}");
            let mut d = vec![0.0f32; a.numel()];
            conv2d_dense_into_with(
                x.as_slice(),
                x.shape(),
                &w,
                stride,
                pad,
                Some(&bias),
                &Epilogue::NONE,
                &mut d,
                &cfg,
            )
            .unwrap();
            assert_eq!(a.as_slice(), &d[..], "pattern vs dense s{stride}p{pad}");
            let mut sc = vec![0.0f32; a.numel()];
            conv2d_pattern_scalar_into_with(
                x.as_slice(),
                x.shape(),
                &pc,
                Some(&bias),
                &Epilogue::NONE,
                &mut sc,
                &cfg,
            )
            .unwrap();
            assert_eq!(a.as_slice(), &sc[..], "tiled vs scalar s{stride}p{pad}");
        }
    }

    #[test]
    fn one_by_one_sparse_conv() {
        let mut w = init::uniform(&mut init::rng(17), &[6, 4, 1, 1], -1.0, 1.0);
        for idx in [0usize, 5, 10, 15, 20] {
            w.as_mut_slice()[idx] = 0.0;
        }
        let x = init::uniform(&mut init::rng(18), &[1, 4, 6, 6], -1.0, 1.0);
        let dense = ops::conv2d(&x, &w, None, 1, 0).unwrap();
        let pc = PatternCompressedConv::from_dense(&w, 1, 0).unwrap();
        assert_close(&conv2d_pattern_sparse(&x, &pc, None).unwrap(), &dense, 1e-4);
    }

    #[test]
    fn parallel_executors_bit_identical_to_serial() {
        for &(stride, pad, batch) in &[(1usize, 1usize, 1usize), (2, 1, 3), (1, 0, 2)] {
            let w = pruned(3, 7, 5, 21);
            let x = init::uniform(&mut init::rng(22), &[batch, 5, 9, 11], -1.0, 1.0);
            let bias: Vec<f32> = (0..7).map(|v| v as f32 * 0.2 - 0.5).collect();
            let pc = PatternCompressedConv::from_dense(&w, stride, pad).unwrap();
            let un = UnstructuredSparseConv::from_dense(&w, stride, pad).unwrap();
            let serial_pc =
                conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &ExecConfig::serial()).unwrap();
            let serial_un =
                conv2d_unstructured_with(&x, &un, Some(&bias), &ExecConfig::serial()).unwrap();
            for threads in [2usize, 3, 5, 8] {
                let cfg = ExecConfig::with_threads(threads);
                let par_pc = conv2d_pattern_sparse_with(&x, &pc, Some(&bias), &cfg).unwrap();
                let par_un = conv2d_unstructured_with(&x, &un, Some(&bias), &cfg).unwrap();
                assert_eq!(
                    serial_pc.as_slice(),
                    par_pc.as_slice(),
                    "pattern t={threads}"
                );
                assert_eq!(serial_un.as_slice(), par_un.as_slice(), "coo t={threads}");
            }
        }
    }

    #[test]
    fn into_variants_with_fused_epilogue_match_separate_passes() {
        let w = pruned(3, 6, 4, 31);
        let x = init::uniform(&mut init::rng(32), &[2, 4, 9, 9], -1.0, 1.0);
        let bias: Vec<f32> = (0..6).map(|v| v as f32 * 0.1 - 0.2).collect();
        let scale: Vec<f32> = (0..6).map(|v| 0.5 + v as f32 * 0.3).collect();
        let shift: Vec<f32> = (0..6).map(|v| v as f32 * -0.4).collect();
        let relu: fn(f32) -> f32 = |v| v.max(0.0);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        // Reference: unfused conv, then standalone affine + activation
        // passes in the order the epilogue uses. (All formats share the
        // canonical accumulation order, so one reference serves both.)
        let plane = 9 * 9;
        let unfused_then_epilogue = |conv: &Tensor| {
            let mut want = conv.as_slice().to_vec();
            for (tile, p) in want.chunks_mut(plane).enumerate() {
                let oc = tile % 6;
                for v in p.iter_mut() {
                    *v = relu(scale[oc] * *v + shift[oc]);
                }
            }
            want
        };
        let want = unfused_then_epilogue(&conv2d_pattern_sparse(&x, &pc, Some(&bias)).unwrap());
        let want_un = unfused_then_epilogue(&conv2d_unstructured(&x, &un, Some(&bias)).unwrap());
        assert_eq!(want, want_un, "formats share the canonical order");
        let epi = Epilogue {
            affine: Some((&scale, &shift)),
            act: Some(rtoss_tensor::EpilogueAct::Relu),
        };
        for threads in [1usize, 2, 4, 7] {
            let cfg = ExecConfig::with_threads(threads);
            // Dirty buffers prove every element is overwritten.
            let mut got = vec![f32::NAN; 2 * 6 * plane];
            let shape = conv2d_pattern_sparse_into_with(
                x.as_slice(),
                x.shape(),
                &pc,
                Some(&bias),
                &epi,
                &mut got,
                &cfg,
            )
            .unwrap();
            assert_eq!(shape, [2, 6, 9, 9]);
            assert_eq!(got, want, "pattern t={threads}");
            let mut got_un = vec![f32::NAN; 2 * 6 * plane];
            conv2d_unstructured_into_with(
                x.as_slice(),
                x.shape(),
                &un,
                Some(&bias),
                &epi,
                &mut got_un,
                &cfg,
            )
            .unwrap();
            assert_eq!(got_un, want_un, "coo t={threads}");
        }
    }

    #[test]
    fn into_variants_reject_bad_buffers_and_epilogues() {
        let w = pruned(3, 4, 2, 33);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = init::uniform(&mut init::rng(34), &[1, 2, 5, 5], -1.0, 1.0);
        let cfg = ExecConfig::serial();
        let mut short = vec![0.0f32; 3];
        assert!(conv2d_pattern_sparse_into_with(
            x.as_slice(),
            x.shape(),
            &pc,
            None,
            &Epilogue::NONE,
            &mut short,
            &cfg,
        )
        .is_err());
        let bad_scale = [1.0f32; 3]; // layer has 4 out channels
        let bad_shift = [0.0f32; 3];
        let mut out = vec![0.0f32; 4 * 25];
        assert!(conv2d_pattern_sparse_into_with(
            x.as_slice(),
            x.shape(),
            &pc,
            None,
            &Epilogue {
                affine: Some((&bad_scale, &bad_shift)),
                act: None,
            },
            &mut out,
            &cfg,
        )
        .is_err());
        // Dense path: non-square weights rejected.
        let wbad = Tensor::zeros(&[4, 2, 3, 5]);
        assert!(conv2d_dense_into_with(
            x.as_slice(),
            x.shape(),
            &wbad,
            1,
            1,
            None,
            &Epilogue::NONE,
            &mut out,
            &cfg,
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_channels_and_bias() {
        let w = pruned(3, 4, 2, 19);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = Tensor::zeros(&[1, 3, 6, 6]);
        assert!(conv2d_pattern_sparse(&x, &pc, None).is_err());
        let x = Tensor::zeros(&[1, 2, 6, 6]);
        assert!(conv2d_pattern_sparse(&x, &pc, Some(&[0.0])).is_err());
    }

    #[test]
    fn fully_pruned_layer_outputs_bias() {
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let x = init::uniform(&mut init::rng(20), &[1, 2, 4, 4], -1.0, 1.0);
        let y = conv2d_pattern_sparse(&x, &pc, Some(&[1.5, -0.5])).unwrap();
        assert!(y.as_slice()[..16].iter().all(|&v| v == 1.5));
        assert!(y.as_slice()[16..].iter().all(|&v| v == -0.5));
    }
}
