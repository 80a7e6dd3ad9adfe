//! Register-tiled sparse-conv microkernels over padded input planes.
//!
//! The R-TOSS executor spends essentially all of its time accumulating
//! a handful of fixed kernel taps into output rows. This module is the
//! shared inner layer of every tiled conv executor in the sparse
//! crate: the input plane is first copied into an explicitly
//! zero-padded staging plane (see [`padded_plane_len`] /
//! [`pad_plane_into`] — one extra pass over the input, ~1/(2·out_ch)
//! of the conv's arithmetic), then the output plane is walked in
//! [`MR`]×[`NR`] tiles held in a stack accumulator block. Because the
//! padding is materialized, **every tap is unconditional**: no
//! per-tap column clip, no per-row bounds test, just a base offset and
//! `MR` rows of `NR`-wide multiply-adds with compile-time trip counts.
//!
//! That structure is what lets LLVM keep the whole accumulator block
//! in vector registers across the entire in-channel/tap chain (the
//! matrixmultiply-style microkernel contract): the block has *no
//! dynamically-indexed use* — full-width bias fill, unconditional
//! full-width accumulation, and a full-block scratch copy at
//! [`writeback`] whose *scratch* (not the accumulator) absorbs the
//! ragged-edge slicing. One dynamic index anywhere on the block and
//! SROA demotes it to the stack, at which point every tap pays an
//! accumulator load/store and the tiled walk can only tie the scalar
//! reference's read-modify-write sweep, never beat it.
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! - **Bit-identity.** For a given output element the accumulation
//!   chain is exactly `bias, tap0, tap1, …` in the order the caller
//!   supplies taps. Taps that land in the materialized zero padding
//!   contribute `val * 0.0 = ±0.0`; adding `±0.0` is bitwise inert for
//!   every accumulator value except exactly `-0.0`, which the chain
//!   can never produce (IEEE-754 round-to-nearest only yields `-0.0`
//!   from `(-0.0) + (-0.0)`, and the chain starts at the bias). So the
//!   padded chain is bit-identical to the clip-and-skip scalar
//!   reference — the same argument the canonical-order dense executor
//!   already relies on for its stored zero taps. RV052/RV092 and the
//!   kernel proptests pin this.
//! - **One tap loop.** [`accum_taps`] walks a runtime tap list, so
//!   one body serves every kernel size and entry count: 1×1, the 2–5
//!   tap R-TOSS patterns, the unpruned 9-tap 3×3, and the 36-tap 6×6
//!   stem. Const-generic bodies per tap count were measured and bought
//!   nothing beyond run-to-run noise (EXPERIMENTS.md); the register
//!   block, not the tap loop, is where the speed comes from.
//!
//! Index math over tile coordinates is strength-reduced with
//! [`FastDivmod`] (multiply-shift, no hardware divide) in the style of
//! cubek's im2col `Layout`.

use crate::exec::Epilogue;

/// Output-row-segment width of the register tile, in f32 elements.
///
/// Chosen with [`MR`] so the whole accumulator block fits the host
/// vector file with room for the tap broadcast and input loads
/// (`MR*NR = 64` floats = 8 AVX2 ymm, leaving 8 of 16 ymm free for
/// temporaries — a 128-float block spills), and so the 32/64-wide
/// feature maps the twins serve tile evenly.
pub const NR: usize = 16;

/// Output rows per register tile. Each tap issues `MR` unconditional
/// row accumulations from one base offset, so per-tap setup cost is
/// amortized over `MR * NR` output elements.
pub const MR: usize = 4;

/// Strength-reduced unsigned division by a fixed divisor.
///
/// Precomputes a multiply-shift magic pair `(m, s)` such that for any
/// `n < 2^32`, `n / d == (n * m) >> (64 + s)` evaluated in 128-bit
/// arithmetic — the hot loop replaces a hardware divide (~20-90
/// cycles) with a widening multiply and a shift. This is the cubek
/// `FastDivmod` construction; the exhaustive-edge proptest in this
/// module pins correctness against the native operators.
#[derive(Debug, Clone, Copy)]
pub struct FastDivmod {
    d: u32,
    m: u64,
    s: u32,
}

impl FastDivmod {
    /// Builds the magic pair for divisor `d` (clamped to ≥ 1).
    #[inline]
    pub fn new(d: u32) -> Self {
        let d = d.max(1);
        // Round-up magic: m = ceil(2^(32+s) / d) with s = ceil(log2 d).
        // The classic bound (Granlund–Montgomery) guarantees exactness
        // for all 32-bit numerators.
        let s = 32 - (d - 1).leading_zeros();
        let m = if d == 1 {
            // 2^64 does not fit; handled by the d == 1 fast path below.
            0
        } else {
            ((1u128 << (32 + s)).div_ceil(d as u128)) as u64
        };
        Self { d, m, s }
    }

    /// The divisor this instance was built for.
    #[inline]
    pub fn divisor(&self) -> u32 {
        self.d
    }

    /// `n / d` without a hardware divide.
    #[inline(always)]
    pub fn div(&self, n: u32) -> u32 {
        if self.d == 1 {
            return n;
        }
        ((n as u64 as u128 * self.m as u128) >> (32 + self.s)) as u32
    }

    /// `(n / d, n % d)` without a hardware divide.
    #[inline(always)]
    pub fn divmod(&self, n: u32) -> (u32, u32) {
        let q = self.div(n);
        (q, n - q * self.d)
    }
}

/// Length of one zero-padded staging plane for an `h`×`w` input with
/// `pad` rings of padding, **including the dead-lane slack tail**.
///
/// Tiles at the bottom/right plane edges still issue full `MR`×`NR`
/// accumulations; the lanes past the live output range read from the
/// slack region (zeros) and are discarded at writeback. The slack is
/// sized for the worst ragged read: `MR-1` extra rows and `NR-1` extra
/// columns at the maximum stride-scaled reach, plus the kernel span.
#[inline]
pub fn padded_plane_len(h: usize, w: usize, pad: usize, stride: usize, kernel: usize) -> usize {
    let wp = w + 2 * pad;
    let hp = h + 2 * pad;
    hp * wp + (MR - 1) * stride * wp + (NR - 1) * stride + kernel
}

/// Copies one `h`×`w` input plane into the zero-padded staging layout
/// described by [`padded_plane_len`]. `dst` must be zero-filled (or a
/// reused staging buffer from an identical geometry — the border is
/// never overwritten, so its zeros persist across reuse).
#[inline]
pub fn pad_plane_into(dst: &mut [f32], src: &[f32], h: usize, w: usize, pad: usize) {
    let wp = w + 2 * pad;
    for iy in 0..h {
        let at = (iy + pad) * wp + pad;
        let (Some(d), Some(s)) = (dst.get_mut(at..at + w), src.get(iy * w..iy * w + w)) else {
            return;
        };
        d.copy_from_slice(s);
    }
}

/// The accumulator block one tile accumulates into: `MR` rows of `NR`
/// f32 lanes, register-resident in the driver loop (see the module
/// docs for the no-dynamic-index contract that keeps it so).
pub type AccTile = [[f32; NR]; MR];

/// Geometry of one `MR`×`NR` output tile over a padded input plane:
/// which rows/columns of the output plane the accumulator block
/// covers, plus the padded-plane row stride needed to map a tap to
/// input coordinates. Padding is baked into the staging layout, so no
/// `pad` field: output `(oy, ox)` with tap `(ky, kx)` reads padded
/// element `(oy*stride + ky, ox*stride + kx)` unconditionally.
#[derive(Debug, Clone, Copy)]
pub struct Tile {
    /// Padded input plane row stride (`w + 2*pad`).
    pub wp: usize,
    /// First output row the tile covers.
    pub oy0: usize,
    /// Live rows (≤ [`MR`]; short at the plane's bottom edge — the
    /// remaining accumulator rows run over slack zeros and are
    /// discarded at writeback).
    pub mr: usize,
    /// First output column the tile covers.
    pub ox0: usize,
    /// Live lanes per row (≤ [`NR`]; short at the row's right edge).
    pub nr: usize,
    /// Convolution stride (same in both axes).
    pub stride: usize,
}

/// Expands the body once per literal index — source-level unrolling.
/// Loops over the accumulator block, even with static trip counts, are
/// not reliably promoted: LLVM's SROA pass runs before full loop
/// unrolling, sees the induction-variable GEPs into the alloca as
/// dynamic, and pins the block to the stack for good (unrolling later
/// makes the offsets constant, but SROA never reruns). Macro expansion
/// gives every accumulator index a compile-time constant *at MIR
/// level*, which is the contract SROA needs.
macro_rules! unroll {
    ($i:ident in [$($n:literal)*] $b:block) => {
        $( { let $i: usize = $n; $b } )*
    };
}
/// [`unroll!`] over the `MR` row indices.
macro_rules! unroll_mr {
    ($i:ident $b:block) => {
        unroll!($i in [0 1 2 3] $b)
    };
}
/// [`unroll!`] over the `NR` lane indices.
macro_rules! unroll_nr {
    ($i:ident $b:block) => {
        unroll!($i in [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15] $b)
    };
}
// The unroll macros are hand-expanded to the tile geometry; keep them
// honest if MR/NR ever change.
const _: () = assert!(
    MR == 4 && NR == 16,
    "unroll_mr/unroll_nr match the tile consts"
);

impl Tile {
    /// Adds `val * xp[oy*stride + ky][ox*stride + kx]` into every
    /// accumulator lane — all `MR`×`NR` of them, unconditionally; dead
    /// lanes read staged zeros. `xp` must be the padded plane slice
    /// from the tile's in-channel origin through the slack tail.
    #[inline(always)]
    fn accum_tap(&self, acc: &mut AccTile, xp: &[f32], ky: usize, kx: usize, val: f32) {
        let base = (self.oy0 * self.stride + ky) * self.wp + self.ox0 * self.stride + kx;
        if self.stride == 1 {
            unroll_mr!(r {
                let off = base + r * self.wp;
                // Slack sizing makes this infallible; `if let` (not an
                // early return) keeps the failure edge from extending
                // the accumulator's live range into a cold path. The
                // array view's length check folds away after the range
                // `get`; a `first_chunk` view measured ~20% slower.
                let xs = xp.get(off..off + NR).and_then(|s| <&[f32; NR]>::try_from(s).ok());
                if let Some(xs) = xs {
                    unroll_nr!(j {
                        acc[r][j] += val * xs[j];
                    });
                }
            });
        } else {
            unroll_mr!(r {
                let off = base + r * self.stride * self.wp;
                if let Some(row) = xp.get(off..off + (NR - 1) * self.stride + 1) {
                    unroll_nr!(j {
                        acc[r][j] += val * row[j * self.stride];
                    });
                }
            });
        }
    }
}

/// Accumulates one kernel's taps into the tile block, in the order
/// given: tap `t` adds `vals[t] * x[(oy*stride + ky_t, ox*stride +
/// kx_t)]` to every lane. Extra taps or values beyond the shorter of
/// the two slices are ignored.
#[inline(always)]
pub fn accum_taps(acc: &mut AccTile, xp: &[f32], tile: &Tile, taps: &[(u8, u8)], vals: &[f32]) {
    for (&(ky, kx), &val) in taps.iter().zip(vals) {
        tile.accum_tap(acc, xp, ky as usize, kx as usize, val);
    }
}

/// Writes the live part of a finished tile into the output plane with
/// the fused epilogue applied per row segment.
///
/// The block is first copied whole into a scratch block (a static,
/// full-width read — the accumulator's only escape), and the ragged
/// `mr`/`nr` slicing happens on the *scratch*: this is what keeps the
/// accumulator itself free of dynamically-indexed uses and therefore
/// register-promotable. `Epilogue::apply` is per-element with
/// channel-constant parameters, so applying it per row segment is
/// bit-identical to applying it to the whole plane.
#[inline(always)]
pub fn writeback(
    out_plane: &mut [f32],
    ow: usize,
    tile: &Tile,
    acc: &AccTile,
    oc: usize,
    epilogue: &Epilogue<'_>,
) {
    let scratch: AccTile = *acc;
    let nr = tile.nr.min(NR);
    for (r, row) in scratch.iter().enumerate().take(tile.mr.min(MR)) {
        let at = (tile.oy0 + r) * ow + tile.ox0;
        let Some(dst) = out_plane.get_mut(at..at + nr) else {
            continue;
        };
        dst.copy_from_slice(&row[..nr]);
        epilogue.apply(oc, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Epilogue;

    #[test]
    fn fast_divmod_matches_native_on_edges_and_random() {
        let divisors = [1u32, 2, 3, 5, 7, 9, 16, 27, 63, 64, 65, 1000, u32::MAX];
        let numerators = [
            0u32,
            1,
            2,
            8,
            9,
            63,
            64,
            65,
            12345,
            (1 << 16) - 1,
            1 << 16,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &d in &divisors {
            let f = FastDivmod::new(d);
            assert_eq!(f.divisor(), d);
            for &n in &numerators {
                assert_eq!(f.div(n), n / d, "div n={n} d={d}");
                assert_eq!(f.divmod(n), (n / d, n % d), "divmod n={n} d={d}");
            }
        }
        // Deterministic pseudo-random sweep (xorshift).
        let mut state = 0x9E3779B9u32;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let n = state;
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let d = state.max(1);
            let f = FastDivmod::new(d);
            assert_eq!(f.divmod(n), (n / d, n % d), "n={n} d={d}");
        }
    }

    #[test]
    fn divisor_zero_clamps_to_one() {
        let f = FastDivmod::new(0);
        assert_eq!(f.divisor(), 1);
        assert_eq!(f.divmod(42), (42, 0));
    }

    #[test]
    fn padded_plane_round_trips_and_borders_zero() {
        let (h, w, pad, stride, k) = (5usize, 7usize, 2usize, 1usize, 3usize);
        let src: Vec<f32> = (0..h * w).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![0.0f32; padded_plane_len(h, w, pad, stride, k)];
        pad_plane_into(&mut dst, &src, h, w, pad);
        let wp = w + 2 * pad;
        let hp = h + 2 * pad;
        for iy in 0..hp {
            for ix in 0..wp {
                let inside = iy >= pad && iy < pad + h && ix >= pad && ix < pad + w;
                let want = if inside {
                    src[(iy - pad) * w + (ix - pad)]
                } else {
                    0.0
                };
                assert_eq!(dst[iy * wp + ix], want, "iy={iy} ix={ix}");
            }
        }
        // Slack tail untouched.
        assert!(dst[hp * wp..].iter().all(|&v| v == 0.0));
    }

    /// Scalar reference: one output element at a time, taps in order,
    /// out-of-bounds taps skipped (the clip-and-skip chain the padded
    /// path must match bitwise).
    #[allow(clippy::too_many_arguments)]
    fn reference_row(
        w_in: usize,
        h_in: usize,
        w_out: usize,
        oy: usize,
        stride: usize,
        pad: usize,
        x_plane: &[f32],
        taps: &[(u8, u8)],
        vals: &[f32],
        bias: f32,
    ) -> Vec<f32> {
        (0..w_out)
            .map(|ox| {
                let mut acc = bias;
                for (t, &(ky, kx)) in taps.iter().enumerate() {
                    let iy = (oy * stride + ky as usize) as isize - pad as isize;
                    let ix = (ox * stride + kx as usize) as isize - pad as isize;
                    if iy >= 0 && iy < h_in as isize && ix >= 0 && ix < w_in as isize {
                        acc += vals[t] * x_plane[iy as usize * w_in + ix as usize];
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn tile_accumulation_bit_identical_to_scalar_reference() {
        let mut state = 0xC0FFEEu32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for &(h_in, w_in, stride, pad, k) in &[
            (7usize, 9usize, 1usize, 1usize, 3usize),
            (6, 6, 2, 1, 3),
            (5, 17, 1, 0, 3),
            (4, 33, 2, 0, 1),
            (19, 40, 1, 1, 3),
        ] {
            let w_out = (w_in + 2 * pad - k) / stride + 1;
            let h_out = (h_in + 2 * pad - k) / stride + 1;
            let x: Vec<f32> = (0..h_in * w_in)
                .map(|_| (next() % 2000) as f32 / 100.0 - 10.0)
                .collect();
            let mut xp = vec![0.0f32; padded_plane_len(h_in, w_in, pad, stride, k)];
            pad_plane_into(&mut xp, &x, h_in, w_in, pad);
            // All tap subsets of the k×k window, up to 9 taps.
            let all: Vec<(u8, u8)> = (0..k as u8)
                .flat_map(|ky| (0..k as u8).map(move |kx| (ky, kx)))
                .collect();
            for arity in 1..=all.len() {
                let taps: Vec<(u8, u8)> = all.iter().copied().take(arity).collect();
                let vals: Vec<f32> = (0..arity)
                    .map(|_| (next() % 1000) as f32 / 250.0 - 2.0)
                    .collect();
                let bias = (next() % 100) as f32 / 10.0;
                let want: Vec<Vec<f32>> = (0..h_out)
                    .map(|oy| {
                        reference_row(w_in, h_in, w_out, oy, stride, pad, &x, &taps, &vals, bias)
                    })
                    .collect();
                let mut got = vec![0.0f32; h_out * w_out];
                let mut oy0 = 0;
                while oy0 < h_out {
                    let mr = MR.min(h_out - oy0);
                    let mut ox0 = 0;
                    while ox0 < w_out {
                        let nr = NR.min(w_out - ox0);
                        let mut acc = [[bias; NR]; MR];
                        let tile = Tile {
                            wp: w_in + 2 * pad,
                            oy0,
                            mr,
                            ox0,
                            nr,
                            stride,
                        };
                        accum_taps(&mut acc, &xp, &tile, &taps, &vals);
                        writeback(
                            &mut got,
                            w_out,
                            &tile,
                            &acc,
                            0,
                            &Epilogue {
                                affine: None,
                                act: None,
                            },
                        );
                        ox0 += nr;
                    }
                    oy0 += mr;
                }
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        assert_eq!(
                            got[oy * w_out + ox].to_bits(),
                            want[oy][ox].to_bits(),
                            "h{h_in}w{w_in}s{stride}p{pad}k{k} arity={arity} oy={oy} ox={ox}"
                        );
                    }
                }
            }
        }
    }
}
