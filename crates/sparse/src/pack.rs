//! The kernel-major pack every sparse conv executor walks.
//!
//! A pack is a layer's per-output-channel kernel index, built once at
//! layer construction (load/plan time) and laid out kernel-major in
//! flat contiguous arrays: per output channel a half-open range of
//! pack entries, each entry naming its input channel, its tap-offset
//! slice, and its value slice. The executors walk slices — no
//! per-call allocation, no pointer-chasing through nested `Vec`s.
//!
//! One pack type serves both sparse formats. A pattern-compressed
//! layer's builder stores each pattern group's offsets once and lets
//! every member kernel share that slice; a COO layer's builder writes
//! each `(oc, ic)` run's own offsets. The executors cannot tell the
//! two apart: both are runtime tap lists.
//!
//! The pack fixes the **canonical accumulation order** every executor
//! (scalar reference, tiled, dense) follows: per output element the
//! chain is `bias`, then taps in ascending `(ic, ky, kx)` order.
//! Sharing one order is what makes the executors bit-identical to one
//! another (RV092) — f32 addition does not commute in rounding.
//!
//! Packs are *derived* data: bit-exact reconstruction against the
//! owning format's `to_dense()` is checked by RV090, and the builders
//! are total (out-of-range entries from corruption-fixture layers are
//! dropped, never panicked on — the executors additionally clip every
//! tap, so even a corrupt pack cannot index out of bounds).

use crate::format::{PatternGroup, UnstructuredSparseConv};
use rtoss_tensor::Tensor;

/// One pack entry: the surviving taps of one `(oc, ic)` kernel,
/// pointing at its offset slice and its value slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackEntry {
    /// Input channel the kernel reads.
    ic: u32,
    /// Tap count (length of both slices below).
    taps: u32,
    /// Start of the tap offsets in the pack's offset array.
    off: u32,
    /// Start of the tap values in the pack's value array.
    val: u32,
}

/// Flat kernel-major layout of a sparse conv layer.
///
/// Per output channel the entries are in canonical order (ascending
/// input channel, taps row-major within a kernel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelPack {
    /// Per output channel, the half-open `[start, end)` range into
    /// `entries`.
    oc_ranges: Vec<(u32, u32)>,
    entries: Vec<PackEntry>,
    /// Tap offsets as `(ky, kx)`: one slice per pattern group (shared
    /// by its member kernels) or one per COO run.
    offsets: Vec<(u8, u8)>,
    /// Kernel-major concatenated tap values.
    values: Vec<f32>,
}

/// Packs a tap coordinate, saturating offsets wider than `u8` —
/// execution clips every tap anyway, and `validate()`/RV010 reject
/// such layers before they are ever run.
fn tap(ky: usize, kx: usize) -> (u8, u8) {
    (ky.min(255) as u8, kx.min(255) as u8)
}

impl KernelPack {
    /// Builds the pack from pattern groups: each group's offsets are
    /// stored once and shared by every member kernel. Total: entries
    /// whose output channel is out of range are dropped
    /// (corruption-fixture layers).
    pub fn from_groups(out_ch: usize, groups: &[PatternGroup]) -> Self {
        // Pass 1: store each group's offsets once and stage every
        // kernel under its output channel.
        // (ic, taps, offset-table start, borrowed kernel values)
        type Staged<'a> = (u32, u32, u32, &'a [f32]);
        let mut offsets = Vec::new();
        let mut staged: Vec<Vec<Staged>> = vec![Vec::new(); out_ch];
        for g in groups {
            let off = offsets.len() as u32;
            offsets.extend(g.offsets.iter().map(|&(ky, kx)| tap(ky, kx)));
            for (oc, ic, values) in &g.kernels {
                let Some(list) = staged.get_mut(*oc) else {
                    continue;
                };
                let taps = (g.offsets.len() as u32).min(values.len() as u32);
                list.push((*ic as u32, taps, off, values.as_slice()));
            }
        }
        // Pass 2: canonical (ic-ascending, stable) order per oc, then
        // lay values down kernel-major in that final order.
        let mut pack = KernelPack {
            offsets,
            ..KernelPack::default()
        };
        for ocs in &mut staged {
            ocs.sort_by_key(|&(ic, _, _, _)| ic); // stable: ties keep group order
            let start = pack.entries.len() as u32;
            for &(ic, taps, off, vals) in ocs.iter() {
                let val = pack.values.len() as u32;
                pack.values.extend_from_slice(&vals[..taps as usize]);
                pack.entries.push(PackEntry { ic, taps, off, val });
            }
            pack.oc_ranges.push((start, pack.entries.len() as u32));
        }
        pack
    }

    /// Builds the pack from COO entries in their stored order (the
    /// RV013 invariant makes that the canonical `(oc, ic, ky, kx)`
    /// order for valid layers). Consecutive entries of one `(oc, ic)`
    /// pair merge into one pack entry with its own offsets. Total:
    /// out-of-range output channels are dropped.
    pub fn from_coo(out_ch: usize, entries: &[(usize, usize, usize, usize, f32)]) -> Self {
        let mut per_oc: Vec<Vec<(usize, usize, usize, f32)>> = vec![Vec::new(); out_ch];
        for &(oc, ic, ky, kx, v) in entries {
            if let Some(list) = per_oc.get_mut(oc) {
                list.push((ic, ky, kx, v));
            }
        }
        let mut pack = KernelPack::default();
        for list in &per_oc {
            let start = pack.entries.len() as u32;
            for &(ic, ky, kx, v) in list {
                let open = pack.entries.len() as u32 > start;
                match pack.entries.last_mut() {
                    Some(e) if open && e.ic as usize == ic => e.taps += 1,
                    _ => pack.entries.push(PackEntry {
                        ic: ic as u32,
                        taps: 1,
                        off: pack.offsets.len() as u32,
                        val: pack.values.len() as u32,
                    }),
                }
                pack.offsets.push(tap(ky, kx));
                pack.values.push(v);
            }
            pack.oc_ranges.push((start, pack.entries.len() as u32));
        }
        pack
    }

    /// Iterates one output channel's kernels in canonical order as
    /// `(ic, taps, vals)` slices. Out-of-range `oc` yields nothing.
    #[inline]
    pub fn oc_kernels(&self, oc: usize) -> impl Iterator<Item = (usize, &[(u8, u8)], &[f32])> + '_ {
        let (start, end) = self.oc_ranges.get(oc).copied().unwrap_or((0, 0));
        self.entries[start as usize..end as usize].iter().map(|e| {
            let taps = e.taps as usize;
            (
                e.ic as usize,
                &self.offsets[e.off as usize..e.off as usize + taps],
                &self.values[e.val as usize..e.val as usize + taps],
            )
        })
    }

    /// Total packed kernel count.
    pub fn kernel_count(&self) -> usize {
        self.entries.len()
    }

    /// Total packed value count.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Reconstructs the dense weight tensor from the pack alone —
    /// RV090 bit-compares this against the owning layer's
    /// `to_dense()`. Out-of-bounds coordinates are skipped (total on
    /// corrupt layers).
    pub fn to_dense(&self, out_ch: usize, in_ch: usize, kernel: usize) -> Tensor {
        let mut w = Tensor::zeros(&[out_ch, in_ch, kernel, kernel]);
        let wd = w.as_mut_slice();
        for oc in 0..out_ch {
            for (ic, taps, vals) in self.oc_kernels(oc) {
                if ic >= in_ch {
                    continue;
                }
                for (&(ky, kx), &v) in taps.iter().zip(vals) {
                    let (ky, kx) = (ky as usize, kx as usize);
                    if ky < kernel && kx < kernel {
                        wd[((oc * in_ch + ic) * kernel + ky) * kernel + kx] = v;
                    }
                }
            }
        }
        w
    }

    /// Mutable access to the packed values. Corruption-fixture hook:
    /// lets `rtoss-verify` seed a pack/dense divergence that RV090 and
    /// RV092 must catch. Never use outside tests/fixtures.
    #[doc(hidden)]
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }
}

/// Derives the COO form of a pattern-compressed layer in canonical
/// `(oc, ic, ky, kx)` order — the unstructured baseline the benches and
/// RV092 run the same weights through.
pub fn coo_from_pattern(layer: &crate::format::PatternCompressedConv) -> UnstructuredSparseConv {
    let mut entries = Vec::with_capacity(layer.stored_weights());
    for g in layer.groups() {
        for (oc, ic, values) in &g.kernels {
            for (&(ky, kx), &v) in g.offsets.iter().zip(values) {
                if v != 0.0 {
                    entries.push((*oc, *ic, ky, kx, v));
                }
            }
        }
    }
    entries.sort_by_key(|&(oc, ic, ky, kx, _)| (oc, ic, ky, kx));
    UnstructuredSparseConv::from_entries(
        layer.out_channels(),
        layer.in_channels(),
        layer.kernel_size(),
        layer.stride(),
        layer.padding(),
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PatternCompressedConv;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::init;

    fn pruned(k_entries: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[8, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn pattern_pack_reconstructs_dense_bitwise() {
        for k_entries in [2usize, 3, 4] {
            let w = pruned(k_entries, 40 + k_entries as u64);
            let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
            let rebuilt = pc.pack().to_dense(8, 4, 3);
            assert_eq!(rebuilt.as_slice(), w.as_slice(), "{k_entries}EP");
        }
    }

    #[test]
    fn pattern_pack_is_ic_sorted_per_oc() {
        let w = pruned(3, 47);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        for oc in 0..8 {
            let ics: Vec<usize> = pc.pack().oc_kernels(oc).map(|(ic, _, _)| ic).collect();
            let mut sorted = ics.clone();
            sorted.sort_unstable();
            assert_eq!(ics, sorted, "oc {oc}");
        }
    }

    #[test]
    fn coo_pack_reconstructs_dense_bitwise_and_runs_are_grouped() {
        let w = pruned(2, 48);
        let un = crate::format::UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        let pack = KernelPack::from_coo(8, un.entries());
        assert_eq!(pack.to_dense(8, 4, 3).as_slice(), w.as_slice());
        assert_eq!(pack.value_count(), un.entries().len());
        for oc in 0..8 {
            let ics: Vec<usize> = pack.oc_kernels(oc).map(|(ic, _, _)| ic).collect();
            // Valid layers are (oc, ic, …)-sorted, so runs merge: each
            // ic appears in at most one run per oc.
            let mut dedup = ics.clone();
            dedup.dedup();
            assert_eq!(ics, dedup, "oc {oc}");
        }
    }

    #[test]
    fn builders_total_on_corrupt_coordinates() {
        let groups = vec![PatternGroup {
            offsets: vec![(9, 0), (300, 300)],
            kernels: vec![(99, 7, vec![1.0, 2.0]), (0, 99, vec![3.0, 4.0])],
        }];
        let pack = KernelPack::from_groups(2, &groups);
        assert_eq!(pack.kernel_count(), 1); // oc 99 dropped
        let _ = pack.to_dense(2, 1, 3); // out-of-range ic/taps skipped
        let coo = KernelPack::from_coo(2, &[(5, 0, 0, 0, 1.0), (0, 9, 400, 0, 2.0)]);
        assert_eq!(coo.value_count(), 1);
        let _ = coo.to_dense(2, 1, 3);
    }

    #[test]
    fn coo_from_pattern_is_valid_and_matches_dense() {
        let w = pruned(3, 49);
        let pc = PatternCompressedConv::from_dense(&w, 2, 1).unwrap();
        let un = coo_from_pattern(&pc);
        assert!(un.validate().is_empty());
        assert_eq!(un.to_dense().as_slice(), w.as_slice());
        assert_eq!(un.stride(), 2);
    }
}
