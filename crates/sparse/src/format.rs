//! Compressed storage formats for pruned convolution weights.

use crate::pack::KernelPack;
use rtoss_tensor::Tensor;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error produced when building a sparse format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseFormatError {
    /// The dense weight tensor has the wrong rank or spatial extent.
    BadShape {
        /// Offending shape.
        shape: Vec<usize>,
    },
}

impl fmt::Display for SparseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseFormatError::BadShape { shape } => {
                write!(
                    f,
                    "expected rank-4 square-kernel conv weights, got {shape:?}"
                )
            }
        }
    }
}

impl Error for SparseFormatError {}

/// One structural-invariant violation found by a format `validate()`.
///
/// `code` is a stable diagnostic identifier from the RV0xx registry
/// (see DESIGN.md §9); the `rtoss-verify` crate wraps these into full
/// [`Diagnostic`]s with location context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatViolation {
    /// Stable diagnostic code (e.g. `"RV010"`).
    pub code: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl FormatViolation {
    fn new(code: &'static str, message: String) -> Self {
        FormatViolation { code, message }
    }
}

impl fmt::Display for FormatViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One group of kernels sharing the same non-zero pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGroup {
    /// The shared non-zero cells as `(ky, kx)` offsets, row-major.
    pub offsets: Vec<(usize, usize)>,
    /// Member kernels: `(out_channel, in_channel, values)` where
    /// `values[i]` belongs to `offsets[i]`.
    pub kernels: Vec<(usize, usize, Vec<f32>)>,
}

/// A pruned conv layer stored grouped by kernel pattern.
///
/// Kernels that are entirely zero are dropped (they cost nothing at
/// inference — the "skipping" the paper's §II.B describes).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternCompressedConv {
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: Vec<PatternGroup>,
    dense_weights: usize,
    stored_weights: usize,
    /// Kernel-major execution layout, derived from `groups` at
    /// construction so no forward call pays the indexing cost.
    pack: KernelPack,
}

impl PatternCompressedConv {
    /// Builds the compressed form from a (masked) dense weight
    /// `(O, I, k, k)`. Zero cells are dropped; kernels are grouped by
    /// their surviving-cell pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let shape = w.shape();
        if shape.len() != 4 || shape[2] != shape[3] {
            return Err(SparseFormatError::BadShape {
                shape: shape.to_vec(),
            });
        }
        let (o, i, k) = (shape[0], shape[1], shape[2]);
        let kk = k * k;
        let wd = w.as_slice();
        // Group kernels by their non-zero bitmask.
        let mut by_pattern: BTreeMap<u64, PatternGroup> = BTreeMap::new();
        let mut stored = 0usize;
        for oc in 0..o {
            for ic in 0..i {
                let base = (oc * i + ic) * kk;
                let cells = &wd[base..base + kk];
                let mut bits = 0u64;
                for (ci, &v) in cells.iter().enumerate() {
                    if v != 0.0 {
                        bits |= 1 << ci;
                    }
                }
                if bits == 0 {
                    continue; // fully pruned kernel: skipped entirely
                }
                let entry = by_pattern.entry(bits).or_insert_with(|| PatternGroup {
                    offsets: (0..kk)
                        .filter(|ci| bits & (1 << ci) != 0)
                        .map(|ci| (ci / k, ci % k))
                        .collect(),
                    kernels: Vec::new(),
                });
                let values: Vec<f32> = entry
                    .offsets
                    .iter()
                    .map(|&(ky, kx)| cells[ky * k + kx])
                    .collect();
                stored += values.len();
                entry.kernels.push((oc, ic, values));
            }
        }
        let groups: Vec<PatternGroup> = by_pattern.into_values().collect();
        let pack = KernelPack::from_groups(o, &groups);
        Ok(PatternCompressedConv {
            out_ch: o,
            in_ch: i,
            kernel: k,
            stride,
            pad,
            groups,
            dense_weights: o * i * kk,
            stored_weights: stored,
            pack,
        })
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Kernel extent.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// The pattern groups.
    pub fn groups(&self) -> &[PatternGroup] {
        &self.groups
    }

    /// Number of distinct patterns in use.
    pub fn pattern_count(&self) -> usize {
        self.groups.len()
    }

    /// Stored (non-zero) weight count.
    pub fn stored_weights(&self) -> usize {
        self.stored_weights
    }

    /// Dense-to-stored weight ratio (the paper's compression metric).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_weights == 0 {
            f64::INFINITY
        } else {
            self.dense_weights as f64 / self.stored_weights as f64
        }
    }

    /// Assembles a compressed layer directly from pattern groups
    /// *without* checking any invariant.
    ///
    /// This is the deserialization/testing escape hatch paired with
    /// [`PatternCompressedConv::validate`]: [`from_dense`] is valid by
    /// construction, but artifacts loaded from outside the process (or
    /// corruption fixtures in tests) are not. Always run `validate()`
    /// on a layer built this way before executing it.
    ///
    /// [`from_dense`]: PatternCompressedConv::from_dense
    pub fn from_parts(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: Vec<PatternGroup>,
    ) -> Self {
        let stored = groups
            .iter()
            .flat_map(|g| g.kernels.iter())
            .map(|(_, _, v)| v.len())
            .sum();
        let pack = KernelPack::from_groups(out_ch, &groups);
        PatternCompressedConv {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            groups,
            dense_weights: out_ch * in_ch * kernel * kernel,
            stored_weights: stored,
            pack,
        }
    }

    /// The kernel-major execution pack derived from the groups at
    /// construction. RV090 proves it reconstructs `to_dense()`
    /// bit-exactly.
    pub fn pack(&self) -> &KernelPack {
        &self.pack
    }

    /// Mutable pack access — corruption-fixture hook for the RV090/
    /// RV092 seeded fixtures. Never use outside tests/fixtures: a
    /// mutated pack no longer agrees with the groups it was derived
    /// from.
    #[doc(hidden)]
    pub fn pack_mut(&mut self) -> &mut KernelPack {
        &mut self.pack
    }

    /// Checks every structural invariant the sparse executor relies on,
    /// returning one [`FormatViolation`] per breach (empty = valid).
    ///
    /// Invariants, with their RV0xx codes:
    /// - **RV010** — group offsets are non-empty, strictly increasing in
    ///   row-major `(ky, kx)` order, in-bounds for the kernel extent,
    ///   and no two groups share the same pattern;
    /// - **RV011** — kernel coordinates `(oc, ic)` are in-bounds, appear
    ///   at most once across all groups, and each kernel carries exactly
    ///   one value per offset;
    /// - **RV012** — `stored_weights` equals the values actually held
    ///   and no stored value is zero (zeros must be *dropped*, or the
    ///   compression ratio lies).
    pub fn validate(&self) -> Vec<FormatViolation> {
        let mut out = Vec::new();
        let k = self.kernel;
        let mut seen_patterns = std::collections::BTreeSet::new();
        let mut seen_kernels = std::collections::BTreeSet::new();
        let mut stored = 0usize;
        for (gi, g) in self.groups.iter().enumerate() {
            if g.offsets.is_empty() {
                out.push(FormatViolation::new(
                    "RV010",
                    format!("group {gi}: empty offset pattern"),
                ));
            }
            for w in g.offsets.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a.0 * k + a.1 >= b.0 * k + b.1 {
                    out.push(FormatViolation::new(
                        "RV010",
                        format!("group {gi}: offsets not strictly row-major sorted at {a:?},{b:?}"),
                    ));
                }
            }
            for &(ky, kx) in &g.offsets {
                if ky >= k || kx >= k {
                    out.push(FormatViolation::new(
                        "RV010",
                        format!("group {gi}: offset ({ky},{kx}) out of bounds for kernel {k}"),
                    ));
                }
            }
            if !seen_patterns.insert(g.offsets.clone()) {
                out.push(FormatViolation::new(
                    "RV010",
                    format!("group {gi}: duplicate pattern {:?}", g.offsets),
                ));
            }
            for &(oc, ic, ref values) in &g.kernels {
                if oc >= self.out_ch || ic >= self.in_ch {
                    out.push(FormatViolation::new(
                        "RV011",
                        format!(
                            "group {gi}: kernel ({oc},{ic}) out of bounds for {}x{} layer",
                            self.out_ch, self.in_ch
                        ),
                    ));
                }
                if !seen_kernels.insert((oc, ic)) {
                    out.push(FormatViolation::new(
                        "RV011",
                        format!("kernel ({oc},{ic}) stored more than once"),
                    ));
                }
                if values.len() != g.offsets.len() {
                    out.push(FormatViolation::new(
                        "RV011",
                        format!(
                            "group {gi}: kernel ({oc},{ic}) has {} values for {} offsets",
                            values.len(),
                            g.offsets.len()
                        ),
                    ));
                }
                if values.contains(&0.0) {
                    out.push(FormatViolation::new(
                        "RV012",
                        format!("group {gi}: kernel ({oc},{ic}) stores an explicit zero"),
                    ));
                }
                stored += values.len();
            }
        }
        if stored != self.stored_weights {
            out.push(FormatViolation::new(
                "RV012",
                format!(
                    "stored_weights bookkeeping says {} but {} values are held",
                    self.stored_weights, stored
                ),
            ));
        }
        if self.dense_weights != self.out_ch * self.in_ch * k * k {
            out.push(FormatViolation::new(
                "RV012",
                format!(
                    "dense_weights bookkeeping says {} for a {}x{}x{k}x{k} layer",
                    self.dense_weights, self.out_ch, self.in_ch
                ),
            ));
        }
        out
    }

    /// Reconstructs the dense weight tensor (for verification).
    pub fn to_dense(&self) -> Tensor {
        let k = self.kernel;
        let mut w = Tensor::zeros(&[self.out_ch, self.in_ch, k, k]);
        let wd = w.as_mut_slice();
        for g in &self.groups {
            for (oc, ic, values) in &g.kernels {
                let base = (oc * self.in_ch + ic) * k * k;
                for (&(ky, kx), &v) in g.offsets.iter().zip(values.iter()) {
                    wd[base + ky * k + kx] = v;
                }
            }
        }
        w
    }
}

/// A pruned conv layer stored as per-weight COO triples — the
/// *unstructured* layout whose irregular access the paper contrasts
/// against pattern grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct UnstructuredSparseConv {
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// `(oc, ic, ky, kx, value)` for every surviving weight.
    entries: Vec<(usize, usize, usize, usize, f32)>,
    dense_weights: usize,
    /// Kernel-major execution pack, derived from `entries` at
    /// construction (see [`KernelPack::from_coo`]).
    pack: KernelPack,
}

impl UnstructuredSparseConv {
    /// Builds the COO form from a (masked) dense weight `(O, I, k, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::BadShape`] if the weight is not
    /// rank 4 with square kernels.
    pub fn from_dense(w: &Tensor, stride: usize, pad: usize) -> Result<Self, SparseFormatError> {
        let shape = w.shape();
        if shape.len() != 4 || shape[2] != shape[3] {
            return Err(SparseFormatError::BadShape {
                shape: shape.to_vec(),
            });
        }
        let (o, i, k) = (shape[0], shape[1], shape[2]);
        let mut entries = Vec::new();
        for oc in 0..o {
            for ic in 0..i {
                for ky in 0..k {
                    for kx in 0..k {
                        let v = w.at(&[oc, ic, ky, kx]);
                        if v != 0.0 {
                            entries.push((oc, ic, ky, kx, v));
                        }
                    }
                }
            }
        }
        let pack = KernelPack::from_coo(o, &entries);
        Ok(UnstructuredSparseConv {
            out_ch: o,
            in_ch: i,
            kernel: k,
            stride,
            pad,
            entries,
            dense_weights: o * i * k * k,
            pack,
        })
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Kernel extent.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.pad
    }

    /// The COO entries.
    pub fn entries(&self) -> &[(usize, usize, usize, usize, f32)] {
        &self.entries
    }

    /// Assembles a COO layer directly from entries *without* checking
    /// any invariant — the deserialization/testing escape hatch paired
    /// with [`UnstructuredSparseConv::validate`].
    pub fn from_entries(
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        entries: Vec<(usize, usize, usize, usize, f32)>,
    ) -> Self {
        let pack = KernelPack::from_coo(out_ch, &entries);
        UnstructuredSparseConv {
            out_ch,
            in_ch,
            kernel,
            stride,
            pad,
            entries,
            dense_weights: out_ch * in_ch * kernel * kernel,
            pack,
        }
    }

    /// The kernel-major execution pack derived from the entries at
    /// construction. RV090 proves it reconstructs `to_dense()`
    /// bit-exactly.
    pub fn pack(&self) -> &KernelPack {
        &self.pack
    }

    /// Mutable pack access — corruption-fixture hook, the COO twin of
    /// [`PatternCompressedConv::pack_mut`]. Never use outside
    /// tests/fixtures.
    #[doc(hidden)]
    pub fn pack_mut(&mut self) -> &mut KernelPack {
        &mut self.pack
    }

    /// Checks the COO invariants the unstructured executor relies on,
    /// returning one [`FormatViolation`] per breach (empty = valid).
    ///
    /// All violations carry code **RV013**: entries must be in-bounds,
    /// strictly sorted in `(oc, ic, ky, kx)` lexicographic order (which
    /// also rules out duplicates), and must not store explicit zeros.
    pub fn validate(&self) -> Vec<FormatViolation> {
        let mut out = Vec::new();
        let k = self.kernel;
        for &(oc, ic, ky, kx, v) in &self.entries {
            if oc >= self.out_ch || ic >= self.in_ch || ky >= k || kx >= k {
                out.push(FormatViolation::new(
                    "RV013",
                    format!(
                        "entry ({oc},{ic},{ky},{kx}) out of bounds for {}x{}x{k}x{k} layer",
                        self.out_ch, self.in_ch
                    ),
                ));
            }
            if v == 0.0 {
                out.push(FormatViolation::new(
                    "RV013",
                    format!("entry ({oc},{ic},{ky},{kx}) stores an explicit zero"),
                ));
            }
        }
        for w in self.entries.windows(2) {
            let a = (w[0].0, w[0].1, w[0].2, w[0].3);
            let b = (w[1].0, w[1].1, w[1].2, w[1].3);
            if a >= b {
                out.push(FormatViolation::new(
                    "RV013",
                    format!("entries not strictly sorted at {a:?},{b:?}"),
                ));
            }
        }
        if self.dense_weights != self.out_ch * self.in_ch * k * k {
            out.push(FormatViolation::new(
                "RV013",
                format!(
                    "dense_weights bookkeeping says {} for a {}x{}x{k}x{k} layer",
                    self.dense_weights, self.out_ch, self.in_ch
                ),
            ));
        }
        out
    }

    /// Reconstructs the dense weight tensor (for verification).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds entries; run
    /// [`UnstructuredSparseConv::validate`] first on untrusted layers.
    pub fn to_dense(&self) -> Tensor {
        let k = self.kernel;
        let mut w = Tensor::zeros(&[self.out_ch, self.in_ch, k, k]);
        let wd = w.as_mut_slice();
        for &(oc, ic, ky, kx, v) in &self.entries {
            wd[((oc * self.in_ch + ic) * k + ky) * k + kx] = v;
        }
        w
    }

    /// Dense-to-stored weight ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            f64::INFINITY
        } else {
            self.dense_weights as f64 / self.entries.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::pattern::canonical_set;
    use rtoss_core::prune3x3::prune_3x3_weights;
    use rtoss_tensor::init;

    fn pruned_weight(k_entries: usize, seed: u64) -> Tensor {
        let mut w = init::uniform(&mut init::rng(seed), &[8, 4, 3, 3], -1.0, 1.0);
        let set = canonical_set(k_entries).unwrap();
        prune_3x3_weights(&mut w, &set).unwrap();
        w
    }

    #[test]
    fn round_trip_to_dense() {
        let w = pruned_weight(3, 1);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(pc.to_dense(), w);
    }

    #[test]
    fn compression_matches_entry_count() {
        let w = pruned_weight(2, 2);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert!((pc.compression_ratio() - 4.5).abs() < 1e-9);
        assert_eq!(pc.stored_weights(), 8 * 4 * 2);
    }

    #[test]
    fn pattern_count_bounded_by_working_set() {
        let w = pruned_weight(2, 3);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        // At most the 12 canonical 2EP patterns can appear.
        assert!(pc.pattern_count() <= 12, "{} patterns", pc.pattern_count());
        assert!(pc.pattern_count() >= 2);
    }

    #[test]
    fn fully_zero_kernels_are_dropped() {
        let mut w = pruned_weight(2, 4);
        // Zero out kernel (0, *) entirely.
        for ic in 0..4 {
            for c in 0..9 {
                let base = ic * 9;
                w.as_mut_slice()[base + c] = 0.0;
            }
        }
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        for g in pc.groups() {
            for k in &g.kernels {
                assert_ne!(k.0, 0, "zeroed kernel (0, {}) still stored", k.1);
            }
        }
        assert_eq!(pc.to_dense(), w);
    }

    #[test]
    fn unstructured_preserves_every_nonzero() {
        let w = pruned_weight(3, 5);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(un.entries().len(), w.numel() - w.count_zeros());
        for &(oc, ic, ky, kx, v) in un.entries() {
            assert_eq!(w.at(&[oc, ic, ky, kx]), v);
        }
    }

    #[test]
    fn bad_shapes_rejected() {
        let w = Tensor::zeros(&[2, 2, 3, 5]);
        assert!(PatternCompressedConv::from_dense(&w, 1, 1).is_err());
        assert!(UnstructuredSparseConv::from_dense(&w, 1, 1).is_err());
        let w = Tensor::zeros(&[2, 2, 3]);
        assert!(PatternCompressedConv::from_dense(&w, 1, 1).is_err());
    }

    #[test]
    fn validate_passes_on_from_dense_output() {
        let w = pruned_weight(3, 7);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        assert!(pc.validate().is_empty());
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert!(un.validate().is_empty());
    }

    #[test]
    fn validate_catches_seeded_corruption() {
        let codes = |vs: &[FormatViolation]| {
            vs.iter()
                .map(|v| v.code)
                .collect::<std::collections::BTreeSet<_>>()
        };
        // Unsorted + out-of-bounds offsets (RV010), duplicate kernel and
        // value-count mismatch (RV011), stored zero (RV012).
        let bad = PatternCompressedConv::from_parts(
            2,
            1,
            3,
            1,
            1,
            vec![
                PatternGroup {
                    offsets: vec![(1, 1), (0, 0), (3, 0)],
                    kernels: vec![(0, 0, vec![1.0, 2.0, 3.0]), (0, 0, vec![1.0, 0.0, 3.0])],
                },
                PatternGroup {
                    offsets: vec![(0, 1)],
                    kernels: vec![(5, 0, vec![1.0, 2.0])],
                },
            ],
        );
        let vs = bad.validate();
        let cs = codes(&vs);
        assert!(cs.contains("RV010"), "{vs:?}");
        assert!(cs.contains("RV011"), "{vs:?}");
        assert!(cs.contains("RV012"), "{vs:?}");

        // COO: out-of-bounds, unsorted duplicate, explicit zero (RV013).
        let bad = UnstructuredSparseConv::from_entries(
            2,
            2,
            3,
            1,
            1,
            vec![(0, 0, 1, 1, 2.0), (0, 0, 1, 1, 0.0), (9, 0, 0, 0, 1.0)],
        );
        let vs = bad.validate();
        assert!(codes(&vs).contains("RV013"), "{vs:?}");
        assert!(vs.len() >= 3, "{vs:?}");
    }

    #[test]
    fn unstructured_to_dense_round_trips() {
        let w = pruned_weight(2, 8);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        assert_eq!(un.to_dense(), w);
    }

    #[test]
    fn one_by_one_kernels_supported() {
        let mut w = init::uniform(&mut init::rng(6), &[6, 6, 1, 1], -1.0, 1.0);
        // Manually sparsify.
        for i in (0..36).step_by(3) {
            w.as_mut_slice()[i] = 0.0;
        }
        let pc = PatternCompressedConv::from_dense(&w, 1, 0).unwrap();
        assert_eq!(pc.to_dense(), w);
    }
}
