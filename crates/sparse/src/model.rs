//! Whole-model sparse inference engine.
//!
//! Compiles a pruned [`Graph`](rtoss_nn::Graph) into a standalone
//! executor whose convolution layers run through the pattern-grouped
//! sparse path ([`exec::conv2d_pattern_sparse`](crate::exec)) with
//! batch-norm folded into per-channel scale/shift. This is the
//! "deployment" artefact of the paper's pipeline: the model a Jetson
//! would actually run after R-TOSS pruning, and the source of the
//! end-to-end measured speedups in the `fig6` harness.

use crate::exec::conv2d_pattern_sparse_with;
use crate::format::{FormatViolation, PatternCompressedConv};
use crate::plan::{ExecutionPlan, PlanSummary};
use rtoss_nn::layers::ActivationKind;
use rtoss_nn::{Graph, NodeOp};
use rtoss_tensor::exec::ExecConfig;
use rtoss_tensor::{ops, Tensor, TensorError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// Error produced when compiling or running a [`SparseModel`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SparseModelError {
    /// The graph contains a layer kind the engine cannot compile.
    Unsupported {
        /// Node name.
        node: String,
        /// Description of the unsupported construct.
        msg: String,
    },
    /// A tensor operation failed at inference time.
    Tensor(TensorError),
}

impl fmt::Display for SparseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseModelError::Unsupported { node, msg } => {
                write!(f, "cannot compile node {node:?}: {msg}")
            }
            SparseModelError::Tensor(e) => write!(f, "sparse inference failed: {e}"),
        }
    }
}

impl Error for SparseModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SparseModelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SparseModelError {
    fn from(e: TensorError) -> Self {
        SparseModelError::Tensor(e)
    }
}

/// One compiled operation of the sparse engine.
#[derive(Debug)]
pub(crate) enum SparseOp {
    Input,
    /// Sparse convolution with optional folded per-channel scale/shift
    /// (from a following BatchNorm) — bias is pre-folded too.
    Conv {
        layer: PatternCompressedConv,
        bias: Vec<f32>,
    },
    /// Per-channel affine `y = scale_c * x + shift_c` (unfused BN).
    ChannelAffine {
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    Activation(ActivationKind),
    MaxPool {
        k: usize,
        stride: usize,
        pad: usize,
    },
    Upsample2x,
    Add,
    Concat,
}

/// A node of the compiled engine.
#[derive(Debug)]
pub(crate) struct SparseNode {
    /// Source graph node name, carried through compilation so per-layer
    /// trace spans and profiles attribute time to recognizable layers.
    pub(crate) name: String,
    pub(crate) op: SparseOp,
    pub(crate) inputs: Vec<usize>,
}

impl SparseNode {
    pub(crate) fn kind(&self) -> &'static str {
        match &self.op {
            SparseOp::Input => "input",
            SparseOp::Conv { .. } => "conv",
            SparseOp::ChannelAffine { .. } => "channel_affine",
            SparseOp::Activation(_) => "activation",
            SparseOp::MaxPool { .. } => "maxpool",
            SparseOp::Upsample2x => "upsample2x",
            SparseOp::Add => "add",
            SparseOp::Concat => "concat",
        }
    }

    /// Opens the `layer:<name>` trace span for executing this node.
    /// Name and args are built lazily — nothing allocates unless the
    /// span is actually recorded.
    fn trace_span(&self, idx: usize, exec: &ExecConfig) -> rtoss_obs::SpanGuard {
        rtoss_obs::span_lazy(|| {
            use rtoss_obs::ArgValue;
            let mut args = vec![
                ("node", ArgValue::U64(idx as u64)),
                ("kind", ArgValue::Static(self.kind())),
                ("threads", ArgValue::U64(exec.threads as u64)),
            ];
            if let SparseOp::Conv { layer, .. } = &self.op {
                args.push(("oc", ArgValue::U64(layer.out_channels() as u64)));
                args.push(("ic", ArgValue::U64(layer.in_channels() as u64)));
                args.push(("k", ArgValue::U64(layer.kernel_size() as u64)));
                args.push(("nnz", ArgValue::U64(layer.stored_weights() as u64)));
            }
            (format!("layer:{}", self.name), args)
        })
    }
}

/// A compiled sparse inference engine for a pruned detector graph.
///
/// # Example
///
/// ```
/// use rtoss_sparse::SparseModel;
/// use rtoss_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut model = rtoss_models::yolov5s_twin(4, 2, 1)?;
/// use rtoss_core::{EntryPattern, Pruner, RTossPruner};
/// RTossPruner::new(EntryPattern::Two).prune_graph(&mut model.graph)?;
/// let engine = SparseModel::compile(&model.graph)?;
/// let x = Tensor::zeros(&[1, 3, 64, 64]);
/// let sparse_out = engine.forward(&x)?;
/// let dense_out = model.graph.forward(&x)?;
/// assert_eq!(sparse_out[0].shape(), dense_out[0].shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SparseModel {
    /// `Arc`ed (and never mutated after compile) so planned runs can
    /// hand `'static` tasks referencing the nodes to the worker pool.
    pub(crate) nodes: Arc<Vec<SparseNode>>,
    pub(crate) outputs: Vec<usize>,
    /// Per-node consumer count: occurrences in later nodes' input lists
    /// plus occurrences in the output list. Drives last-use activation
    /// dropping in the interpreter and liveness analysis in the plan
    /// compiler.
    pub(crate) uses: Vec<usize>,
    stored_weights: usize,
    dense_weights: usize,
    exec: ExecConfig,
    /// Compiled plans keyed by input shape. A batched forward with a new
    /// batch size plans once, then reuses the plan for every later call
    /// with that shape — the serving layer's micro-batch worker never
    /// re-plans on the hot path.
    plans: RwLock<HashMap<Vec<usize>, Arc<ExecutionPlan>>>,
}

impl SparseModel {
    /// Compiles a (pruned or dense) graph into the sparse engine.
    ///
    /// Batch-norm layers are converted to channel affines using their
    /// *running* statistics, so the engine reproduces the graph's
    /// evaluation-mode behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`SparseModelError::Unsupported`] for layer kinds outside
    /// the detector vocabulary (conv/BN/activation/pool/upsample/
    /// add/concat).
    pub fn compile(graph: &Graph) -> Result<Self, SparseModelError> {
        let mut nodes = Vec::with_capacity(graph.len());
        let mut stored = 0usize;
        let mut dense = 0usize;
        for n in graph.nodes() {
            let op = match &n.op {
                NodeOp::Input => SparseOp::Input,
                NodeOp::Add => SparseOp::Add,
                NodeOp::Concat => SparseOp::Concat,
                NodeOp::Layer(l) => {
                    if let Some(conv) = l.as_conv2d() {
                        let w = &conv.weight().value;
                        let layer =
                            PatternCompressedConv::from_dense(w, conv.stride(), conv.padding())
                                .map_err(|e| SparseModelError::Unsupported {
                                    node: n.name.clone(),
                                    msg: e.to_string(),
                                })?;
                        stored += layer.stored_weights();
                        dense += w.numel();
                        SparseOp::Conv {
                            layer,
                            bias: conv.bias().value.as_slice().to_vec(),
                        }
                    } else if let Some(bn) = l.as_batchnorm() {
                        let (mean, var) = bn.running_stats();
                        let gamma = bn.gamma().value.as_slice();
                        let beta = bn.beta().value.as_slice();
                        let mut scale = Vec::with_capacity(gamma.len());
                        let mut shift = Vec::with_capacity(gamma.len());
                        for c in 0..gamma.len() {
                            let inv_std = 1.0 / (var[c] + 1e-5).sqrt();
                            scale.push(gamma[c] * inv_std);
                            shift.push(beta[c] - gamma[c] * mean[c] * inv_std);
                        }
                        SparseOp::ChannelAffine { scale, shift }
                    } else if let Some(act) = activation_kind_of(l.as_ref()) {
                        SparseOp::Activation(act)
                    } else if let Some((k, stride, pad)) = pool_params_of(l.as_ref()) {
                        SparseOp::MaxPool { k, stride, pad }
                    } else if l.as_upsample().is_some() {
                        SparseOp::Upsample2x
                    } else {
                        return Err(SparseModelError::Unsupported {
                            node: n.name.clone(),
                            msg: format!("layer kind {:?}", l.kind()),
                        });
                    }
                }
                // NodeOp is #[non_exhaustive]: future ops are rejected.
                _ => {
                    return Err(SparseModelError::Unsupported {
                        node: n.name.clone(),
                        msg: "unknown graph op".into(),
                    })
                }
            };
            nodes.push(SparseNode {
                name: n.name.clone(),
                op,
                inputs: n.inputs.clone(),
            });
        }
        let outputs = graph.outputs().to_vec();
        let mut uses = vec![0usize; nodes.len()];
        for node in &nodes {
            for &j in &node.inputs {
                if let Some(u) = uses.get_mut(j) {
                    *u += 1;
                }
            }
        }
        for &o in &outputs {
            if let Some(u) = uses.get_mut(o) {
                *u += 1;
            }
        }
        Ok(SparseModel {
            nodes: Arc::new(nodes),
            outputs,
            uses,
            stored_weights: stored,
            dense_weights: dense,
            exec: ExecConfig::default(),
            plans: RwLock::new(HashMap::new()),
        })
    }

    /// The engine's execution configuration (thread count).
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Sets the execution configuration used by [`forward`](Self::forward)
    /// and [`forward_batch`](Self::forward_batch).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Builder-style [`set_exec_config`](Self::set_exec_config).
    #[must_use]
    pub fn with_exec_config(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// The compiled plan for `input_shape`, compiling and caching it on
    /// first use. Plans are keyed by the full input shape, so distinct
    /// batch sizes get distinct plans and repeat calls are a read-lock
    /// plus a map lookup.
    ///
    /// # Errors
    ///
    /// Returns an error when the shape cannot be planned (rank/channel
    /// mismatches surface here, once, instead of on every forward).
    pub fn plan_for(&self, input_shape: &[usize]) -> Result<Arc<ExecutionPlan>, SparseModelError> {
        {
            let plans = self.plans.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(plan) = plans.get(input_shape) {
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(ExecutionPlan::compile(self, input_shape)?);
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        // A racing caller may have planned the same shape; keep the
        // first so Arc identity is stable for observers.
        Ok(Arc::clone(
            plans
                .entry(input_shape.to_vec())
                .or_insert_with(|| Arc::clone(&plan)),
        ))
    }

    /// Summary of the compiled plan for `input_shape` (schedule, arena
    /// assignment, memory accounting) — the artifact `rtoss-verify`'s
    /// RV05x checks inspect.
    ///
    /// # Errors
    ///
    /// Same conditions as [`plan_for`](Self::plan_for).
    pub fn plan_summary(&self, input_shape: &[usize]) -> Result<PlanSummary, SparseModelError> {
        Ok(self.plan_for(input_shape)?.summary_for(self))
    }

    /// Arena bytes of the largest plan compiled so far, or `None` when
    /// no forward has been planned yet. This is the value exported as
    /// the `peak_activation_bytes` gauge by the serving metrics.
    pub fn peak_activation_bytes(&self) -> Option<u64> {
        let plans = self.plans.read().unwrap_or_else(PoisonError::into_inner);
        plans.values().map(|p| p.arena_bytes()).max()
    }

    /// Conv-weight compression achieved by the compiled engine.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_weights == 0 {
            1.0
        } else {
            self.dense_weights as f64 / self.stored_weights as f64
        }
    }

    /// Stored (non-zero) conv weights.
    pub fn stored_weights(&self) -> usize {
        self.stored_weights
    }

    /// Per-node `(kind, input node indices)` in node order — the
    /// engine's data-dependency skeleton. Exposed so `rtoss-verify`'s
    /// RV070 happens-before analysis can reconstruct, independently of
    /// the plan compiler, which operand edges a compiled plan *must*
    /// have, and flag any the plan dropped.
    pub fn node_deps(&self) -> Vec<(&'static str, Vec<usize>)> {
        self.nodes
            .iter()
            .map(|n| (n.kind(), n.inputs.clone()))
            .collect()
    }

    /// Declared output node indices, in output order.
    pub fn output_nodes(&self) -> &[usize] {
        &self.outputs
    }

    /// Per-node consumer count (occurrences in later nodes' input lists
    /// plus occurrences in the output list) — what the plan compiler's
    /// sole-consumer fusion test reads, exposed so verification can
    /// re-derive the same fusion decisions.
    pub fn node_uses(&self) -> &[usize] {
        &self.uses
    }

    /// The compiled sparse convolution layers, as `(node_index, layer)`
    /// pairs in topological order. Exposed so `rtoss-verify` can check
    /// the exact artifacts the engine will execute.
    pub fn conv_layers(&self) -> Vec<(usize, &PatternCompressedConv)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.op {
                SparseOp::Conv { layer, .. } => Some((i, layer)),
                _ => None,
            })
            .collect()
    }

    /// Validates every compiled conv layer's storage invariants
    /// (see [`PatternCompressedConv::validate`]), plus the engine's
    /// weight bookkeeping, returning all violations found (empty =
    /// valid). This is the opt-in pre-flight check the serving layer
    /// and benchmark harnesses run before trusting an engine.
    pub fn verify(&self) -> Vec<FormatViolation> {
        let mut out = Vec::new();
        let mut stored = 0usize;
        for (i, layer) in self.conv_layers() {
            for mut v in layer.validate() {
                v.message = format!("node {i}: {}", v.message);
                out.push(v);
            }
            stored += layer.stored_weights();
        }
        if stored != self.stored_weights {
            out.push(FormatViolation {
                code: "RV012",
                message: format!(
                    "engine stored_weights bookkeeping says {} but layers hold {stored}",
                    self.stored_weights
                ),
            });
        }
        out
    }

    /// Runs the engine, returning the declared outputs.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches at any node.
    pub fn forward(&self, input: &Tensor) -> Result<Vec<Tensor>, SparseModelError> {
        self.forward_with(input, &self.exec)
    }

    /// [`forward`](Self::forward) with an explicit [`ExecConfig`],
    /// overriding the engine's stored configuration for this call: runs
    /// the [`ExecutionPlan`] compiled (and cached) for the input's
    /// shape. Results are bit-identical for every thread count, and to
    /// the interpreter.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches at any node.
    pub fn forward_with(
        &self,
        input: &Tensor,
        exec: &ExecConfig,
    ) -> Result<Vec<Tensor>, SparseModelError> {
        self.plan_for(input.shape())?.run(self, input, exec)
    }

    /// The per-call graph interpreter: walks the node list, computing
    /// one freshly allocated tensor per node. Kept only as the
    /// reference semantics the compiled plan must match bit-for-bit
    /// (RV052 and the plan tests); `forward*` never runs it.
    /// Activations are dropped as soon as their last consumer has run,
    /// so even the interpreter's peak memory tracks liveness rather
    /// than the whole graph.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches at any node.
    pub fn forward_interpreted_with(
        &self,
        input: &Tensor,
        exec: &ExecConfig,
    ) -> Result<Vec<Tensor>, SparseModelError> {
        let mut remaining = self.uses.clone();
        let mut acts: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.op, SparseOp::Input) {
                // Input nodes store nothing: consumers read the caller's
                // tensor directly instead of a per-call clone.
                continue;
            }
            let get = |j: usize| -> Result<&Tensor, SparseModelError> {
                if let Some(SparseNode {
                    op: SparseOp::Input,
                    ..
                }) = self.nodes.get(j)
                {
                    return Ok(input);
                }
                acts.get(j)
                    .and_then(Option::as_ref)
                    .ok_or(SparseModelError::Tensor(TensorError::Invalid {
                        op: "sparse_forward",
                        msg: format!("node {j} not yet computed"),
                    }))
            };
            let _span = node.trace_span(i, exec);
            let out = match &node.op {
                // Handled above; nothing is stored for inputs.
                SparseOp::Input => continue,
                SparseOp::Conv { layer, bias } => {
                    conv2d_pattern_sparse_with(get(node.inputs[0])?, layer, Some(bias), exec)?
                }
                SparseOp::ChannelAffine { scale, shift } => {
                    channel_affine(get(node.inputs[0])?, scale, shift)?
                }
                SparseOp::Activation(kind) => {
                    let k = *kind;
                    get(node.inputs[0])?.map(move |v| eval_act(k, v))
                }
                SparseOp::MaxPool { k, stride, pad } => {
                    ops::maxpool2d(get(node.inputs[0])?, *k, *stride, *pad)?.output
                }
                SparseOp::Upsample2x => ops::upsample_nearest2x(get(node.inputs[0])?)?,
                SparseOp::Add => get(node.inputs[0])?.add(get(node.inputs[1])?)?,
                SparseOp::Concat => {
                    let xs: Result<Vec<&Tensor>, _> = node.inputs.iter().map(|&j| get(j)).collect();
                    concat_channels(&xs?)?
                }
            };
            acts[i] = Some(out);
            // Last-use drop: a consumed activation whose remaining uses
            // hit zero is freed now, not at the end of the pass.
            for &j in &node.inputs {
                if let Some(r) = remaining.get_mut(j) {
                    *r = r.saturating_sub(1);
                    if *r == 0 {
                        if let Some(a) = acts.get_mut(j) {
                            *a = None;
                        }
                    }
                }
            }
        }
        self.outputs
            .iter()
            .map(|&o| {
                if let Some(SparseNode {
                    op: SparseOp::Input,
                    ..
                }) = self.nodes.get(o)
                {
                    return Ok(input.clone());
                }
                let last = remaining.get_mut(o).map(|r| {
                    *r = r.saturating_sub(1);
                    *r == 0
                });
                let act = acts.get_mut(o);
                let taken = match (last, act) {
                    // Move the tensor out on its final use; clone only
                    // when another output still needs it.
                    (Some(true), Some(a)) => a.take(),
                    (_, Some(a)) => a.clone(),
                    _ => None,
                };
                taken.ok_or_else(|| {
                    SparseModelError::Tensor(TensorError::Invalid {
                        op: "sparse_forward",
                        msg: format!("output node {o} was not computed"),
                    })
                })
            })
            .collect()
    }

    /// Runs several independent requests in one batched pass.
    ///
    /// Inputs are stacked along the batch dimension, pushed through a
    /// single [`forward`](Self::forward) call, and split back into
    /// per-request outputs. Every executor in the engine loops over
    /// batch samples independently, so results are **bit-identical** to
    /// calling `forward` once per request — the serving layer relies on
    /// this to micro-batch without changing answers.
    ///
    /// # Errors
    ///
    /// Returns an error when `inputs` is empty, when the inputs disagree
    /// in non-batch dimensions, or when the forward pass itself fails.
    pub fn forward_batch(&self, inputs: &[&Tensor]) -> Result<Vec<Vec<Tensor>>, SparseModelError> {
        self.forward_batch_with(inputs, &self.exec)
    }

    /// [`forward_batch`](Self::forward_batch) with an explicit
    /// [`ExecConfig`] for the batched pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`forward_batch`](Self::forward_batch).
    pub fn forward_batch_with(
        &self,
        inputs: &[&Tensor],
        exec: &ExecConfig,
    ) -> Result<Vec<Vec<Tensor>>, SparseModelError> {
        let stacked = ops::batch_stack(inputs)?;
        let outs = self.forward_with(&stacked, exec)?;
        let sizes: Vec<usize> = inputs.iter().map(|x| x.shape()[0]).collect();
        let mut per_request: Vec<Vec<Tensor>> = (0..inputs.len())
            .map(|_| Vec::with_capacity(outs.len()))
            .collect();
        for out in &outs {
            for (req, part) in ops::batch_split(out, &sizes)?.into_iter().enumerate() {
                per_request[req].push(part);
            }
        }
        Ok(per_request)
    }
}

fn activation_kind_of(l: &dyn rtoss_nn::Layer) -> Option<ActivationKind> {
    l.as_activation().map(|a| a.activation_kind())
}

fn pool_params_of(l: &dyn rtoss_nn::Layer) -> Option<(usize, usize, usize)> {
    l.as_maxpool()
        .map(|p| (p.kernel_size(), p.stride(), p.padding()))
}

pub(crate) fn eval_act(kind: ActivationKind, x: f32) -> f32 {
    match epilogue_act(kind) {
        Some(a) => a.eval(x),
        // ActivationKind is #[non_exhaustive]: treat unknown future
        // activations as identity rather than failing at inference.
        None => x,
    }
}

/// Maps a graph activation onto the executor epilogue's activation —
/// the single definition of the arithmetic both the interpreter and
/// the fused plan evaluate. `None` for future kinds the epilogue does
/// not know (the interpreter treats those as identity, so an absorbed
/// `None` epilogue stays bit-identical).
pub(crate) fn epilogue_act(kind: ActivationKind) -> Option<rtoss_tensor::EpilogueAct> {
    use rtoss_tensor::EpilogueAct;
    match kind {
        ActivationKind::Silu => Some(EpilogueAct::Silu),
        ActivationKind::Relu => Some(EpilogueAct::Relu),
        ActivationKind::LeakyRelu => Some(EpilogueAct::LeakyRelu),
        ActivationKind::Sigmoid => Some(EpilogueAct::Sigmoid),
        _ => None,
    }
}

fn channel_affine(x: &Tensor, scale: &[f32], shift: &[f32]) -> Result<Tensor, TensorError> {
    if x.rank() != 4 || x.shape()[1] != scale.len() {
        return Err(TensorError::Invalid {
            op: "channel_affine",
            msg: format!("input {:?} vs {} channels", x.shape(), scale.len()),
        });
    }
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let plane = h * w;
    let mut out = x.as_slice().to_vec();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * plane;
            let (s, b) = (scale[ci], shift[ci]);
            for v in &mut out[base..base + plane] {
                *v = s * *v + b;
            }
        }
    }
    Tensor::from_vec(out, x.shape())
}

fn concat_channels(xs: &[&Tensor]) -> Result<Tensor, TensorError> {
    let first = xs[0];
    let (n, h, w) = (first.shape()[0], first.shape()[2], first.shape()[3]);
    let total_c: usize = xs.iter().map(|x| x.shape()[1]).sum();
    let plane = h * w;
    let mut out = vec![0.0f32; n * total_c * plane];
    for ni in 0..n {
        let mut c_off = 0;
        for x in xs {
            let c = x.shape()[1];
            let src = &x.as_slice()[ni * c * plane..(ni + 1) * c * plane];
            let dst = (ni * total_c + c_off) * plane;
            out[dst..dst + c * plane].copy_from_slice(src);
            c_off += c;
        }
    }
    Tensor::from_vec(out, &[n, total_c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};
    use rtoss_models::{retinanet_twin, yolov5s_twin};
    use rtoss_tensor::init;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn engine_matches_graph_eval_mode_dense() {
        let mut m = yolov5s_twin(4, 2, 77).unwrap();
        // Push some data through in train mode so BN stats are non-trivial.
        let x = init::uniform(&mut init::rng(1), &[2, 3, 64, 64], 0.0, 1.0);
        m.graph.set_training(true);
        m.graph.forward(&x).unwrap();
        m.graph.set_training(false);
        let probe = init::uniform(&mut init::rng(2), &[1, 3, 64, 64], 0.0, 1.0);
        let want = m.graph.forward(&probe).unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let got = engine.forward(&probe).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert_close(g, w, 2e-3);
        }
    }

    #[test]
    fn engine_matches_graph_after_pruning() {
        let mut m = retinanet_twin(4, 2, 78).unwrap();
        let x = init::uniform(&mut init::rng(3), &[2, 3, 64, 64], 0.0, 1.0);
        m.graph.set_training(true);
        m.graph.forward(&x).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        m.graph.set_training(false);
        let probe = init::uniform(&mut init::rng(4), &[1, 3, 64, 64], 0.0, 1.0);
        let want = m.graph.forward(&probe).unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        assert!(engine.compression_ratio() > 3.0);
        let got = engine.forward(&probe).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert_close(g, w, 2e-3);
        }
    }

    #[test]
    fn forward_batch_is_bit_identical_to_single_requests() {
        let mut m = yolov5s_twin(4, 2, 80).unwrap();
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        let xs: Vec<Tensor> = (0..3)
            .map(|i| init::uniform(&mut init::rng(90 + i), &[1, 3, 32, 32], 0.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batched = engine.forward_batch(&refs).unwrap();
        assert_eq!(batched.len(), xs.len());
        for (x, got) in xs.iter().zip(&batched) {
            let want = engine.forward(x).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.shape(), w.shape());
                // Bit-identical, not merely close: serving depends on it.
                assert_eq!(g.as_slice(), w.as_slice());
            }
        }
    }

    #[test]
    fn verify_clean_on_compiled_engine() {
        let mut m = yolov5s_twin(4, 2, 81).unwrap();
        RTossPruner::new(EntryPattern::Two)
            .prune_graph(&mut m.graph)
            .unwrap();
        let engine = SparseModel::compile(&m.graph).unwrap();
        assert!(!engine.conv_layers().is_empty());
        assert!(engine.verify().is_empty());
    }

    #[test]
    fn compression_reflects_entry_pattern() {
        let build = |entry| {
            let mut m = yolov5s_twin(4, 2, 79).unwrap();
            RTossPruner::new(entry).prune_graph(&mut m.graph).unwrap();
            SparseModel::compile(&m.graph).unwrap().compression_ratio()
        };
        assert!(build(EntryPattern::Two) > build(EntryPattern::Five));
    }
}
