//! Model set-up, output verification, the closed frame loop and the
//! kernel replay, shared by every workload.

use crate::host::{cores, cpu_seconds, digest};
use crate::stats::median;
use crate::trace::Tracer;
use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_nn::Graph;
use rtoss_sparse::exec::{
    conv2d_dense_into_with, conv2d_pattern_sparse_into_with, conv2d_unstructured_into_with,
};
use rtoss_sparse::{coo_from_pattern, PlanSummary, SparseModel};
use rtoss_tensor::{Epilogue, ExecConfig, Tensor, WorkerPool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which network a workload serves.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// Full-scale `yolov5s(80, seed)`.
    Yolov5s,
    /// `yolov5s_twin(8, 2, seed)`.
    Twin,
}

/// One model set-up: build, optional 2EP prune, compile. The plan
/// stage is the caller's (a `plan_for` or a server prewarm).
pub struct Built {
    pub graph: Graph,
    pub model: Arc<SparseModel>,
    pub build_ms: f64,
    pub prune_ms: f64,
    pub compile_ms: f64,
}

pub fn build(net: Net, pruned: bool, seed: u64, tracer: &Tracer) -> Result<Built, String> {
    let t = Instant::now();
    let mut m = tracer
        .span("build", None, || match net {
            Net::Yolov5s => rtoss_models::yolov5s(80, seed),
            Net::Twin => rtoss_models::yolov5s_twin(8, 2, seed),
        })
        .map_err(|e| e.to_string())?;
    let build_ms = ms_since(t);
    let t = Instant::now();
    if pruned {
        tracer
            .span("prune", None, || {
                RTossPruner::new(EntryPattern::Two).prune_graph(&mut m.graph)
            })
            .map_err(|e| e.to_string())?;
    }
    let prune_ms = if pruned { ms_since(t) } else { 0.0 };
    let t = Instant::now();
    let model = tracer
        .span("compile", None, || SparseModel::compile(&m.graph))
        .map(Arc::new)
        .map_err(|e| e.to_string())?;
    let compile_ms = ms_since(t);
    Ok(Built {
        graph: m.graph,
        model,
        build_ms,
        prune_ms,
        compile_ms,
    })
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Conv-weight compression counted straight from the pruned graph's
/// weights (total ÷ non-zero), independent of the sparse crate.
pub fn graph_compression(graph: &Graph) -> f64 {
    let (mut total, mut nonzero) = (0usize, 0usize);
    for n in graph.nodes() {
        if let rtoss_nn::NodeOp::Layer(l) = &n.op {
            if let Some(c) = l.as_conv2d() {
                let w = c.weight().value.as_slice();
                total += w.len();
                nonzero += w.iter().filter(|v| **v != 0.0).count();
            }
        }
    }
    total as f64 / nonzero.max(1) as f64
}

/// `n` seeded KITTI-like scenes as `1×3×size×size` frames.
pub fn frames(size: usize, n: usize, seed: u64) -> Vec<Tensor> {
    let cfg = rtoss_data::SceneConfig {
        img_size: size,
        ..Default::default()
    };
    rtoss_data::generate_dataset(&cfg, n, seed)
        .chunks(1)
        .map(rtoss_data::scene::batch_images)
        .collect()
}

/// Verifies the plan on `frames[0]` against the interpreter oracle at
/// width 1 and at the host's width (`rtoss_verify::check_execution_plan`),
/// then returns every frame's reference digest from the serial plan.
/// Errors name the first failed check.
pub fn verified_digests(model: &SparseModel, frames: &[Tensor]) -> Result<Vec<u64>, String> {
    let report = rtoss_verify::check_execution_plan(model, &frames[0], &[1, cores()]);
    if report.has_errors() {
        return Err(format!("plan verification failed:\n{}", report.render()));
    }
    frames
        .iter()
        .map(|f| {
            model
                .forward_with(f, &ExecConfig::serial())
                .map(|y| digest(&y))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The closed loop: frames back to back, each checked against its
/// reference digest.
#[derive(Debug, Default)]
pub struct FrameRun {
    /// Untraced frame times, ms.
    pub ms: Vec<f64>,
    /// Traced frame times, ms (trace mode alternates the two).
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall and process CPU seconds summed over the frames alone (not
    /// the output checks or replay passes between them).
    pub frame_wall_s: f64,
    pub frame_cpu_s: f64,
    /// Worker-pool task deltas summed over the frames.
    pub pool_tasks: u64,
    pub pool_worker_tasks: u64,
}

/// Runs frames back to back for `seconds`. In trace mode every second
/// frame runs inside a span, and `replay` (when given) makes one kernel
/// replay pass after each traced frame, so frames and replays sample
/// the same stretch of host time.
pub fn frame_loop(
    model: &SparseModel,
    frames: &[Tensor],
    digests: &[u64],
    exec: &ExecConfig,
    seconds: f64,
    tracer: &Tracer,
    mut replay: Option<&mut Replayer>,
) -> Result<FrameRun, String> {
    let mut run = FrameRun::default();
    let pool = WorkerPool::global();
    let worker = |s: &rtoss_tensor::pool::PoolStats| s.own_tasks + s.stolen_tasks;
    let all = |s: &rtoss_tensor::pool::PoolStats| worker(s) + s.helped_tasks + s.inline_tasks;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let k = i % frames.len();
        let traced = tracer.enabled() && i % 2 == 1;
        let pool0 = pool.stats();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let y = if traced {
            tracer.span("forward", Some(i as u64), || {
                model.forward_with(&frames[k], exec)
            })
        } else {
            model.forward_with(&frames[k], exec)
        };
        let ms = ms_since(t);
        run.frame_cpu_s += cpu_seconds() - cpu0;
        let pool1 = pool.stats();
        run.frame_wall_s += ms / 1e3;
        run.pool_tasks += all(&pool1) - all(&pool0);
        run.pool_worker_tasks += worker(&pool1) - worker(&pool0);
        run.attempted += 1;
        match y {
            Ok(y) if digest(&y) == digests[k] => {
                if traced {
                    run.traced_ms.push(ms)
                } else {
                    run.ms.push(ms)
                }
            }
            _ => run.failed += 1,
        }
        if traced {
            if let Some(r) = replay.as_deref_mut() {
                r.pass(tracer)?;
            }
        }
        i += 1;
    }
    Ok(run)
}

/// Counts from the plan summary.
pub fn plan_counts(s: &PlanSummary) -> Vec<(&'static str, f64)> {
    let mut per_level: BTreeMap<usize, usize> = BTreeMap::new();
    let mut formats: BTreeMap<&str, usize> = BTreeMap::new();
    for st in &s.steps {
        *per_level.entry(st.level).or_default() += 1;
        if st.kind == "conv" {
            *formats.entry(st.format).or_default() += 1;
        }
    }
    let fmt = |f: &str| formats.get(f).copied().unwrap_or(0) as f64;
    vec![
        ("plan.steps", s.steps.len() as f64),
        ("plan.levels", per_level.len() as f64),
        (
            "plan.max_level_width",
            per_level.values().copied().max().unwrap_or(0) as f64,
        ),
        ("plan.arena_bytes", s.arena_bytes as f64),
        ("plan.conv_pattern", fmt("pattern")),
        ("plan.conv_coo", fmt("coo")),
        ("plan.conv_dense", fmt("dense")),
    ]
}

/// The kernel a conv step is replayed through: the same public
/// `rtoss_sparse::exec` entry point the plan chose for that step.
enum Kernel<'a> {
    Pattern(&'a rtoss_sparse::PatternCompressedConv),
    Coo(rtoss_sparse::UnstructuredSparseConv),
    Dense(Tensor, usize, usize),
}

struct ReplayStep<'a> {
    kernel: Kernel<'a>,
    k: usize,
    x_shape: Vec<usize>,
    bias: Vec<f32>,
    in_len: usize,
    out_len: usize,
    /// Stored weights × output pixels.
    macs: f64,
    /// Input + output activations + stored weights, 4 bytes each.
    bytes: f64,
}

/// Per-pass replay results (medians over passes).
#[derive(Debug, Default)]
pub struct Replay {
    pub conv_ms: f64,
    pub k1_ms: f64,
    pub k3_ms: f64,
    pub k1_gmacs: f64,
    pub k3_gmacs: f64,
    pub bytes_per_frame: f64,
    pub passes: usize,
}

/// Replays every conv step of one compiled plan through the public
/// `rtoss_sparse::exec` entry point of the format the plan chose for
/// it, one call per step at width 1, as the plan runs it.
pub struct Replayer<'a> {
    steps: Vec<ReplayStep<'a>>,
    x: Vec<f32>,
    out: Vec<f32>,
    per_step: Vec<Vec<f64>>,
}

impl<'a> Replayer<'a> {
    pub fn new(graph: &Graph, model: &'a SparseModel, shape: &[usize]) -> Result<Self, String> {
        let summary = model.plan_summary(shape).map_err(|e| e.to_string())?;
        let shapes = graph.infer_shapes(shape).map_err(|e| e.to_string())?;
        let layers: BTreeMap<usize, &rtoss_sparse::PatternCompressedConv> =
            model.conv_layers().into_iter().collect();
        let mut steps = Vec::new();
        for st in summary.steps.iter().filter(|s| s.kind == "conv") {
            let layer = *layers
                .get(&st.node)
                .ok_or_else(|| format!("conv step {} has no conv layer", st.name))?;
            let x_shape = match st.inputs.first().copied().flatten() {
                None => shape.to_vec(),
                Some(p) => shapes[summary.steps[p].node].clone(),
            };
            let (kernel, stored) = match st.format {
                "coo" => {
                    let un = coo_from_pattern(layer);
                    let n = un.entries().len();
                    (Kernel::Coo(un), n)
                }
                "dense" => {
                    let w = layer.to_dense();
                    let n = w.numel();
                    (Kernel::Dense(w, layer.stride(), layer.padding()), n)
                }
                _ => (Kernel::Pattern(layer), layer.stored_weights()),
            };
            let in_len: usize = x_shape.iter().product();
            let pixels = (st.out_len / layer.out_channels()) as f64;
            steps.push(ReplayStep {
                kernel,
                k: layer.kernel_size(),
                bias: vec![0.0; layer.out_channels()],
                out_len: st.out_len,
                macs: stored as f64 * pixels,
                bytes: 4.0 * (in_len + st.out_len + stored) as f64,
                in_len,
                x_shape,
            });
        }
        let max_in = steps.iter().map(|s| s.in_len).max();
        let max_out = steps.iter().map(|s| s.out_len).max();
        let (Some(max_in), Some(max_out)) = (max_in, max_out) else {
            return Err("plan has no conv steps".into());
        };
        Ok(Replayer {
            per_step: vec![Vec::new(); steps.len()],
            steps,
            x: (0..max_in)
                .map(|i| ((i * 7919) % 1000) as f32 / 1000.0)
                .collect(),
            out: vec![0.0; max_out],
        })
    }

    /// One pass over every conv step, each call timed on its own.
    pub fn pass(&mut self, tracer: &Tracer) -> Result<(), String> {
        let serial = ExecConfig::serial();
        let pass = self.per_step.first().map_or(0, Vec::len) as u64;
        let (steps, x, out, per_step) = (&self.steps, &self.x, &mut self.out, &mut self.per_step);
        tracer.span("replay_pass", Some(pass), || {
            for (i, s) in steps.iter().enumerate() {
                let xs = &x[..s.in_len];
                let o = &mut out[..s.out_len];
                let none = &Epilogue::NONE;
                let bias = Some(s.bias.as_slice());
                let t = Instant::now();
                tracer
                    .span("kernel", Some(i as u64), || match &s.kernel {
                        Kernel::Pattern(l) => conv2d_pattern_sparse_into_with(
                            xs, &s.x_shape, l, bias, none, o, &serial,
                        ),
                        Kernel::Coo(l) => {
                            conv2d_unstructured_into_with(xs, &s.x_shape, l, bias, none, o, &serial)
                        }
                        Kernel::Dense(w, stride, pad) => conv2d_dense_into_with(
                            xs, &s.x_shape, w, *stride, *pad, bias, none, o, &serial,
                        ),
                    })
                    .map_err(|e| e.to_string())?;
                per_step[i].push(ms_since(t));
            }
            Ok(())
        })
    }

    /// Per-step medians over the passes made, summed by kernel size.
    pub fn finish(&self) -> Replay {
        let med: Vec<f64> = self
            .per_step
            .iter()
            .map(|v| median(v).unwrap_or(0.0))
            .collect();
        let sum = |k: Option<usize>, v: &dyn Fn(usize) -> f64| -> f64 {
            (0..self.steps.len())
                .filter(|&i| k.is_none_or(|k| self.steps[i].k == k))
                .map(v)
                .sum()
        };
        let ms = |k| sum(Some(k), &|i| med[i]);
        let gmacs = |k| sum(Some(k), &|i| self.steps[i].macs) / (ms(k) / 1e3) / 1e9;
        Replay {
            conv_ms: sum(None, &|i| med[i]),
            k1_ms: ms(1),
            k3_ms: ms(3),
            k1_gmacs: gmacs(1),
            k3_gmacs: gmacs(3),
            bytes_per_frame: self.steps.iter().map(|s| s.bytes).sum(),
            passes: self.per_step.first().map_or(0, Vec::len),
        }
    }
}
