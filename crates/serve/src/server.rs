//! The serving core: a worker pool that pops micro-batches from the
//! bounded queue, runs them through a [`ServeModel`], and resolves the
//! clients' tickets.
//!
//! Workers are panic-isolated twice over: each batch executes inside
//! `catch_unwind` (a panicking model fails only its own batch), and the
//! worker's outer loop respawns the serving loop if anything else
//! panics. Either way the panic is counted and the server stays up.

use crate::metrics::ServerMetrics;
use crate::queue::{BackpressurePolicy, BoundedQueue, Pending};
use crate::request::{
    ticket_pair, InferenceRequest, InferenceResponse, RequestError, RequestTiming, Ticket,
};
use rtoss_hw::{DeviceModel, EnergyBreakdown, Workload};
use rtoss_obs as obs;
use rtoss_sparse::SparseModel;
use rtoss_tensor::{ops, ExecConfig, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Process-wide micro-batch id source (dense, from 1), tagged onto
/// every batch-level trace event.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// A model the server can drive.
///
/// `run_batch` receives requests stacked along the batch dimension and
/// must return outputs whose batch dimension matches the input's; the
/// server splits them back per request. Implementations must be safe to
/// call from several worker threads at once.
pub trait ServeModel: Send + Sync + 'static {
    /// Runs one stacked micro-batch at the server's [`ExecConfig`]
    /// (intra-op thread count); models without a parallel path may
    /// ignore `exec`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when inference fails; the server
    /// maps it to [`RequestError::Failed`] for every request on board.
    fn run_batch(&self, batch: &Tensor, exec: &ExecConfig) -> Result<Vec<Tensor>, String>;

    /// Opt-in pre-flight validation: one message per structural
    /// invariant violation in the model's compiled artifacts (empty =
    /// fit to serve). Run before [`Server::start`] to refuse ill-formed
    /// models instead of discovering them request by request. The
    /// default has nothing to check.
    fn verify(&self) -> Vec<String> {
        Vec::new()
    }

    /// Compiles whatever per-shape artifacts the model caches (e.g. an
    /// execution plan) for `input_shape`, so the first real request at
    /// that shape pays no compilation latency. The default does
    /// nothing; failures are deliberately swallowed — an unplannable
    /// shape surfaces as a per-request error, not a startup crash.
    fn prewarm(&self, _input_shape: &[usize], _exec: &ExecConfig) {}

    /// Peak activation-arena bytes across the model's compiled plans,
    /// when the model plans its execution (`None` otherwise). Exported
    /// as the `rtoss_peak_activation_bytes` gauge.
    fn peak_activation_bytes(&self) -> Option<u64> {
        None
    }
}

impl ServeModel for SparseModel {
    fn run_batch(&self, batch: &Tensor, exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
        self.forward_with(batch, exec).map_err(|e| e.to_string())
    }

    fn verify(&self) -> Vec<String> {
        SparseModel::verify(self)
            .into_iter()
            .map(|v| v.to_string())
            .collect()
    }

    fn prewarm(&self, input_shape: &[usize], _exec: &ExecConfig) {
        let _ = self.plan_for(input_shape);
    }

    fn peak_activation_bytes(&self) -> Option<u64> {
        SparseModel::peak_activation_bytes(self)
    }
}

/// Cloneable handle reporting a server's live queue depth without
/// holding the [`Server`] itself — control loops (e.g. a fleet's
/// degradation controller) sample it from their own thread.
#[derive(Debug, Clone)]
pub struct QueueDepthHandle {
    queue: Arc<BoundedQueue>,
}

impl QueueDepthHandle {
    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Analytic energy accounting for served requests: each completed
/// request is charged its share of a micro-batched pass on `device`
/// under `workload` (see [`EnergyBreakdown::compute_batched`]).
#[derive(Debug, Clone)]
pub struct EnergyModelHook {
    /// Device the energy model simulates.
    pub device: DeviceModel,
    /// Per-frame workload of the served model.
    pub workload: Workload,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads popping and executing micro-batches.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Behaviour when the queue is full.
    pub policy: BackpressurePolicy,
    /// Largest micro-batch a worker will assemble.
    pub max_batch: usize,
    /// How long an open batch waits for stragglers before executing.
    pub batch_timeout: Duration,
    /// Optional per-request energy accounting.
    pub energy: Option<EnergyModelHook>,
    /// Intra-op execution config passed to [`ServeModel::run_batch`]
    /// (thread count for the tiled conv executors).
    pub exec: ExecConfig,
    /// Single-frame input shape (`[1, c, h, w]`) to prewarm before
    /// serving: [`Server::start`] compiles the model's per-shape
    /// artifacts for every micro-batch size `1..=max_batch`, so the
    /// micro-batch workers never plan on the request path. `None`
    /// skips prewarming (plans compile lazily on first use).
    pub prewarm: Option<Vec<usize>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            max_batch: 4,
            batch_timeout: Duration::from_millis(2),
            energy: None,
            exec: ExecConfig::default(),
            prewarm: None,
        }
    }
}

/// A running inference server.
///
/// Submissions are thread-safe through `&self`; call
/// [`shutdown`](Server::shutdown) (or drop the server) to drain and
/// join the workers.
#[derive(Debug)]
pub struct Server {
    queue: Arc<BoundedQueue>,
    metrics: Arc<ServerMetrics>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(model: Arc<dyn ServeModel>, config: ServeConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity, config.policy));
        let metrics = Arc::new(ServerMetrics::new());
        if let Some(frame) = &config.prewarm {
            if let Some((&frames, rest)) = frame.split_first() {
                for b in 1..=config.max_batch.max(1) {
                    let mut shape = Vec::with_capacity(frame.len());
                    shape.push(frames.max(1) * b);
                    shape.extend_from_slice(rest);
                    model.prewarm(&shape, &config.exec);
                }
            }
            if let Some(bytes) = model.peak_activation_bytes() {
                metrics.record_peak_activation_bytes(bytes);
            }
        }
        let workers = (0..config.workers.max(1))
            .map(|_| {
                spawn_worker(
                    queue.clone(),
                    metrics.clone(),
                    model.clone(),
                    config.clone(),
                )
            })
            .collect();
        Server {
            queue,
            metrics,
            workers,
        }
    }

    /// Submits a request; returns a [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// Returns the resolved error immediately when the backpressure
    /// policy refuses the request (or the server is shutting down).
    pub fn submit(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, RequestError> {
        let (ticket, fulfiller) = ticket_pair();
        let request = InferenceRequest::new(input, deadline);
        let request_id = request.id;
        let pending = Pending {
            request,
            fulfiller,
            popped_at: None,
        };
        match self.queue.push(pending, &self.metrics) {
            Ok(()) => {
                if obs::recording() {
                    obs::emit_instant("enqueue", vec![("request", obs::ArgValue::U64(request_id))]);
                }
                Ok(ticket)
            }
            // The queue resolved the ticket; surface the reason directly.
            // A resolved-with-success ticket here would be a queue bug;
            // report it as a failure rather than panicking in submit.
            Err(()) => match ticket.wait() {
                Err(e) => Err(e),
                Ok(_) => Err(RequestError::Failed(
                    "internal: rejected ticket carried a response".into(),
                )),
            },
        }
    }

    /// Live metrics handle (counters keep updating behind it).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.metrics.clone()
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A cloneable handle that keeps reporting the queue depth from any
    /// thread (it does not keep the server alive or serving).
    pub fn queue_depth_handle(&self) -> QueueDepthHandle {
        QueueDepthHandle {
            queue: self.queue.clone(),
        }
    }

    /// Drains the queue, stops and joins all workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.queue.close(&self.metrics);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Spawns one worker. The outer loop restarts the serving loop if it
/// ever panics outside the per-batch guard, so a worker slot is never
/// silently lost.
fn spawn_worker(
    queue: Arc<BoundedQueue>,
    metrics: Arc<ServerMetrics>,
    model: Arc<dyn ServeModel>,
    config: ServeConfig,
) -> JoinHandle<()> {
    thread::spawn(move || loop {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&queue, &metrics, &*model, &config)
        }));
        match ran {
            Ok(()) => break,
            Err(_) => metrics.worker_panics.incr(),
        }
    })
}

fn worker_loop(
    queue: &BoundedQueue,
    metrics: &ServerMetrics,
    model: &dyn ServeModel,
    config: &ServeConfig,
) {
    while let Some(batch) = queue.pop_batch(config.max_batch, config.batch_timeout, metrics) {
        serve_batch(batch, metrics, model, config);
    }
}

fn serve_batch(
    mut batch: Vec<Pending>,
    metrics: &ServerMetrics,
    model: &dyn ServeModel,
    config: &ServeConfig,
) {
    // Under ShedExpired, a request can outlive its deadline *after*
    // being popped — while the batch waited for stragglers or sat
    // behind a slow predecessor. Executing it wastes a batch slot on an
    // answer nobody can use, so it is shed here too, not just at the
    // queue front.
    if config.policy == BackpressurePolicy::ShedExpired {
        let now = Instant::now();
        batch.retain_mut(|pending| {
            if pending.request.expired_at(now) {
                metrics.shed.incr();
                crate::queue::trace_shed(&pending.request);
                pending.fulfiller.fulfil(Err(RequestError::Shed));
                false
            } else {
                true
            }
        });
        if batch.is_empty() {
            return;
        }
    }
    // One sampling decision per micro-batch: either the whole batch is
    // traced (queue waits, phases, nested per-layer spans) or none of
    // it, so a sampled trace never contains execute spans without their
    // layer children (RV042).
    let scope = obs::batch_scope();
    let batch_id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
    let assembly_start = Instant::now();
    metrics.batches.incr();
    metrics.batched_requests.add(batch.len() as u64);

    // Assembly is measured from the first pop: that is when the batch
    // started forming (matches the per-request `batch_assembly` phase).
    let first_popped = batch
        .iter()
        .filter_map(|p| p.popped_at)
        .min()
        .unwrap_or(assembly_start);
    if scope.recording() {
        // Queue waits overlap each other and span two threads, so they
        // are async intervals correlated by request id, not sync spans.
        for p in &batch {
            let popped = p.popped_at.unwrap_or(assembly_start);
            obs::emit_async(
                "queue_wait",
                p.request.id,
                obs::ts_ns(p.request.submitted_at),
                obs::ts_ns(popped),
                vec![
                    ("request", obs::ArgValue::U64(p.request.id)),
                    ("batch", obs::ArgValue::U64(batch_id)),
                ],
            );
        }
    }

    let inputs: Vec<&Tensor> = batch.iter().map(|p| &p.request.input).collect();
    let sizes: Vec<usize> = inputs.iter().map(|x| x.shape()[0]).collect();
    let frames: usize = sizes.iter().sum();
    // Stacking is batch assembly, not model time: it runs before
    // `exec_start` (under its own panic guard) so `execute` below is
    // pure model time.
    let stacked = catch_unwind(AssertUnwindSafe(|| {
        ops::batch_stack(&inputs).map_err(|e| e.to_string())
    }));
    let exec_start = Instant::now();
    if scope.recording() {
        obs::emit_span(
            "batch_assembly",
            obs::ts_ns(first_popped),
            obs::ts_ns(exec_start),
            vec![
                ("batch", obs::ArgValue::U64(batch_id)),
                ("requests", obs::ArgValue::U64(batch.len() as u64)),
                ("frames", obs::ArgValue::U64(frames as u64)),
            ],
        );
    }
    let result = match stacked {
        Ok(Ok(stacked)) => {
            catch_unwind(AssertUnwindSafe(|| model.run_batch(&stacked, &config.exec)))
        }
        Ok(Err(msg)) => Ok(Err(msg)),
        Err(panic) => Err(panic),
    };
    let exec_dur = exec_start.elapsed();
    // Lazily-compiled plans (no prewarm configured) surface their
    // arena footprint as soon as the first batch at a shape has run.
    if let Some(bytes) = model.peak_activation_bytes() {
        metrics.record_peak_activation_bytes(bytes);
    }
    if scope.recording() {
        // Emitted after the model's own layer spans closed, keeping the
        // per-thread buffer ordered by end timestamp (RV041); interval
        // containment still nests the layers inside this span.
        obs::emit_span(
            "execute",
            obs::ts_ns(exec_start),
            obs::ts_ns(exec_start + exec_dur),
            vec![
                ("batch", obs::ArgValue::U64(batch_id)),
                ("requests", obs::ArgValue::U64(batch.len() as u64)),
                ("frames", obs::ArgValue::U64(frames as u64)),
                ("threads", obs::ArgValue::U64(config.exec.threads as u64)),
            ],
        );
    }

    let outcome: Result<Vec<Vec<Tensor>>, RequestError> = match result {
        Ok(Ok(outs)) => split_outputs(&outs, &sizes),
        Ok(Err(msg)) => Err(RequestError::Failed(msg)),
        Err(panic) => {
            metrics.worker_panics.incr();
            Err(RequestError::Failed(format!(
                "model panicked: {}",
                panic_message(&panic)
            )))
        }
    };

    // Energy is charged per *frame*: a request whose input stacks f
    // frames (`shape()[0] == f`) costs f shares of a `frames`-wide
    // batched pass, not one share of a `batch.len()`-wide pass.
    let per_frame_energy_j = config.energy.as_ref().map(|hook| {
        EnergyBreakdown::compute_batched(&hook.device, &hook.workload, frames.max(1)).total_j()
    });

    let now = Instant::now();
    let batch_size = batch.len();
    match outcome {
        Ok(mut per_request) => {
            // Resolve in reverse so we can pop off the end cheaply.
            for pending in batch.into_iter().rev() {
                let Some(outputs) = per_request.pop() else {
                    // split_outputs produced fewer sets than requests —
                    // fail this request instead of panicking the worker.
                    pending.fulfiller.fulfil(Err(RequestError::Failed(
                        "internal: missing output set for request".into(),
                    )));
                    metrics.failed.incr();
                    continue;
                };
                let popped_at = pending.popped_at.unwrap_or(assembly_start);
                let timing = RequestTiming {
                    queue_wait: popped_at.duration_since(pending.request.submitted_at),
                    batch_assembly: exec_start.saturating_duration_since(popped_at),
                    execute: exec_dur,
                };
                let deadline_missed = pending.request.expired_at(now);
                metrics.queue_wait.record(timing.queue_wait);
                metrics.batch_assembly.record(timing.batch_assembly);
                metrics.execute.record(timing.execute);
                metrics.completed.incr();
                if deadline_missed {
                    metrics.deadline_missed.incr();
                }
                metrics.series.record_completion(
                    obs::ts_ns(now),
                    now.duration_since(pending.request.submitted_at),
                    deadline_missed,
                );
                if let Some(per_frame_j) = per_frame_energy_j {
                    let request_frames = pending.request.input.shape()[0] as f64;
                    let uj = (per_frame_j * request_frames * 1e6).round().max(0.0) as u64;
                    metrics.energy_uj.add(uj);
                }
                pending.fulfiller.fulfil(Ok(InferenceResponse {
                    outputs,
                    timing,
                    batch_size,
                    deadline_missed,
                }));
            }
        }
        Err(err) => {
            metrics.failed.add(batch.len() as u64);
            for pending in batch {
                pending.fulfiller.fulfil(Err(err.clone()));
            }
        }
    }

    if scope.recording() {
        let end = Instant::now();
        obs::emit_span(
            "respond",
            obs::ts_ns(now),
            obs::ts_ns(end),
            vec![("batch", obs::ArgValue::U64(batch_id))],
        );
        // The whole batch, first pop to last ticket resolved; emitted
        // last so it closes after everything it contains.
        obs::emit_span(
            "batch",
            obs::ts_ns(first_popped),
            obs::ts_ns(end),
            vec![
                ("batch", obs::ArgValue::U64(batch_id)),
                ("requests", obs::ArgValue::U64(batch_size as u64)),
                ("frames", obs::ArgValue::U64(frames as u64)),
            ],
        );
    }
}

fn split_outputs(outs: &[Tensor], sizes: &[usize]) -> Result<Vec<Vec<Tensor>>, RequestError> {
    let mut per_request: Vec<Vec<Tensor>> = (0..sizes.len())
        .map(|_| Vec::with_capacity(outs.len()))
        .collect();
    for out in outs {
        let parts = ops::batch_split(out, sizes)
            .map_err(|e| RequestError::Failed(format!("output split failed: {e}")))?;
        for (req, part) in parts.into_iter().enumerate() {
            per_request[req].push(part);
        }
    }
    Ok(per_request)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity "model": echoes its input, optionally slowly/panicking.
    struct Echo {
        delay: Duration,
        panic_on_value: Option<f32>,
    }

    impl ServeModel for Echo {
        fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
            if let Some(v) = self.panic_on_value {
                if batch.as_slice().contains(&v) {
                    panic!("poison value {v} in batch");
                }
            }
            if !self.delay.is_zero() {
                thread::sleep(self.delay);
            }
            Ok(vec![batch.clone()])
        }
    }

    fn echo() -> Arc<dyn ServeModel> {
        Arc::new(Echo {
            delay: Duration::ZERO,
            panic_on_value: None,
        })
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = Server::start(echo(), ServeConfig::default());
        let x = Tensor::full(&[1, 2, 3, 3], 7.0);
        let resp = server.submit(x.clone(), None).unwrap().wait().unwrap();
        assert_eq!(resp.outputs.len(), 1);
        assert_eq!(resp.outputs[0].as_slice(), x.as_slice());
        assert!(resp.batch_size >= 1);
        let m = server.metrics();
        server.shutdown();
        assert_eq!(m.completed.get(), 1);
        assert_eq!(m.queue_wait.count(), 1);
    }

    #[test]
    fn micro_batches_concurrent_requests() {
        let server = Server::start(
            echo(),
            ServeConfig {
                workers: 1,
                max_batch: 8,
                batch_timeout: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                server
                    .submit(Tensor::full(&[1, 1, 2, 2], i as f32), None)
                    .unwrap()
            })
            .collect();
        let mut max_seen = 0;
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert_eq!(resp.outputs[0].as_slice(), &[i as f32; 4]);
            max_seen = max_seen.max(resp.batch_size);
        }
        assert!(max_seen >= 2, "no batching observed (max batch {max_seen})");
        server.shutdown();
    }

    #[test]
    fn panicking_batch_fails_cleanly_and_server_survives() {
        let server = Server::start(
            Arc::new(Echo {
                delay: Duration::ZERO,
                panic_on_value: Some(-13.0),
            }),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                ..ServeConfig::default()
            },
        );
        let bad = server
            .submit(Tensor::full(&[1, 1, 2, 2], -13.0), None)
            .unwrap();
        assert!(matches!(bad.wait(), Err(RequestError::Failed(_))));
        // Server keeps serving after the panic.
        let good = server
            .submit(Tensor::full(&[1, 1, 2, 2], 1.0), None)
            .unwrap();
        assert!(good.wait().is_ok());
        let m = server.metrics();
        assert_eq!(m.worker_panics.get(), 1);
        assert_eq!(m.failed.get(), 1);
        assert_eq!(m.completed.get(), 1);
        server.shutdown();
    }

    #[test]
    fn energy_hook_charges_completed_requests() {
        let workload = Workload {
            dense_macs: 1_000_000,
            effective_macs: 1_000_000,
            weight_bytes: 1_000,
            structure: rtoss_hw::SparsityStructure::Dense,
        };
        let server = Server::start(
            echo(),
            ServeConfig {
                energy: Some(EnergyModelHook {
                    device: DeviceModel::jetson_tx2(),
                    workload,
                }),
                ..ServeConfig::default()
            },
        );
        server
            .submit(Tensor::zeros(&[1, 1, 2, 2]), None)
            .unwrap()
            .wait()
            .unwrap();
        let m = server.metrics();
        server.shutdown();
        assert!(m.snapshot().energy_j > 0.0);
    }

    #[test]
    fn energy_charges_per_frame_not_per_request() {
        // Regression: a request carrying several frames must be charged
        // for every frame, not a single per-request share.
        let workload = Workload {
            dense_macs: 1_000_000,
            effective_macs: 1_000_000,
            weight_bytes: 1_000,
            structure: rtoss_hw::SparsityStructure::Dense,
        };
        let device = DeviceModel::jetson_tx2();
        let server = Server::start(
            echo(),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                energy: Some(EnergyModelHook {
                    device: device.clone(),
                    workload,
                }),
                ..ServeConfig::default()
            },
        );
        // One request stacking three frames along the batch dimension.
        server
            .submit(Tensor::zeros(&[3, 1, 2, 2]), None)
            .unwrap()
            .wait()
            .unwrap();
        let m = server.metrics();
        server.shutdown();
        let per_frame_j = EnergyBreakdown::compute_batched(&device, &workload, 3).total_j();
        let expected_uj = (per_frame_j * 3.0 * 1e6).round() as u64;
        assert_eq!(m.energy_uj.get(), expected_uj);
        // Sanity: strictly more than one per-frame share.
        assert!(m.energy_uj.get() > (per_frame_j * 1e6) as u64);
    }

    #[test]
    fn request_expiring_after_pop_is_shed_not_executed() {
        // Regression: a request that was live at pop time but expires
        // while the batch forms (or behind a slow predecessor) must be
        // shed at execute time, not served into a missed deadline.
        let server = Server::start(
            Arc::new(Echo {
                delay: Duration::from_millis(60),
                panic_on_value: None,
            }),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                batch_timeout: Duration::ZERO,
                policy: BackpressurePolicy::ShedExpired,
                ..ServeConfig::default()
            },
        );
        // First request occupies the single worker for ~60 ms.
        let first = server.submit(Tensor::zeros(&[1, 1, 2, 2]), None).unwrap();
        thread::sleep(Duration::from_millis(5));
        // Second request's 10 ms deadline expires while it waits behind
        // the first; it reaches serve_batch already dead.
        let doomed = server
            .submit(
                Tensor::zeros(&[1, 1, 2, 2]),
                Some(Duration::from_millis(10)),
            )
            .unwrap();
        assert!(first.wait().is_ok());
        assert!(matches!(doomed.wait(), Err(RequestError::Shed)));
        let m = server.metrics();
        server.shutdown();
        assert_eq!(m.shed.get(), 1);
        assert_eq!(m.completed.get(), 1);
        // The shed request never executed: only one batch ran.
        assert_eq!(m.batches.get(), 1);
        assert_eq!(m.deadline_missed.get(), 0);
    }

    #[test]
    fn concurrent_submit_and_shutdown_partition_submitted() {
        // Hammer submit from several threads while the server shuts
        // down mid-stream: every submitted request must land in exactly
        // one terminal counter.
        let server = Arc::new(Server::start(
            Arc::new(Echo {
                delay: Duration::from_micros(200),
                panic_on_value: None,
            }),
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                max_batch: 4,
                batch_timeout: Duration::ZERO,
                policy: BackpressurePolicy::RejectWhenFull,
                ..ServeConfig::default()
            },
        ));
        let metrics = server.metrics();
        let mut producers = Vec::new();
        for p in 0..4 {
            let server = server.clone();
            producers.push(thread::spawn(move || {
                for i in 0..100 {
                    if let Ok(t) =
                        server.submit(Tensor::full(&[1, 1, 2, 2], (p * 100 + i) as f32), None)
                    {
                        let _ = t.wait();
                    }
                    if i % 10 == 0 {
                        thread::sleep(Duration::from_micros(50));
                    }
                }
            }));
        }
        thread::sleep(Duration::from_millis(10));
        // Shut down while producers are still submitting.
        Arc::try_unwrap(server).map(Server::shutdown).unwrap_or(());
        for h in producers {
            h.join().unwrap();
        }
        // try_unwrap raced the producers; the Arc drop path also shuts
        // down, so by here all tickets are resolved either way.
        let snap = metrics.snapshot();
        assert_eq!(
            snap.submitted,
            snap.completed + snap.rejected + snap.shed + snap.failed + snap.shut_down,
            "partition violated: {snap:?}"
        );
        assert!(snap.submitted > 0);
    }

    #[test]
    fn shutdown_fails_queued_requests() {
        // One worker stuck on a slow batch; queued work fails at close.
        let server = Server::start(
            Arc::new(Echo {
                delay: Duration::from_millis(50),
                panic_on_value: None,
            }),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                batch_timeout: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let first = server.submit(Tensor::zeros(&[1, 1, 2, 2]), None).unwrap();
        thread::sleep(Duration::from_millis(5));
        let queued = server.submit(Tensor::zeros(&[1, 1, 2, 2]), None).unwrap();
        server.shutdown();
        assert!(first.wait().is_ok());
        assert!(matches!(queued.wait(), Err(RequestError::ShutDown)));
    }
}
