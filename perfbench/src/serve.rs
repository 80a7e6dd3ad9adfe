//! The open-loop load generator. One generator thread sends requests
//! on a seeded Poisson schedule; a collector thread waits for them in
//! send order. Each request is timed from the moment it was *due*, so a
//! generator that falls behind (a blocking `submit`, a descheduled
//! thread) shows up as latency on every later request instead of
//! silently thinning the load.

use crate::model::ms_since;
use crate::stats::handoff_ms;
use crate::trace::{Span, Tracer};
use rtoss_serve::{RequestError, Server};
use rtoss_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    Shed,
    Rejected,
    /// The server reported an error, or the response did not match
    /// the direct forward of the same input.
    Failed,
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub outcome: Outcome,
    /// Completion minus due time, ms (completed requests only).
    pub due_latency_ms: Option<f64>,
    /// Send time minus due time, ms.
    pub late_ms: f64,
    /// Time inside `Server::submit`, µs.
    pub submit_us: f64,
    /// Server-side phases, ms: queue wait, batch assembly, execute.
    pub phases_ms: Option<[f64; 3]>,
    pub batch_size: usize,
}

impl Record {
    /// The reconciliation remainder (see [`handoff_ms`]).
    pub fn handoff_ms(&self) -> Option<f64> {
        let [q, a, e] = self.phases_ms?;
        Some(handoff_ms(self.due_latency_ms?, self.late_ms, q, a, e))
    }
}

/// One probe: every request sent at one rate.
#[derive(Debug, Clone)]
pub struct Probe {
    pub records: Vec<Record>,
    /// Queue depth seen right after each send.
    pub depths: Vec<usize>,
}

/// Sends `inputs[i % inputs.len()]` at `start + offsets[i]` for every `i`, and
/// returns once every request has resolved. `check(i, outputs)` decides
/// whether a response is correct; a wrong one counts as failed.
pub fn run_open_loop(
    server: &Server,
    inputs: &[Tensor],
    offsets: &[Duration],
    deadline: Duration,
    check: &(dyn Fn(usize, &[Tensor]) -> bool + Sync),
    tracer: &Tracer,
) -> Probe {
    type Sent = (usize, Instant, Result<rtoss_serve::Ticket, RequestError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let parent = tracer.current();
    let mut depths = Vec::with_capacity(offsets.len());
    let mut sent_meta = Vec::with_capacity(offsets.len());
    let (collected, waits) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            let mut waits = Vec::new();
            for (i, due, ticket) in rx {
                let t0 = Instant::now();
                let result = ticket.and_then(|t| t.wait());
                let done = Instant::now();
                waits.push((i, t0, done));
                let rec = match result {
                    Ok(resp) => {
                        let ok = check(i, &resp.outputs);
                        let t = resp.timing;
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        (
                            if ok {
                                Outcome::Completed
                            } else {
                                Outcome::Failed
                            },
                            Some(ms(done.saturating_duration_since(due))),
                            Some([ms(t.queue_wait), ms(t.batch_assembly), ms(t.execute)]),
                            resp.batch_size,
                        )
                    }
                    Err(RequestError::Shed) => (Outcome::Shed, None, None, 0),
                    Err(RequestError::Rejected) => (Outcome::Rejected, None, None, 0),
                    Err(_) => (Outcome::Failed, None, None, 0),
                };
                out.push(rec);
            }
            (out, waits)
        });
        let start = Instant::now() + Duration::from_millis(1);
        for (i, off) in offsets.iter().enumerate() {
            let due = start + *off;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let input = inputs[i % inputs.len()].clone();
            let sent = Instant::now();
            let ticket = tracer.span("submit", Some(i as u64), || {
                server.submit(input, Some(deadline))
            });
            let submit_us = sent.elapsed().as_secs_f64() * 1e6;
            depths.push(server.queue_len());
            sent_meta.push((
                sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                submit_us,
            ));
            if tx.send((i, due, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    for (i, t0, t1) in waits {
        let id = tracer.fresh_id();
        tracer.record(Span {
            id,
            name: "wait",
            start_ns: tracer.ns_at(t0),
            end_ns: tracer.ns_at(t1),
            parent,
            request: Some(i as u64),
        });
    }
    let records = collected
        .into_iter()
        .zip(sent_meta)
        .map(
            |((outcome, due_latency_ms, phases_ms, batch_size), (late_ms, submit_us))| Record {
                outcome,
                due_latency_ms,
                late_ms,
                submit_us,
                phases_ms,
                batch_size,
            },
        )
        .collect();
    Probe { records, depths }
}

/// Waits until the server's queue is empty and one batch timeout more
/// has passed, so the next probe starts from an idle server.
pub fn settle(server: &Server, batch_timeout: Duration) {
    let t = Instant::now();
    while server.queue_len() > 0 && ms_since(t) < 1000.0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    std::thread::sleep(batch_timeout);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_serve::{BackpressurePolicy, ExecConfig, ServeConfig, ServeModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Echoes its input, but stalls for `stall` on its first batch.
    struct Stalling {
        calls: AtomicUsize,
        stall: Duration,
    }

    impl ServeModel for Stalling {
        fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(self.stall);
            }
            Ok(vec![batch.clone()])
        }
    }

    #[test]
    fn a_generator_stall_shows_as_latency_on_later_requests() {
        let model = Arc::new(Stalling {
            calls: AtomicUsize::new(0),
            stall: Duration::from_millis(150),
        });
        // One worker, a one-slot blocking queue: while the model
        // stalls, `submit` blocks and the generator falls behind.
        let server = Server::start(
            model,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                policy: BackpressurePolicy::Block,
                max_batch: 1,
                batch_timeout: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let input = Tensor::zeros(&[1, 4]);
        // 200 requests, one per millisecond.
        let offsets: Vec<Duration> = (0..200).map(Duration::from_millis).collect();
        let tracer = Tracer::new(false);
        let probe = run_open_loop(
            &server,
            &[input],
            &offsets,
            Duration::from_secs(10),
            &|_, out| out.len() == 1,
            &tracer,
        );
        server.shutdown();
        let r = &probe.records;
        assert!(r.iter().all(|x| x.outcome == Outcome::Completed));
        // Requests due 20..100 ms in were sent only after the stall.
        let stalled = &r[20..100];
        let min_late = stalled
            .iter()
            .map(|x| x.late_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(min_late > 30.0, "generator lateness {min_late} ms");
        for x in stalled {
            let due = x.due_latency_ms.unwrap();
            let [q, a, e] = x.phases_ms.unwrap();
            // Timed from submit, the server looks fast; timed from the
            // due time, the stall is there.
            assert!(due >= x.late_ms, "{due} < {}", x.late_ms);
            assert!(
                due > 30.0 && q + a + e < due - 25.0,
                "due {due} server {}",
                q + a + e
            );
            // The parts reconcile: lateness + phases + hand-off = due.
            let h = x.handoff_ms().unwrap();
            assert!((x.late_ms + q + a + e + h - due).abs() < 1e-9);
            assert!(h > -1e-6, "hand-off {h}");
        }
    }
}
