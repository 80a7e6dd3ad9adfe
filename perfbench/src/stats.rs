//! The benchmark's own statistics: nearest-rank percentiles, the
//! tail-percentile rule, the `sustained_rps` ladder rule and the two
//! reconciliation identities (`run.residual_ms`, `serve.handoff_ms`).

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 * n)` (1-based), so the result is always an
/// observed sample. `p` is clamped to `[0, 100]`; `p = 0` gives the
/// minimum. Returns `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The highest whole percentile `p` (at most 99) whose nearest-rank
/// value still has at least ten samples strictly above its rank:
/// `n - ceil(p/100 * n) >= 10`. A sample of `n` supports a tail
/// percentile only when `n >= 20` (p50 at the least); `None` below.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| {
        let rank = (p as f64 / 100.0 * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// One rung of the serving ladder: the median over every probe of that
/// rate in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RungResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Due-time tail latency in ms, with every request that missed
    /// (shed, rejected, failed) counted as infinitely late.
    pub tail_ms: f64,
    /// Queue-depth growth (see [`backlog_growth`]).
    pub backlog_growth: f64,
}

/// Queue-depth growth across one probe: mean depth seen by the last
/// quarter of sends minus the mean seen by the first quarter. A stable
/// queue oscillates around a level, so the difference stays near zero;
/// an overloaded one grows for the whole probe.
pub fn backlog_growth(depths: &[usize]) -> f64 {
    let q = depths.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    avg(&depths[depths.len() - q..]) - avg(&depths[..q])
}

/// The `sustained_rps` rule: the highest ladder rate whose tail latency
/// meets `deadline_ms` and whose backlog does not grow by more than
/// `max_growth` requests. `None` when no rung passes.
pub fn sustained_rps(rungs: &[RungResult], deadline_ms: f64, max_growth: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.tail_ms <= deadline_ms && r.backlog_growth <= max_growth)
        .map(|r| r.rate)
        .max_by(f64::total_cmp)
}

/// `run.residual_ms`: the traced frame median minus the time the same
/// frame's conv steps take when replayed one by one. It is what
/// non-conv steps, input staging, level barriers and arena handling
/// cost; it goes negative when level parallelism overlaps conv steps.
pub fn residual_ms(frame_ms_p50: f64, conv_ms: f64) -> f64 {
    frame_ms_p50 - conv_ms
}

/// `serve.handoff_ms` of one request: due-time latency minus the
/// generator's lateness and the server's three timed phases. What is
/// left is the time inside `submit` plus the response hand-off (split,
/// ticket fulfilment, waking the collector).
pub fn handoff_ms(
    due_latency_ms: f64,
    late_ms: f64,
    queue_wait_ms: f64,
    assembly_ms: f64,
    execute_ms: f64,
) -> f64 {
    due_latency_ms - late_ms - queue_wait_ms - assembly_ms - execute_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        // p99 of 1000 samples is the 990th.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 99.0), Some(990.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        // 100 samples: p90 sits at rank 90, ten samples above it.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(89));
        // 1000 samples: p99 sits at rank 990.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = (p as f64 / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p}");
            if p < 99 {
                let next = ((p + 1) as f64 / 100.0 * n as f64).ceil() as usize;
                assert!(n - next < 10, "n={n}: p{} would also fit", p + 1);
            }
        }
    }

    fn rung(rate: f64, tail_ms: f64, backlog_growth: f64) -> RungResult {
        RungResult {
            rate,
            tail_ms,
            backlog_growth,
        }
    }

    #[test]
    fn sustained_rps_is_the_highest_passing_rung() {
        let rungs = [
            rung(800.0, 4.0, 0.0),
            rung(400.0, 3.0, 0.1),
            rung(1200.0, 9.0, 1.0),
            rung(1600.0, 25.0, 2.0),
            rung(2000.0, 30.0, 0.0),
        ];
        assert_eq!(sustained_rps(&rungs, 20.0, 4.0), Some(1200.0));
        assert_eq!(sustained_rps(&rungs, 30.0, 4.0), Some(2000.0));
        assert_eq!(sustained_rps(&rungs, 2.0, 4.0), None);
        assert_eq!(sustained_rps(&[], 2.0, 4.0), None);
        // A hiccup that fails a low rung does not cap the rate.
        let hiccup = [
            rung(400.0, 3.0, 0.0),
            rung(800.0, 40.0, 0.0),
            rung(1200.0, 9.0, 0.0),
        ];
        assert_eq!(sustained_rps(&hiccup, 20.0, 4.0), Some(1200.0));
    }

    #[test]
    fn sustained_rps_fails_a_rung_whose_backlog_grows() {
        let rungs = [
            rung(400.0, 3.0, 0.0),
            rung(800.0, 5.0, 1.0),
            rung(1200.0, 6.0, 12.0),
        ];
        // Latency alone would pass every rung; the growing queue at
        // 1200 rps caps the sustained rate below it.
        assert_eq!(sustained_rps(&rungs, 20.0, 4.0), Some(800.0));
        assert_eq!(sustained_rps(&rungs, 20.0, 20.0), Some(1200.0));
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarter() {
        let steady = [3, 4, 3, 4, 3, 4, 3, 4];
        assert!(backlog_growth(&steady).abs() <= 1.0);
        let growing: Vec<usize> = (0..100).collect();
        assert_eq!(backlog_growth(&growing), 75.0);
        let draining: Vec<usize> = (0..100).rev().collect();
        assert_eq!(backlog_growth(&draining), -75.0);
        assert_eq!(backlog_growth(&[5, 9, 40]), 0.0);
    }

    #[test]
    fn reconciliation_identities() {
        assert_eq!(residual_ms(120.0, 100.5), 19.5);
        // Level parallelism overlapping conv steps reads as negative.
        assert_eq!(residual_ms(90.0, 100.0), -10.0);
        let h = handoff_ms(10.0, 1.0, 4.0, 2.0, 1.5);
        assert!((h - 1.5).abs() < 1e-12);
        // The parts plus the hand-off rebuild the due-time latency.
        assert!((1.0 + 4.0 + 2.0 + 1.5 + h - 10.0).abs() < 1e-12);
    }
}
