//! Order statistics over the benchmark's samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `q·n` samples at or below it. Picks an observed
/// value (no interpolation), so with `n ≥ 100` the 0.9-quantile has at
/// least ten samples beyond it. Returns 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for even counts.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Slices a measured run is cut into; see [`quietest`].
pub const SLICES: usize = 5;

/// The end-to-end timing figures of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quietest {
    pub p50: f64,
    pub p90: f64,
    pub per_second: f64,
}

/// Timing figures of the quietest slices of a run. The host slows jobs
/// down by 20–60 % in bursts of seconds (README, "The host is the noise
/// floor"); interference only ever adds time, so the run is cut into
/// [`SLICES`] equal slices and each figure is taken from the slice where
/// it is best: the lowest slice median, the lowest slice 90th percentile,
/// the highest slice throughput. `jobs` are `(at, wall)` with `at` the
/// job's position on a time axis of length `total_s` seconds.
pub fn quietest(jobs: &[(f64, f64)], total_s: f64) -> Quietest {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(at, wall) in jobs {
        let k = (at / total_s * SLICES as f64) as usize;
        slices[k.min(SLICES - 1)].push(wall);
    }
    slices.retain(|s| !s.is_empty());
    let lowest = |q: f64| {
        slices
            .iter()
            .map(|s| quantile(s, q))
            .fold(f64::INFINITY, f64::min)
    };
    let busiest = slices.iter().map(Vec::len).max().unwrap_or(0);
    if busiest == 0 {
        return Quietest {
            p50: 0.0,
            p90: 0.0,
            per_second: 0.0,
        };
    }
    Quietest {
        p50: lowest(0.5),
        p90: lowest(0.9),
        per_second: ratio(busiest as f64, total_s / SLICES as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0, "ten samples lie beyond p90 of 100");
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
        // Order of arrival does not matter.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quietest_slice_ignores_a_burst() {
        // 100 jobs of 10 ms on a 1 s axis; jobs 20..60 hit a burst of 15 ms.
        let jobs: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                (
                    i as f64 / 100.0,
                    if (20..60).contains(&i) { 15.0 } else { 10.0 },
                )
            })
            .collect();
        let q = quietest(&jobs, 1.0);
        assert_eq!((q.p50, q.p90), (10.0, 10.0));
        assert_eq!(q.per_second, 100.0, "20 jobs in each 0.2 s slice");
        let walls: Vec<f64> = jobs.iter().map(|j| j.1).collect();
        assert_eq!(
            quantile(&walls, 0.9),
            15.0,
            "the whole-run p90 sits in the burst"
        );

        assert_eq!(quietest(&[], 1.0).p50, 0.0);
        let one = quietest(&[(0.99, 7.0)], 1.0);
        assert_eq!((one.p50, one.p90, one.per_second), (7.0, 7.0, 5.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 3.0, 1.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
