//! Host interference: the share of CPU time the hypervisor ran something
//! else while this machine wanted to run (`steal` in `/proc/stat`).
//!
//! On a shared virtual machine, episodes of heavy steal stretch every
//! latency several times over and have nothing to do with the program.
//! Every timed sample (a slice of the read window, a set-up, a publish
//! after the window) records the steal during it, and each metric is
//! taken over the third of its samples with the least steal.

/// Steal and total CPU ticks so far, when the kernel reports them.
pub fn ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal between two readings, in percent of all CPU time (`None` when
/// unknown or when no tick elapsed).
pub fn pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Indices, in sample order, of the third (rounded up) of the samples
/// with the least steal; every index when any sample's steal is unknown.
pub fn least_stolen(steal: &[Option<f64>]) -> Vec<usize> {
    if steal.iter().any(Option::is_none) {
        return (0..steal.len()).collect();
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    // stable: equal steal keeps the earlier sample first
    order.sort_by(|&a, &b| steal[a].unwrap_or(0.0).total_cmp(&steal[b].unwrap_or(0.0)));
    order.truncate(steal.len().div_ceil(3));
    order.sort_unstable();
    order
}

/// The samples at `kept`.
pub fn pick<T: Copy>(values: &[T], kept: &[usize]) -> Vec<T> {
    kept.iter()
        .filter_map(|&i| values.get(i).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_least_stolen_third_in_order() {
        let steal = [
            Some(9.0),
            Some(0.5),
            Some(20.0),
            Some(0.5),
            Some(1.0),
            Some(2.0),
        ];
        assert_eq!(least_stolen(&steal), vec![1, 3]);
        let steal = [Some(9.0), Some(0.5), Some(20.0), Some(3.0)];
        assert_eq!(least_stolen(&steal), vec![1, 3]);
        assert_eq!(least_stolen(&[Some(1.0), None]), vec![0, 1]);
        assert_eq!(pick(&[10, 11, 12, 13, 14], &[1, 3, 4]), vec![11, 13, 14]);
        assert_eq!(pct(Some((10, 1000)), Some((30, 1100))), Some(20.0));
        assert_eq!(pct(Some((10, 1000)), Some((10, 1000))), None);
    }
}
