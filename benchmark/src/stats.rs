//! Order statistics, batch medians and `/proc` parsing — the arithmetic
//! every reported number goes through.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `xs` in place and returns its nearest-rank percentile.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile_sorted(xs, p)
}

/// The median as the mean of the two middle samples (what
/// `statistics.median` gives), so an even count is not biased low.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of the samples: as deaf to a disturbed batch
/// as the median, but not stuck on one of a few quantized values when
/// the samples are counts of 10 ms clock ticks.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "interquartile mean of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) computes them — the spread the driver judges.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Splits `samples` into batches of `batch` (the last one may be
/// shorter), applies `f` to each, and returns the median of the results:
/// one disturbed batch moves the answer by at most one rank.
pub fn batch_median(samples: &[f64], batch: usize, f: impl Fn(&mut [f64]) -> f64) -> f64 {
    assert!(batch > 0, "batch size must be positive");
    let per_batch: Vec<f64> = samples
        .chunks(batch)
        .map(|chunk| f(&mut chunk.to_vec()))
        .collect();
    median(&per_batch)
}

/// User plus system CPU time of the process, in clock ticks, from the
/// text of `/proc/self/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number after `key` (such as `VmHWM:` or `Threads:`) in the text of
/// `/proc/self/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Reads one numeric field of `/proc/self/status`.
pub fn status_field(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_status_field(&status, key).unwrap_or_else(|| panic!("{key} in /proc/self/status"))
}

/// Milliseconds per `/proc` clock tick: `USER_HZ` is 100 on every Linux
/// ABI Rust targets.
const MS_PER_TICK: f64 = 10.0;

/// CPU time the process has used so far (all threads), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 * MS_PER_TICK
}

/// Peak resident set size of the process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 5.0);
        assert_eq!(percentile_sorted(&xs, 90.0), 9.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut unsorted, 50.0), 2.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn interquartile_mean_drops_both_tails() {
        // Sorted: 1 2 3 4 5 6 7 100 -> middle half 3 4 5 6.
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(interquartile_mean(&xs), 4.5);
        assert_eq!(interquartile_mean(&[0.44, 0.43, 0.45]), 0.44);
        assert_eq!(interquartile_mean(&[2.0]), 2.0);
    }

    #[test]
    fn batch_median_with_uneven_last_batch() {
        // Batches [1,2,3] [4,5,6] [100]: per-batch maxima 3, 6, 100.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0];
        let max = |b: &mut [f64]| percentile(b, 100.0);
        assert_eq!(batch_median(&xs, 3, max), 6.0);
        // One disturbed batch out of three does not move the median.
        let ys = [1.0, 1.0, 50.0, 50.0, 1.0, 1.0];
        assert_eq!(batch_median(&ys, 2, max), 1.0);
    }

    #[test]
    fn stat_cpu_ticks_from_canned_text() {
        let stat = "4242 (cedar (bench) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 269 5 6 20 0 9 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_from_canned_text() {
        let status = "Name:\tcedar\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\nThreads:\t9\n";
        assert_eq!(parse_status_field(status, "VmHWM:"), Some(12345));
        assert_eq!(parse_status_field(status, "Threads:"), Some(9));
        assert_eq!(parse_status_field("Name:\tcedar\n", "VmHWM:"), None);
    }

    #[test]
    fn live_proc_readers_work() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
