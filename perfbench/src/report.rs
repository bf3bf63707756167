//! Summaries, the run record and the result line.

use agemul_conformance::Json;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The quantile over windows at which a run reads its latencies (and
/// `1 - WINDOW_QUANTILE` for its rates): the lower quartile, so that a
/// burst of interference within a window that the calibration after it
/// missed moves the reading only once it reaches a quarter of the
/// windows.
pub const WINDOW_QUANTILE: f64 = 0.25;

/// One window of a timed phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Window {
    /// Latency of every operation completed in the window, µs.
    pub latencies_us: Vec<f64>,
    /// The window's length, s.
    pub seconds: f64,
    /// Host-speed factor measured right after the window
    /// ([`crate::calib::host_factor`]): 1 on an undisturbed
    /// host, 1.5 when the host runs the calibration kernel 1.5 times
    /// slower.
    pub host: f64,
}

/// Latency and throughput of a timed phase, read over its windows with
/// each window corrected for the host's speed.
///
/// The benchmark shares a few cores with other tenants. Their load comes
/// and goes over seconds to minutes and can slow every instruction by half
/// or more, so the same program reads differently from run to run. Each
/// window's latencies are divided, and its rate multiplied, by the
/// host-speed factor measured right after it. The calibration kernel runs
/// no code of the program, so a change to the program moves the corrected
/// figures as it moves the measured ones, while a slower host moves both
/// the window and its factor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Completed operations per second.
    pub throughput: f64,
    /// Uncorrected `p50_us`, read the same way.
    pub raw_p50_us: f64,
    /// Uncorrected `throughput`, read the same way.
    pub raw_throughput: f64,
    /// Median host-speed factor over the windows.
    pub host: f64,
    /// Windows that completed at least one operation.
    pub windows: usize,
}

/// Summarises a timed phase. Each window with at least one operation gets
/// its own nearest-rank p50, p95 and p99 and its own rate, corrected by its
/// host factor; the phase reads the [`WINDOW_QUANTILE`] of the per-window
/// latencies and the `1 - WINDOW_QUANTILE` quantile of the rates.
pub fn windowed(windows: &[Window]) -> Windowed {
    let used: Vec<&Window> = windows
        .iter()
        .filter(|w| !w.latencies_us.is_empty())
        .collect();
    let over = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { used.iter().map(|w| f(w)).collect() };
    let latency = |q: f64| move |w: &Window| quantile(&w.latencies_us, q);
    let rate = |w: &Window| w.latencies_us.len() as f64 / w.seconds.max(f64::MIN_POSITIVE);
    let low = |v: Vec<f64>| quantile(&v, WINDOW_QUANTILE);
    let high = |v: Vec<f64>| quantile(&v, 1.0 - WINDOW_QUANTILE);
    let corrected = |q: f64| low(over(&|w| latency(q)(w) / w.host));
    Windowed {
        p50_us: corrected(0.50),
        p95_us: corrected(0.95),
        p99_us: corrected(0.99),
        throughput: high(over(&|w| rate(w) * w.host)),
        raw_p50_us: low(over(&latency(0.50))),
        raw_throughput: high(over(&rate)),
        host: median(&over(&|w| w.host)),
        windows: used.len(),
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available parallelism of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision: `git rev-parse HEAD` when run from the root of a
/// git checkout, else `unknown`.
pub fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// A window of `n` operations at `lat_us` each, back to back, on a host
    /// running at `host` times the undisturbed time.
    fn window(n: usize, lat_us: f64, host: f64) -> Window {
        Window {
            latencies_us: vec![lat_us; n],
            seconds: n as f64 * lat_us * 1e-6,
            host,
        }
    }

    #[test]
    fn windows_are_corrected_for_the_host_and_read_at_the_lower_quartile() {
        // 20 windows of 1 ms operations; the host slows 12 of them by 1.5×
        // (and the calibration sees it), and an uncalibrated burst triples
        // four more.
        let mut phase: Vec<Window> = (0..20)
            .map(|i| match i {
                4..=15 => window(1000, 1_500.0, 1.5),
                16..=19 => window(1000, 3_000.0, 1.0),
                _ => window(1000, 1_000.0, 1.0),
            })
            .collect();
        phase.push(Window::default());
        let w = windowed(&phase);
        assert_eq!(w.windows, 20);
        assert_eq!((w.p50_us, w.p95_us, w.p99_us), (1_000.0, 1_000.0, 1_000.0));
        assert!((w.throughput - 1_000.0).abs() < 1e-6);
        assert_eq!(w.raw_p50_us, 1_500.0);
        assert_eq!(w.host, 1.5);
        // A slower program moves every window, and the reading with it.
        let slower: Vec<Window> = phase
            .iter()
            .map(|w| Window {
                latencies_us: w.latencies_us.iter().map(|l| l * 1.1).collect(),
                seconds: w.seconds * 1.1,
                host: w.host,
            })
            .collect();
        let s = windowed(&slower);
        assert!((s.p50_us / w.p50_us - 1.1).abs() < 1e-9);
        assert!((w.throughput / s.throughput - 1.1).abs() < 1e-9);
        // Nearest-rank quantiles within a window.
        let ramp = Window {
            latencies_us: (1..=100).map(f64::from).collect(),
            seconds: 100.0,
            host: 1.0,
        };
        let w = windowed(&[ramp]);
        assert_eq!(
            (w.windows, w.p50_us, w.p95_us, w.p99_us),
            (1, 50.0, 95.0, 99.0)
        );
        assert_eq!(w.throughput, 1.0);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
