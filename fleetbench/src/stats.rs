//! Order statistics over a run's samples.

/// The `q`-quantile (0..=1) by linear interpolation between closest
/// ranks; `NAN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median over `windows` consecutive windows of each window's
/// `q`-quantile: a host hiccup that slows part of a run moves the
/// windows it covers, not the median window.
pub fn windowed_quantile(samples: &[f64], windows: usize, q: f64) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let per_window: Vec<f64> =
        samples.chunks(size).map(|w| quantile(w, q)).collect();
    median(&per_window)
}
