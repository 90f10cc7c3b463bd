//! A minimal deterministic worker pool for fleet-parallel analysis.
//!
//! The workspace builds with no registry access, so it has no `rayon`;
//! this module provides the small slice of it the pipeline needs — an
//! indexed parallel map over a slice — on plain [`std::thread::scope`]
//! workers.
//!
//! Determinism is the design constraint, not a side effect: results are
//! returned **in input order** no matter how the operating system
//! schedules the workers, so a caller that computes pure per-item
//! functions gets bit-identical output at any thread count. The
//! differential harness in `tests/diff_harness.rs` holds the pipeline
//! to exactly that guarantee.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A job-count environment variable held a value that is not a
/// positive integer.
///
/// Silently falling back to the default here would be a trap: a CI
/// file with `ENERGYDX_JOBS=fulll` would quietly run at machine
/// parallelism and "pass" the single-thread determinism gate without
/// ever pinning a thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsEnvError {
    /// The offending environment variable.
    pub var: String,
    /// The raw value it held.
    pub value: String,
}

impl std::fmt::Display for JobsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is not a valid job count (expected a positive \
             integer; unset the variable or use e.g. {}=4)",
            self.var, self.value, self.var
        )
    }
}

impl std::error::Error for JobsEnvError {}

/// Parses one job-count environment value strictly.
///
/// Returns `Ok(None)` when the value is empty or whitespace-only
/// (treated as unset, like the variable not existing), `Ok(Some(n))`
/// for a positive integer, and [`JobsEnvError`] for anything else —
/// zero included, because a zero job count has no meaning the caller
/// could honor.
pub fn parse_jobs(
    var: &str,
    value: &str,
) -> Result<Option<usize>, JobsEnvError> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(JobsEnvError {
            var: var.to_owned(),
            value: value.to_owned(),
        }),
    }
}

/// Resolves a requested job count to an effective one, surfacing
/// malformed environment values as an error.
///
/// `0` means "auto": the `ENERGYDX_JOBS` environment variable if set,
/// then the machine's available parallelism, which reads cgroup files,
/// so resolve once per pool ([`crate::EnergyDx::jobs`] does), never per
/// work item. A set but invalid variable is an error, not a silent
/// default — see [`parse_jobs`].
///
/// # Errors
///
/// Returns [`JobsEnvError`] when `requested` is 0 and `ENERGYDX_JOBS`
/// holds a non-empty value that is not a positive integer.
pub fn try_resolve_jobs(requested: usize) -> Result<usize, JobsEnvError> {
    if requested > 0 {
        return Ok(requested);
    }
    const VAR: &str = "ENERGYDX_JOBS";
    if let Ok(value) = std::env::var(VAR) {
        if let Some(n) = parse_jobs(VAR, &value)? {
            return Ok(n);
        }
    }
    Ok(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1))
}

/// Resolves a requested job count to an effective one.
///
/// Infallible variant of [`try_resolve_jobs`] for deep-in-the-pipeline
/// callers that have no error channel.
///
/// # Panics
///
/// Panics with the [`JobsEnvError`] message when `ENERGYDX_JOBS`
/// holds garbage; entry points that can report errors gracefully
/// should call [`try_resolve_jobs`] first.
///
/// # Examples
///
/// ```
/// # use energydx::par::resolve_jobs;
/// assert_eq!(resolve_jobs(3), 3);
/// assert!(resolve_jobs(0) >= 1);
/// ```
pub fn resolve_jobs(requested: usize) -> usize {
    try_resolve_jobs(requested).unwrap_or_else(|e| panic!("{e}"))
}

/// Applies `f` to every element of `items`, returning the results in
/// input order.
///
/// `jobs` is a resolved count (see [`resolve_jobs`]), clamped to
/// `1..=items.len()`; with one effective job the map runs inline on
/// the calling thread (no spawn overhead). With more, workers claim
/// indices from a shared atomic counter — dynamic load balancing for
/// fleets whose traces differ wildly in length — and the results are
/// reassembled by index, so the output is identical at every thread
/// count.
///
/// # Panics
///
/// Propagates a panic from `f` (the panicking worker's payload is
/// re-raised on the calling thread).
///
/// # Examples
///
/// ```
/// # use energydx::par::par_map;
/// let doubled = par_map(&[1, 2, 3], 2, |_, &x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.min(items.len()).max(1);
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let locals: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in locals.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 3, 8] {
            let out = par_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map(&[] as &[u8], 4, |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_request_overrides_auto() {
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("ENERGYDX_JOBS", "1"), Ok(Some(1)));
        assert_eq!(parse_jobs("ENERGYDX_JOBS", " 16 "), Ok(Some(16)));
    }

    #[test]
    fn parse_jobs_treats_empty_as_unset() {
        assert_eq!(parse_jobs("ENERGYDX_JOBS", ""), Ok(None));
        assert_eq!(parse_jobs("ENERGYDX_JOBS", "   \t"), Ok(None));
    }

    #[test]
    fn parse_jobs_rejects_zero() {
        let err = parse_jobs("ENERGYDX_JOBS", "0").unwrap_err();
        assert_eq!(err.var, "ENERGYDX_JOBS");
        assert_eq!(err.value, "0");
        assert!(err.to_string().contains("positive integer"));
    }

    #[test]
    fn parse_jobs_rejects_non_numeric_garbage() {
        for bad in ["fulll", "-3", "4.5", "2x", "0x10", "∞"] {
            let err = parse_jobs("ENERGYDX_JOBS", bad)
                .expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.var, "ENERGYDX_JOBS");
            assert_eq!(err.value, bad);
            assert!(
                err.to_string().contains("ENERGYDX_JOBS"),
                "error must name the variable: {err}"
            );
        }
    }

    #[test]
    fn explicit_request_bypasses_environment_validation() {
        // A non-zero request never reads the environment, so it cannot
        // fail even when the variable holds garbage.
        assert_eq!(try_resolve_jobs(7), Ok(7));
    }

    #[test]
    fn jobs_beyond_item_count_are_harmless() {
        let out = par_map(&[1, 2], 64, |_, &x| x);
        assert_eq!(out, vec![1, 2]);
        // Zero jobs is no count at all: the map runs inline.
        assert_eq!(par_map(&[1, 2], 0, |_, &x| x), vec![1, 2]);
    }
}
