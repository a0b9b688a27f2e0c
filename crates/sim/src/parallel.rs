//! Parallel fan-out of independent simulation runs.
//!
//! Every [`RunConfig`] describes a self-contained simulated network with its
//! own seeded RNG, so distinct runs share no state and can execute on any
//! thread. [`run_many`] fans a batch of configs across a worker pool and
//! returns the results **in input order** — callers observe exactly the
//! sequential semantics, only faster. With `jobs = 1` (the default) no
//! threads are spawned at all.
//!
//! The worker count is a process-wide setting ([`set_jobs`]) so the
//! `experiments` binary can honour a `--jobs N` flag without threading the
//! value through every experiment module.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::harness::{run, RunConfig, RunResult};

/// Process-wide worker count; `1` means run sequentially on the caller.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker count used by [`run_many`]. `0` is treated as `1`.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The current worker count.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// Executes every config and returns the results in input order.
///
/// Runs on the calling thread when `jobs() == 1` or there is at most one
/// config; otherwise fans the batch across `min(jobs, len)` scoped threads
/// pulling work from a shared index. Result ordering — and each individual
/// result, since every run owns its seeded RNG — is identical either way.
pub fn run_many(cfgs: &[RunConfig]) -> Vec<RunResult> {
    let workers = jobs().min(cfgs.len());
    if workers <= 1 {
        return cfgs.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = cfgs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfgs.len() {
                    break;
                }
                let result = run(&cfgs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_engine::Algorithm;

    fn cfg(seed: u64) -> RunConfig {
        let mut c = RunConfig::new(Algorithm::Sai);
        c.engine.nodes = 32;
        c.queries = 5;
        c.tuples = 30;
        c.engine.seed = seed;
        c
    }

    #[test]
    fn results_keep_input_order_and_match_sequential() {
        let cfgs: Vec<RunConfig> = (0..4).map(cfg).collect();
        let sequential: Vec<RunResult> = cfgs.iter().map(run).collect();

        let before = jobs();
        set_jobs(3);
        let parallel = run_many(&cfgs);
        set_jobs(before);

        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.filtering, s.filtering);
            assert_eq!(p.storage, s.storage);
            assert_eq!(p.total_traffic, s.total_traffic);
            assert_eq!(p.notifications, s.notifications);
        }
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let before = jobs();
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(before);
    }
}
