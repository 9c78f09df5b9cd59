//! # fonduer-par
//!
//! The workspace-wide data-parallel execution layer. Every hot pipeline
//! stage — corpus ingest, candidate extraction, featurization, LF
//! application, and Hogwild!-style training — shards its work by document
//! (training: by row block) and runs it on this crate's work-stealing pool
//! instead of hand-rolling its own thread management.
//!
//! ## Design
//!
//! A [`Pool`] is a lightweight handle (`n_threads` after env/hardware
//! resolution); each call to [`Pool::par_map`] / [`Pool::par_map_timed`] /
//! [`Pool::par_chunks`] runs a *scoped* fork–join execution: worker
//! threads are spawned inside a `crossbeam::scope`, so tasks may borrow
//! from the caller's stack, and every worker is joined before the call
//! returns. Tasks are distributed as contiguous index blocks into
//! per-worker work-stealing deques (`crossbeam::deque`); a worker that
//! drains its own queue steals the oldest task from a sibling, so skewed
//! workloads (one giant document) still keep all cores busy.
//!
//! ## Determinism contract
//!
//! Worker scheduling is nondeterministic, but **results never are**: every
//! task is keyed by its input index, and workers tag each result with that
//! index so the pool can scatter results back into input order before
//! returning. Callers reduce the returned values in input order on the
//! calling thread, so any pure per-item function produces byte-identical
//! output at every thread count — the property the pipeline's golden
//! tests (`tests/parallel_determinism.rs`) assert for candidates, feature
//! matrices, and label matrices.
//!
//! ## Thread-count resolution
//!
//! [`resolve_threads`] maps a requested count to an effective one:
//! the `FONDUER_THREADS` environment variable (when set to a positive
//! integer) overrides everything — the CI matrix uses it to run the whole
//! suite at 1 and 4 threads — otherwise a request of `0` means "auto"
//! (`std::thread::available_parallelism`), and any other value is capped
//! at the available parallelism: the pool only ever runs CPU-bound
//! deterministic work, so oversubscription can't win. [`Pool::exact`]
//! bypasses both knobs for tests that must spawn real worker threads
//! regardless of the host.
//!
//! ## Telemetry
//!
//! Each execution bumps the `par.tasks` counter by the number of tasks it
//! scheduled, `par.steals` by the number of tasks that ran on a worker
//! other than the one they were assigned to, and `par.local_hits` by the
//! tasks served from the worker's own queue. Per-worker busy and idle
//! time land in the `par.worker_busy_us` / `par.worker_idle_us`
//! histograms, queue depth is sampled into `par.queue_depth` at every
//! steal point, and each execution publishes a `par.utilization` gauge
//! (busy time ÷ workers × wall time) plus `par.workers`.
//!
//! ## Cross-thread tracing
//!
//! `run` captures the calling thread's [`observe::SpanContext`] at submit
//! time and re-installs it inside every worker, so the `par.worker` span
//! nests under the submitting stage's dotted path (e.g.
//! `featurize.featurize_corpus.par.worker`) with correct parent span ids
//! in the Chrome trace. Workers label themselves `par.worker.N` — a
//! stable trace `tid` per logical worker — and each submit→execute edge
//! is recorded as a flow-event pair (`observe::flow_start` on the caller,
//! `observe::flow_end` on the worker) that Perfetto draws as an arrow
//! across threads.
//!
//! ## Panics
//!
//! A panicking task propagates its payload out of the `par_*` call after
//! all workers have been joined (structured concurrency: no detached
//! threads, no half-finished scopes). Nested calls — a task that itself
//! calls into the pool — open their own scope and are fully supported.

#![warn(missing_docs)]

use crossbeam::deque::{Steal, Stealer, Worker};
use fonduer_observe as observe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Effective thread count for a requested one.
///
/// Precedence: `FONDUER_THREADS` (positive integer, taken literally) >
/// explicit request (`>= 1`, capped at the machine's available
/// parallelism) > `0` meaning auto (`available_parallelism`, falling back
/// to 1). The hardware cap exists because every pool stage here is
/// CPU-bound and deterministic: oversubscribing a small host only adds
/// spawn and scheduling overhead, never throughput.
pub fn resolve_threads(requested: usize) -> usize {
    resolve_with(requested, env_threads(), hardware_threads())
}

/// The machine's available parallelism (1 when it cannot be probed).
///
/// Probed once per process: the probe reads cgroup files (tens of µs, over
/// 100 µs on a first call), and every stage call opens a pool.
pub fn hardware_threads() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The `FONDUER_THREADS` override, if set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var("FONDUER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Pure resolution rule (separated from env/hardware access for
/// testability).
fn resolve_with(requested: usize, env: Option<usize>, hw: usize) -> usize {
    if let Some(n) = env {
        return n;
    }
    if requested >= 1 {
        requested.min(hw.max(1))
    } else {
        hw.max(1)
    }
}

/// A data-parallel execution pool. See the module docs for the design and
/// the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    n_threads: usize,
}

impl Default for Pool {
    /// An auto-sized pool (`resolve_threads(0)`).
    fn default() -> Self {
        Self::new(0)
    }
}

impl Pool {
    /// A pool of `resolve_threads(requested)` workers.
    pub fn new(requested: usize) -> Self {
        Self {
            n_threads: resolve_threads(requested),
        }
    }

    /// A pool with exactly `n` workers (min 1), bypassing both the
    /// `FONDUER_THREADS` override and the hardware cap. The golden
    /// determinism tests use this to exercise true multi-worker execution
    /// even on a single-core host.
    pub fn exact(n: usize) -> Self {
        Self {
            n_threads: n.max(1),
        }
    }

    /// Effective worker count.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Map `f` over `items` in parallel, returning results in input order.
    pub fn par_map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run(items.len(), &|i| f(&items[i]))
    }

    /// Split `items` into contiguous chunks (at most `4 × n_threads`, so
    /// stealing has granularity to work with) and map `f` over each chunk
    /// in parallel. `f` receives the chunk's starting index in `items`;
    /// per-chunk results come back in chunk order.
    pub fn par_chunks<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &[I]) -> T + Sync,
    {
        let ranges = chunk_ranges(items.len(), self.n_threads * 4);
        self.run(ranges.len(), &|k| {
            let (lo, hi) = ranges[k];
            f(lo, &items[lo..hi])
        })
    }

    /// [`Pool::par_map`] for per-document stage work: each result comes
    /// with the nanoseconds its call took on the thread that ran it (0 when
    /// [`observe::doc_timings_enabled`] is off), so the caller can record
    /// per-document timings in input order — which keeps the doc-timings
    /// table, and the documents its cap keeps, the same at every width.
    /// With one worker, or fewer than two items, the calls run inline on
    /// the calling thread and `par.tasks` is not bumped.
    pub fn par_map_timed<I, T, F>(&self, items: &[I], f: F) -> Vec<(T, u64)>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let timed = observe::doc_timings_enabled();
        let work = |item: &I| {
            let t0 = timed.then(Instant::now);
            let out = f(item);
            (out, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
        };
        if self.n_threads == 1 || items.len() < 2 {
            items.iter().map(work).collect()
        } else {
            self.par_map(items, work)
        }
    }

    /// Execute `n_tasks` index-keyed tasks and return their results in
    /// index order.
    fn run<T: Send>(&self, n_tasks: usize, task: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        if n_tasks == 0 {
            return Vec::new();
        }
        let workers = self.n_threads.min(n_tasks);
        observe::counter("par.tasks", n_tasks as u64);
        if workers <= 1 {
            return (0..n_tasks).map(task).collect();
        }
        // Pre-distribute contiguous index blocks into per-worker deques.
        let queues: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = queues.iter().map(|q| q.stealer()).collect();
        let per = n_tasks.div_ceil(workers);
        for (w, q) in queues.iter().enumerate() {
            for i in (w * per)..((w + 1) * per).min(n_tasks) {
                q.push(i);
            }
        }
        // Capture the submitting thread's span context once; every worker
        // re-installs it so its `par.worker` span nests under the stage
        // that scheduled the work. One flow pair per worker connects the
        // submit point to the worker's execution in the Chrome trace.
        let ctx = observe::current_context();
        let flows: Vec<u64> = (0..workers).map(|_| observe::flow_start()).collect();
        let steals = AtomicU64::new(0);
        let local_hits = AtomicU64::new(0);
        let busy_ns_total = AtomicU64::new(0);
        let run_start = Instant::now();
        let mut partials: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
        crossbeam::scope(|s| {
            let handles: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(w, q)| {
                    let stealers = &stealers;
                    let steals = &steals;
                    let local_hits = &local_hits;
                    let busy_ns_total = &busy_ns_total;
                    let ctx = &ctx;
                    let flow = flows[w];
                    s.spawn(move |_| {
                        observe::set_thread_label(&format!("par.worker.{w}"));
                        let _ctx = ctx.install();
                        observe::flow_end(flow);
                        let worker_start = Instant::now();
                        let _span = observe::span("par.worker");
                        let mut busy_ns = 0u64;
                        let mut locals = 0u64;
                        let mut out: Vec<(usize, T)> = Vec::new();
                        loop {
                            // Own queue first (locality), then steal the
                            // oldest task from the next sibling over.
                            if let Some(i) = q.pop() {
                                locals += 1;
                                let t0 = Instant::now();
                                out.push((i, task(i)));
                                busy_ns += t0.elapsed().as_nanos() as u64;
                                continue;
                            }
                            // Steal point: sample the total queued backlog
                            // before raiding the siblings.
                            let depth: usize = stealers.iter().map(|st| st.len()).sum();
                            observe::hist_record("par.queue_depth", depth as u64);
                            let mut stole = false;
                            let mut retry = true;
                            while retry {
                                retry = false;
                                for d in 1..stealers.len() {
                                    match stealers[(w + d) % stealers.len()].steal() {
                                        Steal::Success(i) => {
                                            steals.fetch_add(1, Ordering::Relaxed);
                                            let t0 = Instant::now();
                                            out.push((i, task(i)));
                                            busy_ns += t0.elapsed().as_nanos() as u64;
                                            stole = true;
                                            retry = false;
                                            break;
                                        }
                                        Steal::Retry => retry = true,
                                        Steal::Empty => {}
                                    }
                                }
                            }
                            if !stole {
                                break; // every queue drained
                            }
                        }
                        local_hits.fetch_add(locals, Ordering::Relaxed);
                        busy_ns_total.fetch_add(busy_ns, Ordering::Relaxed);
                        let wall_ns = worker_start.elapsed().as_nanos() as u64;
                        observe::hist_record("par.worker_busy_us", busy_ns / 1_000);
                        observe::hist_record(
                            "par.worker_idle_us",
                            wall_ns.saturating_sub(busy_ns) / 1_000,
                        );
                        out
                    })
                })
                .collect();
            partials = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // A worker panicked: re-raise its payload once the
                    // remaining workers have been joined by the scope.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect();
        })
        .expect("par scope");
        observe::counter("par.steals", steals.load(Ordering::Relaxed));
        observe::counter("par.local_hits", local_hits.load(Ordering::Relaxed));
        // Utilization: fraction of the workers' combined wall budget spent
        // inside tasks. Last-write-wins, i.e. it describes the most recent
        // execution (the RunReport snapshots it right after a stage).
        let wall_ns = (run_start.elapsed().as_nanos() as u64).max(1);
        let utilization =
            busy_ns_total.load(Ordering::Relaxed) as f64 / (wall_ns as f64 * workers as f64);
        observe::gauge_set("par.utilization", utilization.min(1.0));
        observe::gauge_set("par.workers", workers as f64);
        // Scatter back into input order: the determinism contract.
        let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
        for (i, v) in partials.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "task {i} executed twice");
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task executed exactly once"))
            .collect()
    }
}

/// Split `len` items into at most `max_chunks` contiguous `(lo, hi)`
/// ranges of near-equal size (the trailing ranges may be one shorter).
pub fn chunk_ranges(len: usize, max_chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let n = max_chunks.clamp(1, len);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut lo = 0;
    for k in 0..n {
        let hi = lo + base + usize::from(k < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_precedence() {
        assert_eq!(resolve_with(4, None, 8), 4);
        assert_eq!(resolve_with(4, Some(2), 8), 2);
        assert_eq!(resolve_with(0, Some(8), 1), 8); // env wins over hardware
        assert_eq!(resolve_with(0, None, 8), 8); // auto
        assert_eq!(resolve_with(1, Some(16), 8), 16); // env wins even over 1
        assert_eq!(resolve_with(8, None, 2), 2); // explicit capped at hardware
        assert_eq!(resolve_with(8, None, 0), 1); // degenerate probe
    }

    #[test]
    fn par_map_preserves_input_order() {
        let pool = Pool { n_threads: 4 };
        let items: Vec<u64> = (0..997).collect();
        let out = pool.par_map(&items, |&x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let pool = Pool { n_threads: 8 };
        assert_eq!(pool.par_map(&Vec::<u32>::new(), |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[42u32], |&x| x + 1), vec![43]);
        // More workers than tasks.
        assert_eq!(pool.par_map(&[1u32, 2], |&x| x * 2), vec![2, 4]);
    }

    #[test]
    fn par_chunks_covers_every_item_once() {
        let pool = Pool { n_threads: 3 };
        let items: Vec<usize> = (0..100).collect();
        let sums = pool.par_chunks(&items, |lo, chunk| {
            assert_eq!(chunk[0], lo); // chunk start index is truthful
            chunk.iter().sum::<usize>()
        });
        assert!(sums.len() <= 12);
        assert_eq!(sums.iter().sum::<usize>(), 4950);
    }

    #[test]
    fn par_map_timed_keeps_order_and_runs_narrow_maps_inline() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..40).collect();
        for n_threads in [1, 4] {
            let out =
                Pool { n_threads }.par_map_timed(&items, |&x| (x * 2, std::thread::current().id()));
            let values: Vec<u64> = out.iter().map(|((v, _), _)| *v).collect();
            assert_eq!(values, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            if n_threads == 1 {
                assert!(out.iter().all(|((_, t), _)| *t == caller));
            }
        }
        // A single item never leaves the calling thread either.
        let one = Pool { n_threads: 4 }.par_map_timed(&[7u8], |_| std::thread::current().id());
        assert_eq!(one[0].0, caller);
        // Each call is timed on the thread that ran it.
        let slept = Pool { n_threads: 2 }.par_map_timed(&[1u64, 2], |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        if observe::doc_timings_enabled() {
            assert!(
                slept[0].1 >= 1_000_000 && slept[1].1 >= 2_000_000,
                "{slept:?}"
            );
        }
    }

    #[test]
    fn identical_results_at_every_thread_count() {
        let items: Vec<u64> = (0..500).collect();
        let reference = Pool { n_threads: 1 }.par_map(&items, |&x| x.wrapping_mul(0x9e3779b9));
        for t in [2, 3, 4, 8, 16] {
            let got = Pool { n_threads: t }.par_map(&items, |&x| x.wrapping_mul(0x9e3779b9));
            assert_eq!(got, reference, "threads={t}");
        }
    }

    #[test]
    fn skewed_workloads_still_complete_in_order() {
        let pool = Pool { n_threads: 4 };
        // Task 0 is 1000× the work of the rest: stealing must rebalance.
        let items: Vec<usize> = (0..64).collect();
        let out = pool.par_map(&items, |&i| {
            let rounds = if i == 0 { 200_000 } else { 200 };
            let mut acc = i as u64;
            for _ in 0..rounds {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        let r = chunk_ranges(10, 3);
        assert_eq!(r, vec![(0, 4), (4, 7), (7, 10)]);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn stress_nested_scopes() {
        // A task that itself fans out: every level opens its own scope, so
        // nesting cannot deadlock the pool.
        let outer = Pool { n_threads: 4 };
        let inner = Pool { n_threads: 2 };
        let items: Vec<u64> = (0..8).collect();
        let out = outer.par_map(&items, |&x| {
            let inner_items: Vec<u64> = (0..50).collect();
            inner
                .par_map(&inner_items, |&y| x * 1000 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 1000 * 50 + 1225);
        }
    }

    #[test]
    fn stress_panic_propagates_out_of_workers() {
        let pool = Pool { n_threads: 4 };
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            pool.par_map(&items, |&i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 17 exploded"), "payload: {msg}");
        // The pool is still usable after a panicked execution.
        assert_eq!(pool.par_map(&[1u32, 2, 3], |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn telemetry_gauges_and_histograms_publish() {
        let pool = Pool { n_threads: 3 };
        let items: Vec<u32> = (0..64).collect();
        pool.par_map(&items, |&x| x.wrapping_mul(3));
        let snap = observe::snapshot();
        let util = snap.gauges.get("par.utilization").copied();
        // Other tests' pools race on the last-write-wins gauge, so only
        // assert presence and range, not the exact value of this run.
        assert!(util.is_some_and(|u| (0.0..=1.0).contains(&u)), "{util:?}");
        assert!(snap.gauges.contains_key("par.workers"));
        assert!(snap.histograms.contains_key("par.worker_busy_us"));
        assert!(snap.histograms.contains_key("par.worker_idle_us"));
        assert!(snap.histograms.contains_key("par.queue_depth"));
        assert!(snap.counter("par.local_hits") + snap.counter("par.steals") >= 64);
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let before = observe::Counter::named("par.tasks").get();
        let pool = Pool { n_threads: 2 };
        let items: Vec<u32> = (0..32).collect();
        pool.par_map(&items, |&x| x);
        let after = observe::Counter::named("par.tasks").get();
        assert!(after >= before + 32, "{before} -> {after}");
    }
}
