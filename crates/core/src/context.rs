//! Execution options, kernel delegation policy, and instrumentation.
//!
//! The paper's query optimizer "decides about external library calls based
//! on the complexity of the operation, the amount of data to be copied, and
//! the relative performance" (§7.3). [`Backend::Auto`] encodes that policy;
//! [`ExecStats`] measures the data-transformation share reported in Fig. 14.

use crate::shape::RmaOp;
use rma_relation::{ActiveGuard, PoolStats, QueryGuard, WorkerPool};
use rma_storage::{Counter, Counters};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which kernel family computes base results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's policy: element-wise operations stay on BATs, complex
    /// operations are delegated to the dense (MKL-role) kernel unless the
    /// matrix would exceed the memory budget, in which case the no-copy BAT
    /// kernel is used where available.
    #[default]
    Auto,
    /// Force the no-copy column-at-a-time kernels (RMA+BAT). Operations
    /// without a BAT implementation (SVD/eigen) still fall back to dense.
    Bat,
    /// Force the dense contiguous kernels (RMA+MKL), copying in and out.
    Dense,
}

/// Sorting policy for order-schema handling (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortPolicy {
    /// Skip sorting for operations whose result does not depend on the row
    /// order, and use relative alignment for element-wise operations.
    #[default]
    Optimized,
    /// Always materialise the full sort of every argument (the unoptimised
    /// baseline of Fig. 13).
    Always,
}

/// Options controlling RMA execution.
#[derive(Debug, Clone)]
pub struct RmaOptions {
    /// Which kernel family computes base results ([`Backend::Auto`] is the
    /// paper's policy).
    pub backend: Backend,
    /// Order-schema sorting policy (§8.1).
    pub sort_policy: SortPolicy,
    /// Worker threads for *plan execution*. Sizes the context's session
    /// [`WorkerPool`] (created at context construction; contexts at the
    /// default count share one process-wide pool). With `threads > 1` the
    /// operators with a parallel implementation (selection, hash joins,
    /// aggregation, sort/top-k) run morsel-parallel on that pool; `1` runs
    /// every operator serially. The dense kernels in `rma-linalg` run on the same
    /// substrate: constructing any context installs the process-wide
    /// default-sized pool as their executor
    /// ([`rma_linalg::install_parallelism`]), still budgeted by the shared
    /// `RMA_THREADS` knob ([`rma_linalg::available_threads`]). Defaults to
    /// [`default_threads`].
    pub threads: usize,
    /// Enable the cost-based join-order enumerator
    /// (`rma_core::plan::optimize`). Off, inner-join trees execute in the
    /// order the frontend wrote them — the ablation baseline of the
    /// `joinorder` bench target.
    pub join_reorder: bool,
    /// Per-query memory budget in bytes for the resource governor
    /// (`0` = unlimited, the default). When set, plan execution mints a
    /// `QueryGuard` and charges allocation-weight estimates at every
    /// materialization point (hash-join builds, sort permutations,
    /// aggregate states, the final `materialize()`); a breach aborts the
    /// query with `RmaError::ResourceExhausted` within one morsel's work.
    /// The same budget steers [`Backend::Auto`]'s kernel choice: a dense
    /// copy that would not fit it takes the no-copy BAT kernel
    /// ([`RmaContext::choose_kernel`]).
    pub mem_budget: usize,
    /// Per-query deadline for the resource governor (`None` = no
    /// deadline). Measured from the start of each plan execution; a query
    /// that outlives it aborts with `RmaError::DeadlineExceeded` within
    /// one morsel's work. Serving deployments usually set this per
    /// session (`serve::Session::set_deadline`) instead.
    pub deadline: Option<Duration>,
}

impl Default for RmaOptions {
    fn default() -> Self {
        RmaOptions {
            backend: Backend::Auto,
            sort_policy: SortPolicy::Optimized,
            threads: default_threads(),
            join_reorder: true,
            mem_budget: 0,
            deadline: None,
        }
    }
}

/// The dense-copy budget [`Backend::Auto`] assumes when no memory budget
/// is set (`mem_budget == 0`, unlimited).
const UNLIMITED_DENSE_COPY: u64 = 8 << 30; // 8 GiB

/// The default worker-thread count for plan execution: exactly the dense
/// kernels' process-wide budget ([`rma_linalg::available_threads`] —
/// `RMA_THREADS` env override, else hardware parallelism, capped), so one
/// knob and one parsing rule configure both layers.
pub fn default_threads() -> usize {
    rma_linalg::available_threads()
}

/// Which kernel actually ran (recorded per operation for tests/benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelUsed {
    /// The no-copy column-at-a-time kernel.
    Bat = 1,
    /// The dense contiguous kernel.
    Dense = 2,
    /// A BAT-forced operation had no BAT implementation.
    DenseFallback = 3,
}

/// Timing breakdown of the last operations run through a context: the
/// execution counters of its [`Counters`] store, read by
/// [`RmaContext::stats`].
///
/// `copy_in`/`copy_out` cover the BAT↔dense transformations only — the
/// quantity Fig. 14b reports as the transformation share; `compute` is the
/// kernel time; `sort` is order-schema handling (split/sort/morph).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Time spent copying BATs into dense matrices.
    pub copy_in: Duration,
    /// Time spent copying dense results back into BATs.
    pub copy_out: Duration,
    /// Kernel compute time.
    pub compute: Duration,
    /// Order-schema handling time (split/sort/morph).
    pub sort: Duration,
    /// Number of relational matrix operations executed.
    pub ops_run: u32,
    /// Number of argument sort computations performed (full sorts and
    /// relative alignments). The lazy plan optimizer's redundant-sort
    /// elimination is observable here: consecutive operations over the same
    /// order schema sort once, not once per operation.
    pub sorts: u32,
    /// The kernel family of the most recent operation, if any ran.
    pub last_kernel: Option<KernelUsed>,
    /// Bytes the out-of-core operators wrote to spill files (disk
    /// footprint, never charged against the memory budget).
    pub spill_bytes: u64,
    /// Spill partitions/runs the out-of-core operators created.
    pub spill_partitions: u64,
    /// Forced `decode()` sink events: encoded columns a kernel could not
    /// process in encoded form and had to materialize to plain storage.
    pub decode_sinks: u64,
}

impl ExecStats {
    /// Fraction of (copy + compute) time spent copying — the Fig. 14 metric.
    pub fn transform_share(&self) -> f64 {
        let copy = self.copy_in + self.copy_out;
        let total = copy + self.compute;
        if total.is_zero() {
            return 0.0;
        }
        copy.as_secs_f64() / total.as_secs_f64()
    }
}

/// Nanoseconds since `t`, for the time counters.
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A query minted by [`RmaContext::enter`]. Its counters roll up on drop,
/// unwinding included, so a panicking query still reports what it did.
pub(crate) struct QueryScope<'a> {
    ctx: &'a RmaContext,
    guard: QueryGuard,
    _active: ActiveGuard,
}

impl Drop for QueryScope<'_> {
    fn drop(&mut self) {
        self.ctx.counters.add_all(&self.guard.counters().snapshot());
    }
}

/// The process-wide worker pool shared by every context running at the
/// default thread count. Building it also installs it as the dense kernels'
/// executor, so relational operators and matrix kernels run on one thread
/// set. Never dropped: its workers are parked (not burning CPU) between
/// jobs for the life of the process.
fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = Arc::new(WorkerPool::new(default_threads()));
        let _ = rma_linalg::install_parallelism(Arc::new(PoolParallelism(Arc::clone(&pool))));
        pool
    })
}

/// Adapter: the session worker pool as the dense kernels' executor.
struct PoolParallelism(Arc<WorkerPool>);

impl rma_linalg::Parallelism for PoolParallelism {
    fn threads(&self) -> usize {
        self.0.threads()
    }

    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        self.0.broadcast(f)
    }
}

/// The pool a context with `threads` workers executes on: the shared
/// process-wide pool at the default count, a private pool otherwise (an
/// explicit non-default `RmaOptions::threads` gets exactly what it asked
/// for without resizing anyone else's pool). The global pool — and with it
/// the dense kernels' pooled executor — is brought up either way, so the
/// "kernels ride the pool" guarantee holds for every context, not just
/// default-threaded ones.
fn pool_for(threads: usize) -> Arc<WorkerPool> {
    let global = global_pool();
    if threads.max(1) == default_threads() {
        Arc::clone(global)
    } else {
        Arc::new(WorkerPool::new(threads))
    }
}

/// An execution context: options, one [`Counters`] store, and the
/// session worker pool every parallel operator of this context runs on.
/// Create one per query (cheap — default-threaded contexts share one
/// process-wide pool) or keep one around per session. `Sync`: parallel
/// workers may share one context and count concurrently. Operations add
/// their phase times to the store directly; each query minted on the
/// context adds its own counters (spill, decode sinks) once when it ends.
#[derive(Debug)]
pub struct RmaContext {
    /// Execution options this context runs operations under. `threads` is
    /// read at construction to size the worker pool; mutate options through
    /// a new context, not in place.
    pub options: RmaOptions,
    counters: Arc<Counters>,
    /// The most recent operation's [`KernelUsed`] discriminant (0 = none).
    last_kernel: Arc<AtomicU8>,
    pool: Arc<WorkerPool>,
}

impl Default for RmaContext {
    fn default() -> Self {
        RmaContext::new(RmaOptions::default())
    }
}

impl RmaContext {
    /// Context with the given options and zeroed statistics.
    pub fn new(options: RmaOptions) -> Self {
        let pool = pool_for(options.threads);
        RmaContext {
            options,
            counters: Arc::default(),
            last_kernel: Arc::default(),
            pool,
        }
    }

    /// The session worker pool this context's parallel operators run on.
    /// Fixed threads, parked between jobs — consecutive `execute` calls
    /// reuse them (see `rma_relation::par` for the job contract).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Snapshot the session pool's counters and gauges — total threads,
    /// process-wide threads spawned, jobs completed, current queue depth,
    /// cumulative queue-wait and busy time
    /// ([`rma_relation::PoolStats`]). The public observation point for
    /// pool behaviour (thread reuse, scheduler pressure, utilization);
    /// forked contexts share the pool and therefore the same stats.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// This context under a different backend, sharing everything else —
    /// pool and counters — so the plan interpreter's per-node backend
    /// overrides count into the caller's store and never spawn a second
    /// worker set.
    pub(crate) fn with_backend_shared(&self, backend: Backend) -> RmaContext {
        RmaContext {
            options: RmaOptions {
                backend,
                ..self.options.clone()
            },
            counters: Arc::clone(&self.counters),
            last_kernel: Arc::clone(&self.last_kernel),
            pool: Arc::clone(&self.pool),
        }
    }

    /// A context with the same options, **sharing this context's worker
    /// pool**, but with its own zeroed counters. This is how the serving
    /// layer gives each session its own attribution: concurrent sessions
    /// count into their own forked context instead of polluting a shared
    /// counter set, while still executing on the one shared pool.
    pub fn fork(&self) -> RmaContext {
        RmaContext {
            counters: Arc::default(),
            last_kernel: Arc::default(),
            ..self.with_backend_shared(self.options.backend)
        }
    }

    /// Context forcing a specific backend, other options default.
    pub fn with_backend(backend: Backend) -> Self {
        RmaContext::new(RmaOptions {
            backend,
            ..RmaOptions::default()
        })
    }

    /// This context's counter store — shared with the server's metrics
    /// registry when the context belongs to a session.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// Accumulated statistics since construction or the last reset: the
    /// [`ExecStats`] view of the counter store.
    pub fn stats(&self) -> ExecStats {
        let c = self.counters.snapshot();
        ExecStats {
            copy_in: Duration::from_nanos(c.copy_in_ns),
            copy_out: Duration::from_nanos(c.copy_out_ns),
            compute: Duration::from_nanos(c.compute_ns),
            sort: Duration::from_nanos(c.sort_ns),
            ops_run: c.ops_run as u32,
            sorts: c.sorts as u32,
            last_kernel: match self.last_kernel.load(Ordering::Relaxed) {
                1 => Some(KernelUsed::Bat),
                2 => Some(KernelUsed::Dense),
                3 => Some(KernelUsed::DenseFallback),
                _ => None,
            },
            spill_bytes: c.spill_bytes,
            spill_partitions: c.spill_partitions,
            decode_sinks: c.decode_sinks,
        }
    }

    /// Zero the accumulated statistics: the execution counters, which
    /// precede [`Counter::Queries`] (a session's query, row and governor
    /// counts keep running).
    pub fn reset_stats(&self) {
        for c in Counter::ALL.into_iter().filter(|&c| c < Counter::Queries) {
            self.counters.reset(c);
        }
        self.last_kernel.store(0, Ordering::Relaxed);
    }

    /// Record the kernel family the most recent operation ran on.
    pub(crate) fn set_last_kernel(&self, k: KernelUsed) {
        self.last_kernel.store(k as u8, Ordering::Relaxed);
    }

    /// A fresh guard for one query under this context's governor options
    /// ([`RmaOptions::deadline`], [`RmaOptions::mem_budget`]; unlimited by
    /// default).
    pub fn query_guard(&self) -> QueryGuard {
        QueryGuard::with_limits(self.options.deadline, self.options.mem_budget as u64)
    }

    /// Mint a query on this context: `guard` is active on the calling
    /// thread until the returned scope drops, and then the query's
    /// counters are added once into this context's store.
    pub(crate) fn enter(&self, guard: QueryGuard) -> QueryScope<'_> {
        QueryScope {
            ctx: self,
            _active: guard.activate(),
            guard,
        }
    }

    /// Decide the kernel for an operation on an `m × n` application part
    /// (plus the second operand's application dimensions for binary ops)
    /// under the configured policy. Public so the plan-level optimizer can
    /// make the same choice ahead of execution. [`Backend::Auto`] weighs
    /// the dense copy against the query's memory budget (§7): the active
    /// guard's when a session set one, else [`RmaOptions::mem_budget`].
    pub fn choose_kernel(
        &self,
        op: RmaOp,
        m: usize,
        n: usize,
        second: Option<(usize, usize)>,
    ) -> Backend {
        match self.options.backend {
            Backend::Bat => Backend::Bat,
            Backend::Dense => Backend::Dense,
            Backend::Auto => {
                if matches!(op, RmaOp::Add | RmaOp::Sub | RmaOp::Emu) {
                    // linear ops: transformation cost can never be amortised
                    Backend::Bat
                } else {
                    // complex op: use dense unless copying every operand in
                    // and the result out would not fit the budget
                    let mut cells = m * n;
                    if let Some((m2, n2)) = second {
                        cells += m2 * n2;
                    }
                    let est = (2 * cells * std::mem::size_of::<f64>()) as u64;
                    let budget = rma_relation::current_guard()
                        .map(|g| g.mem_budget())
                        .filter(|&b| b > 0)
                        .unwrap_or(self.options.mem_budget as u64);
                    let budget = if budget == 0 {
                        UNLIMITED_DENSE_COPY
                    } else {
                        budget
                    };
                    if est <= budget {
                        Backend::Dense
                    } else {
                        Backend::Bat
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_storage::CounterSnapshot;

    #[test]
    fn auto_policy_matches_paper() {
        let ctx = RmaContext::default();
        assert_eq!(
            ctx.choose_kernel(RmaOp::Add, 1_000_000, 10, Some((1_000_000, 10))),
            Backend::Bat
        );
        assert_eq!(
            ctx.choose_kernel(RmaOp::Qqr, 1_000_000, 10, None),
            Backend::Dense
        );
        assert_eq!(
            ctx.choose_kernel(RmaOp::Inv, 100, 100, None),
            Backend::Dense
        );
    }

    #[test]
    fn auto_policy_respects_memory_budget() {
        let ctx = RmaContext::new(RmaOptions {
            mem_budget: 1 << 20, // 1 MiB
            ..RmaOptions::default()
        });
        // 1M × 10 doubles ≈ 80 MB > 1 MiB → BAT
        assert_eq!(
            ctx.choose_kernel(RmaOp::Qqr, 1_000_000, 10, None),
            Backend::Bat
        );
        assert_eq!(ctx.choose_kernel(RmaOp::Qqr, 100, 10, None), Backend::Dense);
    }

    #[test]
    fn binary_budget_counts_both_operands() {
        // 60 KiB budget: one 32×100 operand copies in 2·32·100·8 ≈ 50 KiB,
        // but mmu's second operand of the same size pushes past the budget.
        let ctx = RmaContext::new(RmaOptions {
            mem_budget: 60 << 10,
            ..RmaOptions::default()
        });
        assert_eq!(ctx.choose_kernel(RmaOp::Mmu, 32, 100, None), Backend::Dense);
        assert_eq!(
            ctx.choose_kernel(RmaOp::Mmu, 32, 100, Some((100, 32))),
            Backend::Bat
        );
    }

    #[test]
    fn forced_backends() {
        assert_eq!(
            RmaContext::with_backend(Backend::Bat).choose_kernel(RmaOp::Qqr, 10, 10, None),
            Backend::Bat
        );
        assert_eq!(
            RmaContext::with_backend(Backend::Dense).choose_kernel(
                RmaOp::Add,
                10,
                10,
                Some((10, 10))
            ),
            Backend::Dense
        );
    }

    #[test]
    fn stats_accumulate_and_share() {
        let ctx = RmaContext::default();
        let s = CounterSnapshot {
            copy_in_ns: 30_000_000,
            copy_out_ns: 10_000_000,
            compute_ns: 60_000_000,
            sort_ns: 5_000_000,
            ops_run: 1,
            sorts: 1,
            ..CounterSnapshot::default()
        };
        ctx.counters().add_all(&s);
        ctx.counters().add_all(&s);
        ctx.set_last_kernel(KernelUsed::Dense);
        let acc = ctx.stats();
        assert_eq!(acc.ops_run, 2);
        assert_eq!(acc.sorts, 2);
        assert_eq!(acc.compute, Duration::from_millis(120));
        assert!((acc.transform_share() - 0.4).abs() < 1e-9);
        ctx.reset_stats();
        assert_eq!(ctx.stats().ops_run, 0);
        assert_eq!(ExecStats::default().transform_share(), 0.0);
    }

    #[test]
    fn stats_recording_is_thread_safe() {
        // RmaContext is Sync: workers record without a lock and no update
        // is lost
        let ctx = RmaContext::default();
        let s = CounterSnapshot {
            compute_ns: 10_000,
            ops_run: 1,
            sorts: 2,
            ..CounterSnapshot::default()
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        ctx.counters().add_all(&s);
                        ctx.set_last_kernel(KernelUsed::Bat);
                    }
                });
            }
        });
        let acc = ctx.stats();
        assert_eq!(acc.ops_run, 800);
        assert_eq!(acc.sorts, 1600);
        assert_eq!(acc.compute, Duration::from_millis(8));
        assert_eq!(acc.last_kernel, Some(KernelUsed::Bat));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
        assert!(RmaOptions::default().threads >= 1);
    }
}
