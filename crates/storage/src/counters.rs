//! Attributed engine counters. Every counter the engine keeps is a
//! [`Counter`] variant; a [`Counters`] store holds one relaxed atomic per
//! variant and reads out as a plain [`CounterSnapshot`]. Ownership runs
//! query → session → server: the query guard owns its query's store, each
//! session context owns one store its queries roll up into, and the
//! server's metrics sum the session stores.
//!
//! Code below the guard (spill writers in `rma-relation`, decode sinks in
//! [`crate::encoding`]) calls [`bump`], which adds to the store
//! [installed](install) on the current thread: activating a query guard
//! installs its store there and on every pool worker running its jobs.

use std::cell::RefCell;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares [`Counter`], [`CounterSnapshot`] (one `u64` field per
/// counter, named like the metrics-JSON key) and the mapping between
/// them, from one list.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $variant:ident => $field:ident,)*) => {
        /// One attributed engine counter. Declaration order is the
        /// metrics-JSON order; the execution counters (what
        /// `ExecStats` reports) come first, then the session counts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        const COUNT: usize = [$(stringify!($variant),)*].len();

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; COUNT] = [$(Counter::$variant,)*];

            /// The counter's snake_case name: its [`CounterSnapshot`]
            /// field and its metrics-JSON key.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }
        }

        /// A plain reading of a [`Counters`] store, one field per counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl Index<Counter> for CounterSnapshot {
            type Output = u64;

            fn index(&self, c: Counter) -> &u64 {
                match c {
                    $(Counter::$variant => &self.$field,)*
                }
            }
        }

        impl IndexMut<Counter> for CounterSnapshot {
            fn index_mut(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $(Counter::$variant => &mut self.$field,)*
                }
            }
        }
    };
}

counters! {
    /// Nanoseconds copying BATs into dense matrices.
    CopyInNs => copy_in_ns,
    /// Nanoseconds copying dense results back into BATs.
    CopyOutNs => copy_out_ns,
    /// Kernel compute nanoseconds.
    ComputeNs => compute_ns,
    /// Order-schema handling (split/sort/morph) nanoseconds.
    SortNs => sort_ns,
    /// Relational matrix operations executed.
    OpsRun => ops_run,
    /// Argument sort computations (full sorts and relative alignments).
    Sorts => sorts,
    /// Bytes written to spill files (disk footprint, never charged
    /// against the memory budget).
    SpillBytes => spill_bytes,
    /// Spill partitions created.
    SpillPartitions => spill_partitions,
    /// Forced `decode()` sinks: encoded payloads whose plain-form cache a
    /// consumer had to fill (0 = fully compressed execution).
    DecodeSinks => decode_sinks,
    /// Morsels (pool work items) the query's operators dispatched.
    Morsels => morsels,
    /// Queries issued.
    Queries => queries,
    /// Rows returned to the client.
    Rows => rows,
    /// Write conflicts hit (first-committer-wins losses).
    Conflicts => conflicts,
    /// Optimistic-commit retries the conflicts forced.
    Retries => retries,
    /// Queries killed by cancellation.
    QueriesCancelled => queries_cancelled,
    /// Queries killed by their deadline.
    DeadlineKills => deadline_kills,
    /// Queries rejected or aborted on their memory budget.
    MemRejections => mem_rejections,
    /// Operator panics caught and typed at the session boundary.
    WorkerPanics => worker_panics,
}

impl CounterSnapshot {
    /// Per-counter growth from `earlier` to `self` (saturating).
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut d = CounterSnapshot::default();
        for c in Counter::ALL {
            d[c] = self[c].saturating_sub(earlier[c]);
        }
        d
    }
}

/// One relaxed atomic per [`Counter`]: lock-free to add from any thread.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; COUNT]);

impl Counters {
    /// Add `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }

    /// Zero counter `c`.
    pub fn reset(&self, c: Counter) {
        self.0[c as usize].store(0, Ordering::Relaxed);
    }

    /// Read every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut s = CounterSnapshot::default();
        for c in Counter::ALL {
            s[c] = self.get(c);
        }
        s
    }

    /// Add every counter of `s` (a finished query's counts, an
    /// operation's local tally) into this store.
    pub fn add_all(&self, s: &CounterSnapshot) {
        for c in Counter::ALL {
            if s[c] > 0 {
                self.add(c, s[c]);
            }
        }
    }

    /// Count one issued query.
    pub fn record_query(&self) {
        self.add(Counter::Queries, 1);
    }

    /// Count `n` rows returned to the client.
    pub fn record_rows(&self, n: u64) {
        self.add(Counter::Rows, n);
    }

    /// Count one first-committer-wins write conflict and the retry it
    /// forces.
    pub fn record_conflict(&self) {
        self.add(Counter::Conflicts, 1);
        self.add(Counter::Retries, 1);
    }
}

thread_local! {
    /// The store [`bump`] adds to on this thread: the running query's.
    static CURRENT: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
}

/// Add `n` to counter `c` of the query running on this thread; a no-op
/// when no query's counters are installed.
pub fn bump(c: Counter, n: u64) {
    CURRENT.with(|cur| {
        if let Some(q) = &*cur.borrow() {
            q.add(c, n);
        }
    });
}

/// Route this thread's [`bump`]s to `counters` until the returned scope
/// drops. Scopes nest; the innermost wins.
pub fn install(counters: Arc<Counters>) -> Installed {
    let prev = CURRENT.with(|cur| cur.replace(Some(counters)));
    Installed { prev }
}

/// RAII scope of [`install`]: restores the previously installed store.
#[must_use = "the counters are only installed while this value lives"]
#[derive(Debug)]
pub struct Installed {
    prev: Option<Arc<Counters>>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|cur| cur.replace(self.prev.take()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_snapshot_fields() {
        let mut s = CounterSnapshot::default();
        s[Counter::SpillBytes] = 7;
        s[Counter::WorkerPanics] = 2;
        assert_eq!(s.spill_bytes, 7);
        assert_eq!(s.worker_panics, 2);
        assert_eq!(Counter::DecodeSinks.name(), "decode_sinks");
        assert_eq!(Counter::ALL.len(), 18);
    }

    #[test]
    fn bump_reaches_only_the_installed_store() {
        let q = Arc::new(Counters::default());
        bump(Counter::DecodeSinks, 1); // nothing installed: dropped
        {
            let _outer = install(Arc::clone(&q));
            bump(Counter::DecodeSinks, 2);
            let inner = Arc::new(Counters::default());
            {
                let _inner = install(Arc::clone(&inner));
                bump(Counter::DecodeSinks, 5);
            }
            assert_eq!(inner.get(Counter::DecodeSinks), 5);
            bump(Counter::SpillBytes, 3);
        }
        bump(Counter::DecodeSinks, 1);
        assert_eq!(q.get(Counter::DecodeSinks), 2);
        assert_eq!(q.get(Counter::SpillBytes), 3);
    }

    #[test]
    fn snapshots_add_and_diff() {
        let a = Counters::default();
        a.record_conflict();
        a.add(Counter::Rows, 10);
        let s0 = a.snapshot();
        a.add_all(&s0);
        let s1 = a.snapshot();
        assert_eq!(s1.rows, 20);
        assert_eq!(s1.since(&s0).retries, 1);
        assert_eq!(s1.conflicts, 2);
        a.reset(Counter::Rows);
        assert_eq!(a.get(Counter::Rows), 0);
    }
}
