//! Deterministic parallel sweep runner.
//!
//! Every independent-trial workload in the workspace — `run_many`
//! seed sweeps, the Monte Carlo estimators, the `figures` grids, the
//! baseline detector comparison — funnels through [`par_map`]: a
//! work-stealing map over a slice whose output is **invariant in the
//! worker count**, including `workers == 1`.
//!
//! # Determinism contract
//!
//! * Work items are indexed; each result is written to the slot of its
//!   item's index, so the output order equals the input order no
//!   matter which worker ran which item or in what interleaving.
//! * The closure receives only the item (plus its index); any
//!   randomness must be derived from per-item seeds (e.g.
//!   [`derive_seed`](crate::rng::derive_seed) of a master seed and the
//!   item index), never from shared mutable state.
//! * Reductions over the results happen after the join, sequentially,
//!   in input order — floating-point merges are therefore bit-stable.
//!
//! Under this contract `par_map(1, …)`, `par_map(2, …)`, and
//! `par_map(max, …)` return byte-identical results, which the
//! workspace's thread-count-invariance regression tests assert.
//!
//! # Worker-count resolution
//!
//! [`default_workers`] honours the `CBFD_WORKERS` environment variable
//! (CI pins it; benchmarks sweep it) and falls back to
//! `std::thread::available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "CBFD_WORKERS";

/// The worker count used when callers don't pick one: `CBFD_WORKERS`
/// if set to a positive integer, else the machine's available
/// parallelism, else 1.
pub fn default_workers() -> usize {
    if let Ok(raw) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `workers` threads, returning results in
/// input order.
///
/// The closure gets `(index, &item)`. Results are identical for any
/// `workers >= 1`; see the module docs for the contract that makes
/// this true.
///
/// # Panics
///
/// Panics if any worker panics (via `std::thread::scope`'s join).
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item produces a result")
        })
        .collect()
}

/// Maps `f` over `items` with **exclusive** access to each element, on
/// `workers` threads, returning results in input order.
///
/// The mutable counterpart of [`par_map`], built for workloads that
/// mutate disjoint state in place — the tiled simulation engine runs
/// each spatial tile's window through this. Items are claimed through
/// a single atomic cursor (work stealing) and each element is guarded
/// by its own mutex, taken exactly once and uncontended, so no
/// `unsafe` is needed to hand out disjoint `&mut` borrows. The same
/// determinism contract as [`par_map`] applies: results land in input
/// slots, and as long as `f(i, item)` depends only on `i` and the
/// item, the outcome is invariant in the worker count.
///
/// # Panics
///
/// Panics if any worker panics (via `std::thread::scope`'s join).
pub fn par_map_mut<T, R, F>(workers: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let mut item = cells[i].lock().expect("work cell poisoned");
                let result = f(i, &mut item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item produces a result")
        })
        .collect()
}

/// Runs `f` over `items` with **exclusive** access to each element, on
/// `workers` threads, discarding results.
///
/// [`par_map_mut`] minus the result slots: the tiled engine's barrier
/// phases (per-destination exchange routing) mutate disjoint state in
/// place and return nothing, so allocating a `Vec<Mutex<Option<()>>>`
/// per window would be pure churn. The same determinism contract
/// applies — as long as `f(i, item)` depends only on `i` and the item,
/// the final state of `items` is invariant in the worker count.
///
/// # Panics
///
/// Panics if any worker panics (via `std::thread::scope`'s join).
pub fn par_for_each_mut<T, F>(workers: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        for (i, t) in items.iter_mut().enumerate() {
            f(i, t);
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let mut item = cells[i].lock().expect("work cell poisoned");
                f(i, &mut item);
            });
        }
    });
}

/// Splits a trial budget into fixed-size shards, independent of the
/// worker count.
///
/// Returns `(shard_index, trials_in_shard)` pairs covering exactly
/// `trials` trials in order. Sharding by a constant size (not by the
/// worker count) is what keeps sharded reductions thread-count
/// invariant: the shard boundaries, per-shard seeds, and merge order
/// never change, only which worker computes which shard.
pub fn shard_trials(trials: u64, shard_size: u64) -> Vec<(u64, u64)> {
    assert!(shard_size > 0, "shard size must be positive");
    let mut shards = Vec::with_capacity(trials.div_ceil(shard_size) as usize);
    let mut start = 0u64;
    let mut index = 0u64;
    while start < trials {
        let len = shard_size.min(trials - start);
        shards.push((index, len));
        start += len;
        index += 1;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |_: usize, &x: &u64| {
            // A little arithmetic noise so any ordering bug shows.
            (0..=x).fold(0u64, |acc, v| {
                acc.wrapping_add(v.wrapping_mul(0x9E3779B97F4A7C15))
            })
        };
        let one = par_map(1, &items, f);
        let two = par_map(2, &items, f);
        let many = par_map(16, &items, f);
        assert_eq!(one, two);
        assert_eq!(one, many);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_keeps_order() {
        let mut items: Vec<u64> = (0..63).collect();
        let out = par_map_mut(4, &mut items, |i, x| {
            *x += 100;
            (i as u64) * 2
        });
        assert_eq!(out, (0..63).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(items, (100..163).collect::<Vec<_>>());

        let mut a: Vec<u64> = (0..17).collect();
        let mut b = a.clone();
        let bump = |_: usize, x: &mut u64| {
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            *x
        };
        assert_eq!(par_map_mut(1, &mut a, bump), par_map_mut(8, &mut b, bump));
        assert_eq!(a, b);
    }

    #[test]
    fn par_for_each_mut_matches_serial() {
        let mut serial: Vec<u64> = (0..63).collect();
        let mut threaded = serial.clone();
        let bump = |i: usize, x: &mut u64| {
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        };
        par_for_each_mut(1, &mut serial, bump);
        par_for_each_mut(8, &mut threaded, bump);
        assert_eq!(serial, threaded);

        let mut empty: Vec<u64> = Vec::new();
        par_for_each_mut(4, &mut empty, |_, _| unreachable!());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn oversubscribed_worker_count_is_clamped() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map(1000, &items, |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..8).collect();
        par_map(4, &items, |_, &x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn shards_cover_exactly_and_stably() {
        assert_eq!(shard_trials(10, 4), vec![(0, 4), (1, 4), (2, 2)]);
        assert_eq!(shard_trials(8, 4), vec![(0, 4), (1, 4)]);
        assert_eq!(shard_trials(3, 4), vec![(0, 3)]);
        assert!(shard_trials(0, 4).is_empty());
        let total: u64 = shard_trials(1_000_003, 4096).iter().map(|s| s.1).sum();
        assert_eq!(total, 1_000_003);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
