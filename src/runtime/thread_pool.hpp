// Fork-join parallel_for for campaign-level parallelism: one simulation is
// serial, but (benchmark x architecture x config x seed) grids of
// independent jobs are not. Its threads live for exactly one call.
//
// One scheduler, sharded work stealing: each worker owns one contiguous
// shard of [0, n) and claims chunks of max(1, min(64, n / (8 * threads)))
// indices from it with a fetch_add on a cache-line-private counter; once
// its shard is dry it steals chunks from the other shards, probed in a
// per-worker pseudo-random order.
//
// Why shards and not one shared counter: callers order grids so that
// neighbouring indices share expensive state (PrefixEngine::schedule_order
// groups jobs by golden run). Contiguous shards give each worker a
// different golden to build; a shared counter gives one golden's jobs to
// every worker, and all but one block while it is built. On the 4-golden
// bench_injection_prefix grid with 4 workers (4-core host) a shared
// counter took 0.735 s median against 0.453 s for the shards; on plain
// grids the two tied.
//
// Determinism: every index runs exactly once, and callers derive any
// randomness from the index, never from thread identity or claim order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace unsync::runtime {

/// What one worker did during a parallel_for (measurement only — never
/// part of any deterministic result surface).
struct WorkerStats {
  std::uint64_t indices = 0;       ///< body invocations on this worker
  std::uint64_t local_claims = 0;  ///< chunks claimed from the own shard
  std::uint64_t steals = 0;        ///< chunks claimed from another shard
  std::uint64_t steal_failures = 0;  ///< probes that found a drained shard
  std::uint64_t idle_ns = 0;  ///< hunting for work after the own shard
};

/// Scheduler counters for one parallel_for, per worker slot (slot 0 is the
/// calling thread).
struct SchedulerStats {
  std::vector<WorkerStats> workers;

  WorkerStats total() const {
    WorkerStats t;
    for (const auto& w : workers) {
      t.indices += w.indices;
      t.local_claims += w.local_claims;
      t.steals += w.steals;
      t.steal_failures += w.steal_failures;
      t.idle_ns += w.idle_ns;
    }
    return t;
  }
};

/// std::thread::hardware_concurrency with a floor of 1.
unsigned default_threads();

/// Runs body(i) for every i in [0, n) on `threads` workers (0 means
/// default_threads()): spawns `threads - 1` std::threads, drains on the
/// caller as slot 0, joins. threads == 1 spawns nothing and drains in index
/// order through the same code. If bodies throw, every index still runs,
/// then the *lowest* failed index's exception is rethrown, at any thread
/// count. Fills `*stats` (when non-null) with one entry per slot.
void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  SchedulerStats* stats = nullptr);

}  // namespace unsync::runtime
