#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace unsync::runtime {

namespace {

/// Splitmix mixer: the victim-order PRNG, seeded from the slot, not time.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// One worker's claim range, alone on its cache line for the fast path.
struct alignas(64) Shard {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point t) {
  const auto d = std::chrono::steady_clock::now() - t;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  SchedulerStats* stats) {
  const unsigned width = threads ? threads : default_threads();
  if (stats) stats->workers.assign(width, WorkerStats{});
  if (n == 0) return;

  // Chunks amortize the atomic yet leave a skewed tail stealable.
  const std::size_t chunk =
      std::clamp<std::size_t>(n / (8 * std::size_t{width}), 1, 64);
  // Balanced contiguous shards: shard w owns [w*n/W, (w+1)*n/W).
  std::vector<Shard> shards(width);
  for (unsigned w = 0; w < width; ++w) {
    shards[w].next.store(n * w / width, std::memory_order_relaxed);
    shards[w].end = n * (w + 1) / width;
  }
  std::mutex error_mu;
  std::size_t first_failed = n;
  std::exception_ptr first_error;  // of the lowest failed index

  auto run = [&](std::size_t begin, std::size_t end, WorkerStats& ws) {
    for (std::size_t i = begin; i < end; ++i) {
      ++ws.indices;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_failed) {
          first_failed = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  auto claim = [chunk](Shard& s) {
    return s.next.fetch_add(chunk, std::memory_order_relaxed);
  };
  auto drain = [&](unsigned slot) {
    WorkerStats ws;
    // Fast path: chunked claims off the worker's own, private shard.
    Shard& own = shards[slot];
    for (std::size_t i = claim(own); i < own.end; i = claim(own)) {
      ++ws.local_claims;
      run(i, std::min(i + chunk, own.end), ws);
    }
    // Slow path: steal from shards probed in random order until a full
    // sweep finds all drained (shards never refill); the wait is idle time.
    std::uint64_t rng = mix64(slot + 1);
    auto idle_since = std::chrono::steady_clock::now();
    for (bool any_claimed = width > 1; any_claimed;) {
      any_claimed = false;
      rng = mix64(rng);
      for (unsigned probe = 0; probe < width; ++probe) {
        const auto victim =
            static_cast<unsigned>((rng % width + probe) % width);
        if (victim == slot) continue;
        Shard& shard = shards[victim];
        // Relaxed pre-check: never dirty a drained shard's cache line.
        const std::size_t seen = shard.next.load(std::memory_order_relaxed);
        const std::size_t i = seen < shard.end ? claim(shard) : seen;
        if (i >= shard.end) {
          ++ws.steal_failures;
          continue;
        }
        ++ws.steals;
        any_claimed = true;
        ws.idle_ns += ns_since(idle_since);
        run(i, std::min(i + chunk, shard.end), ws);
        idle_since = std::chrono::steady_clock::now();
      }
    }
    if (width > 1) ws.idle_ns += ns_since(idle_since);
    if (stats) stats->workers[slot] = ws;
  };

  std::vector<std::thread> workers;
  try {
    for (unsigned w = 1; w < width; ++w) workers.emplace_back(drain, w);
  } catch (...) {  // a failed spawn: the started threads steal every shard
    for (auto& t : workers) t.join();
    throw;
  }
  drain(0);  // the calling thread works too (slot 0)
  for (auto& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace unsync::runtime
