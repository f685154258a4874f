// Prefix-sharing for fault-injection campaigns.
//
// Every injection job of a grid cell simulates the same fault-free prefix
// before its first error arrival — at realistic soft-error rates, most
// Monte-Carlo trials have NO arrival at all and re-simulate the entire
// golden run for an outcome that is provably identical to it. The prefix
// engine removes that redundancy:
//
//  * For each unique fault-free configuration it simulates the GOLDEN
//    (ser=0) run once, keeping a snapshot at every interval boundary: the
//    System::save_checkpoint payload as a ckpt::PackedPayload (its
//    all-zero 256-byte blocks left out), written straight into that form
//    by one reused packed Serializer. Snapshots never leave the process,
//    so they carry no container and no CRC; the "unsync.ckpt.v1"
//    container is the file and CLI format only.
//  * A job with no arrival at all is the golden run, end to end: it returns
//    the golden result outright.
//  * Every other job computes its fault channel out of band (through
//    core::System::draw_arrivals, the draw construction performs),
//    restores from the latest golden checkpoint that provably precedes its
//    first arrival (restore_golden: System::load_checkpoint_packed, which
//    reads the snapshot in place), installs its own channel
//    (System::install_fault_channel), and runs to completion.
//
// A job never rejoins the golden run once an arrival fires: every redundant
// system's recovery costs cycles (detection is certain and each strike
// stalls its core), so the recovery-stall counters — part of the state —
// differ from the golden run's for the rest of the run. So the engine never
// compares a faulty job's state with the golden run's, and never splices
// the golden tail onto a job; the PrefixPremise tests in test_prefix check
// that a fired arrival's state never matches the golden twin's again.
//
// Golden traces live in a bounded LRU cache shared by all workers of a
// process. Everything here is an execution strategy, never a result change:
// prefix-shared campaign output is byte-identical to the naive full-run
// campaign (enforced by parity tests and the bench_injection_prefix gate).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/serializer.hpp"
#include "common/types.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"

namespace unsync::runtime {

// PrefixOptions lives in runtime/campaign.hpp (CampaignRunner::Options
// embeds it); everything else about prefix sharing lives here.

/// Aggregate prefix-engine counters, published as campaign.prefix_cache.*
/// on the timing-only metrics tree (they depend on worker interleaving the
/// way steal counters do) and surfaced by `campaign status`.
struct PrefixStats {
  std::uint64_t goldens_built = 0;   ///< golden runs simulated
  std::uint64_t hits = 0;            ///< cache hits (golden already present)
  std::uint64_t misses = 0;          ///< cache misses (build required)
  std::uint64_t evictions = 0;       ///< golden traces evicted by the LRU
  std::uint64_t bytes = 0;           ///< packed snapshot bytes cached
  std::uint64_t restore_ns = 0;      ///< time spent in restore_golden
  std::uint64_t cycles_skipped = 0;  ///< simulated cycles not re-executed
  std::uint64_t jobs_restored = 0;   ///< jobs seeded from a golden checkpoint
  std::uint64_t jobs_spliced = 0;    ///< arrival-free jobs (golden result)
  std::uint64_t jobs_bypassed = 0;   ///< jobs that ran the naive path

  void merge(const PrefixStats& o);
  /// Renders the campaign.prefix_cache.* subtree.
  obs::MetricsSnapshot snapshot() const;

  /// Binary codec for the journal "stats" line (campaign status reads it
  /// back without re-running anything). decode() returns nullopt on any
  /// truncation / trailing-bytes / corruption.
  std::string encode() const;
  static std::optional<PrefixStats> decode(std::string blob);
};

/// One job's fault channel, computed without constructing a system: the
/// per-group arrival schedules, and wire bytes that also carry the RNG
/// state construction leaves behind. `encoded` is bit-identical to
/// System::fault_channel_bytes() of a freshly built system of the same
/// cell (pinned by test_prefix).
struct FaultChannel {
  std::vector<std::vector<SeqNum>> schedules;  ///< per group, ascending
  bool has_rng = false;  ///< false for systems without an error process
  std::string encoded;   ///< install_fault_channel wire bytes

  /// True when no group has any arrival — the job is provably identical
  /// to the golden run, end to end.
  bool empty() const {
    for (const auto& s : schedules) {
      if (!s.empty()) return false;
    }
    return true;
  }
};

/// The per-interval record of one golden (fault-free) run.
struct GoldenTrace {
  struct Snap {
    Cycle boundary = 0;           ///< cycle count at the snapshot
    ckpt::PackedPayload state;    ///< save_checkpoint payload, packed
    std::vector<SeqNum> progress; ///< per-group commit watermark
  };

  /// Snapshots, ascending by boundary; may be thinned under cache
  /// pressure (restores then fall back to an earlier boundary).
  std::vector<Snap> snaps;
  engine::RunResult final_result;
  std::size_t bytes = 0;  ///< total packed snapshot bytes
};

/// Simulates the golden twin of `job` (ser zeroed), recording a snapshot
/// at every `interval` boundary.
std::shared_ptr<const GoldenTrace> build_golden(const SimJob& job,
                                                std::uint64_t seed,
                                                Cycle interval);

/// Restores `snap` into `sys`, a freshly built golden twin, reading the
/// packed snapshot in place (System::load_checkpoint_packed). The engine's
/// only restore path.
void restore_golden(core::System& sys, const GoldenTrace::Snap& snap);

/// Computes a job's fault channel out of band (see FaultChannel).
FaultChannel compute_fault_channel(const SimJob& job, std::uint64_t seed);

/// Cache key of the golden run `job` shares: the job identity minus the
/// fault channel (ser zeroed, label dropped, and — for trace workloads,
/// whose streams are seed-independent — the seed dropped too, so every
/// Monte-Carlo trial of a trace cell shares one golden).
std::string golden_job_key(const SimJob& job, std::uint64_t seed);

/// Campaign-level prefix-sharing engine: a golden-trace LRU cache plus the
/// restore-then-run job path. Thread-safe; one engine is shared by all
/// workers of a campaign (per process in the distributed fabric).
class PrefixEngine {
 public:
  explicit PrefixEngine(PrefixOptions options) : options_(options) {}
  PrefixEngine(const PrefixEngine&) = delete;
  PrefixEngine& operator=(const PrefixEngine&) = delete;

  /// Runs one job through the prefix-sharing path. Byte-identical to
  /// CampaignRunner::run_job(job, seed). Callers build an engine only when
  /// sharing is on (PrefixOptions::enabled).
  engine::RunResult run_job(const SimJob& job, std::uint64_t seed);

  /// Execution-order permutation for a grid: jobs grouped by golden
  /// configuration (so each golden is built once and stays hot), ordered
  /// by first arrival within a group. Results are still reported by the
  /// true submission index — this only reorders the claim sequence.
  std::vector<std::size_t> schedule_order(const std::vector<SimJob>& jobs,
                                          std::uint64_t campaign_seed) const;

  /// Counts a job the campaign layer routed around the engine entirely
  /// (the metrics-collection path).
  void note_bypass();

  const PrefixOptions& options() const { return options_; }
  PrefixStats stats() const;

 private:
  struct CacheEntry {
    bool ready = false;
    std::shared_ptr<const GoldenTrace> trace;  ///< null until ready
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  std::shared_ptr<const GoldenTrace> acquire_golden(const SimJob& job,
                                                    std::uint64_t seed);
  void insert_golden(const std::string& key,
                     std::shared_ptr<const GoldenTrace> trace);
  void evict_over_budget_locked(const std::string& keep);

  PrefixOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< most recently used first
  PrefixStats stats_;
};

}  // namespace unsync::runtime
