// Declarative simulation campaigns drained by runtime::parallel_for.
//
// A campaign is a grid of independent simulation jobs — (workload x
// architecture x config-point x seed) — exactly the shape of every
// evaluation artifact in this reproduction (Figures 4-6, Tables II/III,
// spec_campaign, SER sweeps, Monte-Carlo injection). CampaignRunner fans
// the grid out across workers and hands results back *in submission
// order*, so tables, CSVs and JSON built from a parallel run are
// byte-identical to the serial run.
//
// Determinism: a job with no explicit seed draws derive_seed(campaign_seed,
// job_index) — a pure function of the grid, independent of worker count,
// thread identity and claim order. threads=1 runs the same code inline on
// the caller and reproduces today's serial results exactly. Per-job metric
// registries merge in submission order, so the aggregate snapshot is
// worker-count independent too; only wall-time observations (excluded from
// the default to_json()) vary between runs.
//
// Crash safety: with Options::journal set, every completed job is appended
// and flushed to a JSONL journal (CRC-checked binary blobs, atomic rewrite
// on resume; the one writer is JournalWriter in runtime/campaign_journal.hpp);
// Options::resume restores journaled jobs and re-runs only the rest, with
// byte-identical CampaignOutput. See docs/CHECKPOINTS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/system.hpp"
#include "fault/avf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::runtime {

/// One cell of the campaign grid. Workload selection: `profile` names a
/// built-in statistical benchmark (generated per job from the job seed);
/// otherwise `trace` replays shared immutable recorded ops (kernel /
/// program / trace-file workloads — the storage is shared across jobs,
/// never copied).
struct SimJob {
  std::string label;    ///< row label, e.g. the benchmark name
  std::string profile;  ///< synthetic workload when non-empty
  std::shared_ptr<const std::vector<workload::DynOp>> trace;

  core::SystemKind system = core::SystemKind::kUnSync;
  std::uint64_t insts = 50000;  ///< synthetic stream length
  double ser_per_inst = 0.0;
  unsigned app_threads = 1;  ///< simulated application threads
  /// Fixed workload/system seed; unset = derive_seed(campaign_seed, index).
  std::optional<std::uint64_t> seed;
  /// ACE/AVF residency accounting (CLI: avf=1). Observation-only and
  /// bit-invisible in results; part of the grid fingerprint because it
  /// changes which metrics a journaled campaign carries.
  bool avf = false;
  /// Per-uncore-structure protection plan joined with the measured AVF at
  /// report time (CLI: protect.<structure>=none|parity|secded).
  fault::UncorePlan protect;

  /// Architecture knobs (only the member matching `system` is read).
  core::SystemParams params;
};

/// Prefix-sharing policy (docs/CAMPAIGNS.md, "Prefix-sharing"; the engine
/// itself lives in runtime/prefix.hpp). Execution strategy only: results
/// are byte-identical whether it is on or off.
struct PrefixOptions {
  /// CLI: prefix_share=1. Off by default; prefix_share=0 campaigns are
  /// byte-identical to builds that predate the engine.
  bool enabled = false;
  /// Checkpoint + fingerprint cadence of the golden run, in cycles
  /// (CLI: prefix_interval=). Folded into journal identity when the
  /// engine is active, so a journal records how its campaign ran.
  Cycle interval = 5000;
  /// LRU budget for cached golden checkpoints, in MiB (CLI:
  /// prefix_cache_mb=). Purely a performance knob: never part of campaign
  /// identity.
  std::size_t cache_mb = 256;
};

/// Builds the workload stream one job consumes: `profile` yields a
/// synthetic stream generated from the job seed, `trace` a shared replay
/// of the recorded ops. Exposed for the prefix engine, which must build
/// streams for golden (fault-free) twins of a job.
std::unique_ptr<workload::InstStream> make_job_stream(const SimJob& job,
                                                      std::uint64_t seed);

/// The core::SystemConfig run_job constructs for a job (exposed likewise).
core::SystemConfig job_system_config(const SimJob& job, std::uint64_t seed);

struct CampaignOutput {
  /// One result per job, in submission order.
  std::vector<engine::RunResult> results;
  /// Job labels and the seeds actually used, parallel to `results`.
  std::vector<std::string> labels;
  std::vector<std::uint64_t> seeds;
  std::uint64_t campaign_seed = 0;

  double wall_seconds = 0.0;
  /// Per-job wall seconds (measurement only — never part of to_json()'s
  /// default output, which must be worker-count independent).
  std::vector<double> job_wall_seconds;

  /// Merged per-job metric snapshots (submission order); empty unless
  /// Options::collect_metrics was set.
  obs::MetricsSnapshot metrics;

  /// Host-side scheduler observability (campaign.scheduler.*): steal /
  /// local-claim / idle counters per worker slot plus a per-job wall-time
  /// histogram. Pure measurement — like wall_seconds it varies run to run,
  /// so it is excluded from the default to_json() and only emitted with
  /// `include_timing`.
  obs::MetricsSnapshot scheduler_metrics;

  /// Total simulated program instructions across the grid (throughput
  /// numerator for scaling studies).
  std::uint64_t total_instructions() const;

  /// Stable "unsync.campaign.v2" schema (embedded results are
  /// "unsync.run_result.v2"). The default output is a pure function of the
  /// grid (byte-identical across worker counts); `include_timing` adds
  /// wall-clock fields (and scheduler_metrics) for humans and profilers.
  std::string to_json(int indent = 0, bool include_timing = false) const;
};

class CampaignRunner {
 public:
  struct Options {
    /// Worker threads (including the caller). 0 = hardware concurrency;
    /// 1 = serial execution on the caller.
    unsigned threads = 0;
    std::uint64_t campaign_seed = 42;
    /// Collect each job's metrics into CampaignOutput::metrics (one
    /// registry per job, merged in submission order).
    bool collect_metrics = false;
    /// Crash-safe job journal ("unsync.campaign_journal.v1"): a JSONL file
    /// whose header pins the campaign identity (seed, job count, a CRC-32
    /// fingerprint of the whole grid, collect_metrics) and to which every
    /// completed job is appended as one line carrying a CRC-checked binary
    /// blob of its RunResult (plus its metric snapshot when
    /// collect_metrics is on), flushed job by job. A killed campaign loses
    /// at most the jobs that were in flight. Empty = no journal.
    std::string journal;
    /// Resume from `journal`: journaled jobs are restored instead of
    /// re-run, and CampaignOutput (including to_json()) is byte-identical
    /// to an uninterrupted campaign regardless of kill point or worker
    /// count. The journal header must match this campaign or
    /// ckpt::CkptError is thrown; corrupt or torn entry lines, and entries
    /// whose index, label or seed disagree with the grid, are dropped
    /// (those jobs simply re-run). A missing or empty journal file starts
    /// a fresh campaign. Without resume the journal is overwritten.
    bool resume = false;
    /// Prefix-sharing (CLI: prefix_share= / prefix_interval= /
    /// prefix_cache_mb=): golden runs are simulated once per unique
    /// fault-free configuration; arrival-free jobs return its result and
    /// every other injection job restores from its latest in-memory
    /// checkpoint before the first arrival. Results stay byte-identical at
    /// any worker count; inert while collect_metrics is on (per-cycle
    /// histograms depend on the cycles a shared prefix would skip).
    PrefixOptions prefix;
    /// Invoked after each job completes with (jobs done so far, total).
    /// Called under an internal mutex: thread-safe, but keep it cheap.
    std::function<void(std::size_t completed, std::size_t total)> progress;
  };

  explicit CampaignRunner(Options options) : options_(std::move(options)) {}

  /// Runs the whole grid; results come back in submission order. The
  /// first failing job's exception (by job index) is rethrown after the
  /// grid finishes.
  CampaignOutput run(const std::vector<SimJob>& jobs) const;

  /// Builds and runs one job with an already-derived seed (also the
  /// single-job path unsync_sim's `run` subcommand uses). Optional
  /// observability: metrics are published into `metrics`, events into
  /// `trace`.
  static engine::RunResult run_job(const SimJob& job, std::uint64_t seed,
                                   obs::MetricsRegistry* metrics = nullptr,
                                   obs::TraceSink* trace = nullptr);

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace unsync::runtime
