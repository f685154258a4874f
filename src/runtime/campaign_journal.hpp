// Campaign-level journal contents: what goes inside the CRC'd blobs of an
// "unsync.campaign_journal.v1" file, how whole journals are loaded, and
// the one writer and the one job path every campaign loop shares.
//
// The byte-level line format (header/entry rendering, hex codec, CRC
// checks) lives in ckpt/journal.hpp; this layer binds it to the campaign
// domain: a blob is a ckpt-serialized RunResult plus (when the campaign
// collects metrics) the job's metric snapshot, and a grid of SimJobs is
// fingerprinted so a journal can never be resumed — or merged — against a
// grid it was not written for.
//
// Shared by CampaignRunner (single-process resumable campaigns) and the
// distributed fabric in runtime/distributed.hpp (per-shard journals merged
// by a coordinator): both run their jobs through run_campaign_job and
// journal them through one JournalWriter.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"
#include "runtime/prefix.hpp"

namespace unsync::runtime {

/// Appends every SystemParams field (the architecture knobs, then a
/// retired model-tier byte) in one fixed order: the single encoding behind
/// both the grid fingerprint and the prefix engine's golden_job_key.
void encode_params(ckpt::Serializer& s, const core::SystemParams& p);

/// CRC-32 fingerprint of the whole job grid: any change to a label,
/// workload, architecture, knob or seed yields a different
/// fingerprint.
std::uint32_t grid_fingerprint(const std::vector<SimJob>& jobs);

/// The header that pins `jobs` for a given campaign configuration; shard /
/// workers are filled by the distributed layer when journaling one shard.
/// Prefix-sharing campaigns fold their activation and golden-checkpoint
/// interval into the grid CRC when (and only when) the engine is actually
/// active, so prefix_share=0 journals keep the historical bytes while an
/// active engine pins how its campaign ran. The cache budget is a pure
/// performance knob and is never part of identity.
ckpt::JournalHeader make_journal_header(const std::vector<SimJob>& jobs,
                                        std::uint64_t campaign_seed,
                                        bool collect_metrics,
                                        bool prefix = false,
                                        Cycle prefix_interval = 0);

/// Belt-and-braces restore filter: whether a journaled result could have
/// been produced by this build. Every run is cycle-accurate, so an entry
/// whose `approximate` byte is set (written by a retired approximate
/// model) is refused; that job simply re-runs.
bool entry_acceptable(const engine::RunResult& result);

/// One journaled job, decoded.
struct RestoredJob {
  engine::RunResult result;
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

/// Serializes a completed job into journal-blob bytes.
std::string encode_entry_blob(const engine::RunResult& result,
                              const obs::MetricsSnapshot* metrics);

/// The seed job `index` of `jobs` runs with (pinned seed, else derived).
std::uint64_t job_seed(const std::vector<SimJob>& jobs,
                       std::uint64_t campaign_seed, std::size_t index);

/// Loads a journal written for `jobs` (resume, steal scans and merging).
/// A missing or empty file yields no entries (fresh campaign). A header
/// that parses but pins a different campaign than `expect` throws
/// ckpt::CkptError; an unparseable header on a non-empty file throws too
/// (the file is not a campaign journal). An entry line is accepted only if
/// it starts with the journal_entry_prefix of job i (its index, label and
/// seed), its blob passes the CRC and decodes in the header's metrics
/// mode, and entry_acceptable holds; every other line is dropped and its
/// job re-runs. Returns one restored job per accepted entry, by global job
/// index (duplicate index: last wins).
std::vector<std::optional<RestoredJob>> load_journal(
    const std::string& path, const ckpt::JournalHeader& expect,
    const std::vector<SimJob>& jobs);

/// The one writer of a campaign journal: a single-process journal or one
/// shard of a distributed campaign. Opening rewrites `path` atomically —
/// the header, then, with `resume`, one line per entry load_journal
/// accepts — so torn and corrupt lines from a killed run disappear and any
/// number of kill/resume cycles leave one valid line per completed job.
/// Without `resume` the journal starts over. Each later entry is appended
/// and flushed on its own, so a kill loses at most the jobs in flight.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, const ckpt::JournalHeader& header,
                const std::vector<SimJob>& jobs, bool resume);

  /// The jobs restored on open, by index (empty: the job must run).
  /// Callers may move the results out.
  std::vector<std::optional<RestoredJob>>& restored() { return restored_; }

  /// Appends job `index`'s entry and flushes it. Thread-safe; the entry is
  /// encoded before the lock is taken.
  void append(std::size_t index, const engine::RunResult& result,
              const obs::MetricsSnapshot* metrics);

  /// Appends the prefix engine's totals as a trailing "stats" line; entry
  /// readers skip it and `campaign status` reads the last one back.
  void append_stats(const PrefixStats& stats);

 private:
  std::string entry_line(std::size_t index, const engine::RunResult& result,
                         const obs::MetricsSnapshot* metrics) const;
  void write_line(std::string line);

  const std::vector<SimJob>& jobs_;
  std::uint64_t campaign_seed_;
  std::vector<std::optional<RestoredJob>> restored_;
  std::mutex mu_;
  std::ofstream out_;
};

/// The one job path of every campaign loop. With `metrics` the job runs on
/// the plain path and its metric snapshot lands there (per-cycle
/// histograms depend on the cycles a shared prefix would skip), counted as
/// a bypass on `engine` so `campaign status` says why nothing was shared;
/// otherwise the job runs through `engine` when there is one, else plainly.
engine::RunResult run_campaign_job(const SimJob& job, std::uint64_t seed,
                                   PrefixEngine* engine,
                                   obs::MetricsSnapshot* metrics);

/// What `unsync_sim campaign status` prints: journal health without the
/// grid (everything needed is pinned in the header).
struct JournalStatus {
  ckpt::JournalHeader header;
  std::size_t done = 0;       ///< unique job indices with a valid entry
  /// Extra valid lines for an already-done job, with the same label and
  /// seed as its first entry (a re-run).
  std::size_t duplicates = 0;
  /// Torn / CRC-mismatched / malformed lines, and lines whose label or
  /// seed differs from the first entry of their index (a flipped index).
  std::size_t corrupt = 0;
  /// Prefix-engine totals from the journal's last valid "stats" line
  /// (appended when a prefix-sharing campaign completes); absent on
  /// journals of prefix_share=0 campaigns or ones killed before the end.
  std::optional<PrefixStats> prefix;
  std::size_t pending() const {
    return static_cast<std::size_t>(header.jobs) - done;
  }
};

/// Inspects a journal file without running anything. Throws
/// ckpt::CkptError if the file is missing, empty, or has no valid header.
JournalStatus journal_status(const std::string& path);

}  // namespace unsync::runtime
