// Campaign-level journal contents: what goes inside the CRC'd blobs of an
// "unsync.campaign_journal.v1" file, and how whole journals are loaded.
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
// by a coordinator).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"
#include "runtime/prefix.hpp"

namespace unsync::runtime {

/// CRC-32 fingerprint of the whole job grid: any change to a label,
/// workload, architecture, knob, model tier or seed yields a different
/// fingerprint.
std::uint32_t grid_fingerprint(const std::vector<SimJob>& jobs);

/// The header that pins `jobs` for a given campaign configuration; shard /
/// workers are filled by the distributed layer when journaling one shard.
/// Screening campaigns (fast sweep + thresholded detailed re-run) fold the
/// screen flag and threshold into the grid CRC, so a journal written under
/// one screening policy can never be resumed — or merged — under another.
/// Prefix-sharing campaigns fold their activation and golden-checkpoint
/// interval the same way when (and only when) the engine is actually
/// active, so prefix_share=0 journals keep the historical bytes while an
/// active engine pins how its campaign ran. The cache budget is a pure
/// performance knob and is never part of identity.
ckpt::JournalHeader make_journal_header(const std::vector<SimJob>& jobs,
                                        std::uint64_t campaign_seed,
                                        bool collect_metrics,
                                        bool screen = false,
                                        double screen_threshold = 0.0,
                                        bool prefix = false,
                                        Cycle prefix_interval = 0);

/// Belt-and-braces restore filter: whether a journaled result could have
/// been produced by `job` under the given screening policy. Non-screen
/// campaigns require the entry's tier to match the job's params.tier;
/// screen campaigns accept detailed entries always and fast entries only
/// when their screening_score stayed below the threshold (an entry at or
/// above it would have been re-run detailed before journaling). Entries
/// failing this simply re-run.
bool entry_acceptable(const SimJob& job, const engine::RunResult& result,
                      bool screen, double screen_threshold);

/// One journaled job, decoded.
struct RestoredJob {
  engine::RunResult result;
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

/// Serializes a completed job into journal-blob bytes.
std::string encode_entry_blob(const engine::RunResult& result,
                              const obs::MetricsSnapshot* metrics);

/// Decodes journal-blob bytes; nullopt if truncated/corrupt/trailing.
std::optional<RestoredJob> decode_entry_blob(std::string blob);

/// The seed job `index` of `jobs` runs with (pinned seed, else derived).
std::uint64_t job_seed(const std::vector<SimJob>& jobs,
                       std::uint64_t campaign_seed, std::size_t index);

/// Loads a journal for resumption or merging. A missing or empty file
/// yields no entries (fresh campaign). A header that parses but pins a
/// different campaign than `expect` throws ckpt::CkptError; an
/// unparseable header on a non-empty file throws too (the file is not a
/// campaign journal). Corrupt or torn entry lines are dropped — those
/// jobs simply re-run. Returns one restored job per validated entry, by
/// global job index (duplicate index: last wins).
std::vector<std::optional<RestoredJob>> load_journal(
    const std::string& path, const ckpt::JournalHeader& expect);

/// Cheap pass over a journal: which global indices have a valid entry.
/// Same validation as load_journal (CRC + blob decode) without keeping the
/// decoded payloads. Used for steal decisions and completeness polling.
std::vector<char> journal_done_mask(const std::string& path,
                                    const ckpt::JournalHeader& expect);

/// What `unsync_sim campaign status` prints: journal health without the
/// grid (everything needed is pinned in the header).
struct JournalStatus {
  ckpt::JournalHeader header;
  std::size_t done = 0;       ///< unique job indices with a valid entry
  std::size_t duplicates = 0; ///< extra valid lines for an already-done job
  std::size_t corrupt = 0;    ///< torn / CRC-mismatched / malformed lines
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
