// Wire-level primitives of the "unsync.campaign_journal.v1" JSONL format.
//
// A campaign journal is a line-oriented crash log: line 0 is a header that
// pins the campaign identity, every later line records one completed job as
// a CRC-checked hex blob keyed by its global job index. The same format
// serves two topologies:
//
//   * single-process: one journal per campaign (CampaignRunner::Options),
//   * distributed:    one journal per *shard* — the header additionally
//                     carries `shard` / `workers`, entries still use global
//                     job indices, and a coordinator merges any set of
//                     shard journals whose headers pin the same campaign.
//
// This header owns only the byte-level concerns (hex codec, line field
// parsing, header/entry line rendering); what goes *inside* a blob
// (RunResult + metric snapshot) is the runtime layer's business — see
// src/runtime/campaign_journal.hpp.
//
// Robustness contract: any line that fails to parse, whose CRC mismatches,
// whose index is out of range, or whose clear fields disagree with the
// grid (journal_entry_prefix) is simply *invalid* — callers drop it and
// re-run that job. Only a header that parses but pins a different campaign
// is a hard error (resuming against it would silently produce wrong
// output), and that policy lives in JournalHeader::require_match.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace unsync::ckpt {

/// Schema identifier on every campaign-journal header line.
inline constexpr std::string_view kCampaignJournalSchema =
    "unsync.campaign_journal.v1";

// ---- Low-level line utilities ----------------------------------------------

std::string hex_encode(std::string_view bytes);
/// Returns nullopt on odd length or a non-hex digit.
std::optional<std::string> hex_decode(std::string_view hex);

/// Finds `"key":` in a journal line and parses the decimal integer after
/// it. Returns nullopt if absent, malformed or above 2^64-1 — callers drop
/// such lines.
std::optional<std::uint64_t> find_u64(const std::string& line,
                                      std::string_view key);

/// Finds `"key":"<value>"` where the value contains no escapes (hex /
/// schema strings only).
std::optional<std::string> find_plain_str(const std::string& line,
                                          std::string_view key);

// ---- Header line -----------------------------------------------------------

/// The identity a journal pins. Two journals with matching headers were
/// produced by byte-identical campaign definitions, so their entries are
/// interchangeable (results are pure functions of the grid).
struct JournalHeader {
  std::uint64_t campaign_seed = 0;
  std::uint64_t jobs = 0;  ///< total jobs in the *whole* grid
  std::uint32_t grid_crc = 0;
  bool collect_metrics = false;
  /// Present only in per-shard journals of a distributed campaign: which
  /// shard this journal belongs to, out of how many.
  std::optional<std::uint64_t> shard;
  std::optional<std::uint64_t> workers;

  /// Renders the header line (no trailing newline). Single-process
  /// journals (no shard) keep the historical byte layout.
  std::string to_line() const;

  /// Parses a header line; nullopt if it is not a campaign-journal header.
  static std::optional<JournalHeader> parse(const std::string& line);

  /// Throws CkptError (naming `path`) unless this header pins the same
  /// campaign as `expect`: campaign_seed, jobs, grid_crc and
  /// collect_metrics must all match. shard/workers are topology, not
  /// identity — entries from any shard of the same campaign merge freely —
  /// but when `expect` carries a worker count, a mismatched worker count
  /// is rejected (the journal was sharded for a different topology).
  void require_match(const JournalHeader& expect,
                     const std::string& path) const;
};

// ---- Entry lines ------------------------------------------------------------

/// Renders one completed-job line (no trailing newline): index, label and
/// seed in the clear, plus a CRC-32-guarded hex blob. The CRC covers only
/// the blob; the clear fields are checked against the grid instead (see
/// journal_entry_prefix).
std::string journal_entry_line(std::uint64_t index, std::string_view label,
                               std::uint64_t seed, std::string_view blob);

/// The bytes journal_entry_line writes before the CRC:
/// `{"index":<index>,"label":<quoted label>,"seed":<seed>,`. Label and seed
/// are pure functions of the grid the header pins, so a reader that knows
/// the grid accepts an entry for job i only if its line starts with job i's
/// prefix: a flipped index digit then drops the entry instead of handing
/// one job's result to another.
std::string journal_entry_prefix(std::uint64_t index, std::string_view label,
                                 std::uint64_t seed);

struct ParsedEntry {
  std::uint64_t index = 0;
  std::string blob;  ///< decoded, CRC-verified payload bytes
};

/// Parses and CRC-verifies one entry line. Returns nullopt for anything
/// torn, corrupt, or with index >= max_jobs — the caller re-runs that job.
/// The index itself is not CRC-guarded: callers holding the grid also
/// check journal_entry_prefix.
std::optional<ParsedEntry> parse_entry_line(const std::string& line,
                                            std::uint64_t max_jobs);

// ---- Stats lines -------------------------------------------------------------

/// Renders a campaign-statistics line (no trailing newline): a
/// CRC-32-guarded hex blob keyed "stats" instead of "index". Entry readers
/// skip it automatically (parse_entry_line returns nullopt — no index), so
/// stats lines never affect resume or merge; `campaign status` decodes the
/// last valid one. What goes inside the blob is the runtime layer's
/// business (PrefixStats today).
std::string journal_stats_line(std::string_view blob);

/// Parses and CRC-verifies a stats line; nullopt if `line` is not a valid
/// stats line (callers then treat it as a torn entry).
std::optional<std::string> parse_stats_line(const std::string& line);

}  // namespace unsync::ckpt
