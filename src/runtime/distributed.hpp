// Multi-process campaign fabric: sharded journals + a merging coordinator.
//
// Topology: a campaign directory holds a MANIFEST.json (one campaign-journal
// header line pinning seed / job count / grid CRC / metrics mode / worker
// count) plus one "unsync.campaign_journal.v1" journal per worker
// (shard_<w>.jsonl). Ownership is static — job i belongs to shard
// i % workers — so workers need no sockets, locks or shared state: each
// process streams its completed jobs into its own journal, and the
// coordinator polls the journals until every global index is covered, then
// merges them into a CampaignOutput byte-identical to a serial run.
//
// Work stealing across processes rides on the same journals: a worker that
// finishes its own shard scans the sibling journals for jobs with no valid
// entry yet and runs them too, appending the results to *its* journal.
// Because every result is a pure function of (campaign_seed, job index) and
// entries are keyed by global index, duplicated work is harmless — any
// journal providing index i provides the same bytes — which is also what
// makes kill -9 recovery trivial: a dead worker's jobs get covered either
// by its own resume (torn tail lines are dropped and re-run) or by a
// sibling's steal phase, whichever comes first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "runtime/campaign.hpp"

namespace unsync::runtime {

struct DistributedOptions {
  std::string dir;      ///< campaign directory (created if missing)
  unsigned workers = 1; ///< number of shards in the topology
  unsigned shard = 0;   ///< which shard this process runs (worker mode)
  /// In-process threads per worker (parallel_for semantics: 0 = hardware).
  unsigned threads = 1;
  std::uint64_t campaign_seed = 42;
  bool collect_metrics = false;
  /// Run the cross-process steal phase after the own shard completes.
  /// Off = strict static sharding (a dead sibling's jobs stay pending
  /// until that worker resumes).
  bool steal = true;
  /// Prefix-sharing (CampaignRunner::Options semantics): each worker
  /// process owns one golden-trace cache shared by its in-process threads.
  /// The activation + interval are folded into the manifest/journal grid
  /// CRC, so every participant must agree on
  /// them; the cache budget stays per-process and free to differ.
  PrefixOptions prefix;
  unsigned poll_ms = 100;        ///< coordinator poll interval
  double timeout_seconds = 600;  ///< coordinator wait budget (<=0: no wait —
                                 ///< a single completeness check, then fail)
  /// Worker progress: (jobs this process has run so far, jobs in the whole
  /// grid). With stealing a worker may run any job of the grid, so the
  /// second argument is the grid size, not the shard size.
  std::function<void(std::size_t completed, std::size_t total)> progress;
};

std::string manifest_path(const std::string& dir);
std::string shard_journal_path(const std::string& dir, unsigned shard);

/// Header pinning this campaign + topology (workers set, shard unset).
ckpt::JournalHeader manifest_header(const std::vector<SimJob>& jobs,
                                    const DistributedOptions& opts);

/// Creates opts.dir (if needed) and atomically writes MANIFEST.json. Safe
/// to call from every participant: all of them write identical bytes. If a
/// manifest already exists it is validated instead — a manifest for a
/// different campaign or topology throws ckpt::CkptError.
void ensure_manifest(const std::vector<SimJob>& jobs,
                     const DistributedOptions& opts);

/// Runs shard opts.shard of the campaign: validates/creates the manifest,
/// resumes its own journal through a JournalWriter (atomic rewrite dropping
/// torn lines), runs its pending jobs across opts.threads, then — with
/// opts.steal — covers sibling jobs whose owner's journal still has no
/// accepted entry (load_journal decides, as for the merge). Returns the number
/// of jobs this process executed (restored or stolen-by-others excluded).
std::size_t run_worker(const std::vector<SimJob>& jobs,
                       const DistributedOptions& opts);

/// Coordinator: polls the shard journals until every global index has a
/// valid entry (ckpt::CkptError on timeout, naming the pending count), then
/// merges ascending by index — first shard providing an index wins, though
/// by the determinism contract every provider holds the same bytes — into a
/// CampaignOutput whose default to_json() is byte-identical to a serial
/// CampaignRunner run of the same grid.
CampaignOutput merge_shards(const std::vector<SimJob>& jobs,
                            const DistributedOptions& opts);

}  // namespace unsync::runtime
