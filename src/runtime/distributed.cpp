#include "runtime/distributed.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ckpt/serializer.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/thread_pool.hpp"

namespace unsync::runtime {

namespace {

namespace fs = std::filesystem;

/// Reads the first line of a file; empty string if missing/empty.
std::string read_first_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line)) return std::string();
  return line;
}

/// Whether this topology runs the prefix engine (screening wins: the fast
/// tier already is the shortcut, so the engine stays out of the identity).
bool prefix_on(const DistributedOptions& opts) {
  return opts.prefix.enabled && !opts.screen;
}

ckpt::JournalHeader shard_header(const std::vector<SimJob>& jobs,
                                 const DistributedOptions& opts,
                                 unsigned shard) {
  ckpt::JournalHeader h = make_journal_header(
      jobs, opts.campaign_seed, opts.collect_metrics, opts.screen,
      opts.screen_threshold, prefix_on(opts), opts.prefix.interval);
  h.shard = shard;
  h.workers = opts.workers;
  return h;
}

/// Done mask of one shard journal; all-false if the journal does not exist
/// yet (the sibling has not started). Header mismatches still throw — a
/// foreign journal in the campaign dir is corruption, not absence.
std::vector<char> shard_done_mask(const std::vector<SimJob>& jobs,
                                  const DistributedOptions& opts,
                                  unsigned shard) {
  return journal_done_mask(shard_journal_path(opts.dir, shard),
                           shard_header(jobs, opts, shard));
}

}  // namespace

std::string manifest_path(const std::string& dir) {
  return (fs::path(dir) / "MANIFEST.json").string();
}

std::string shard_journal_path(const std::string& dir, unsigned shard) {
  return (fs::path(dir) / ("shard_" + std::to_string(shard) + ".jsonl"))
      .string();
}

ckpt::JournalHeader manifest_header(const std::vector<SimJob>& jobs,
                                    const DistributedOptions& opts) {
  ckpt::JournalHeader h = make_journal_header(
      jobs, opts.campaign_seed, opts.collect_metrics, opts.screen,
      opts.screen_threshold, prefix_on(opts), opts.prefix.interval);
  h.workers = opts.workers;
  return h;
}

void ensure_manifest(const std::vector<SimJob>& jobs,
                     const DistributedOptions& opts) {
  if (opts.workers == 0) {
    throw std::invalid_argument("distributed campaign needs workers >= 1");
  }
  fs::create_directories(opts.dir);
  const std::string path = manifest_path(opts.dir);
  const ckpt::JournalHeader expect = manifest_header(jobs, opts);
  const std::string line = read_first_line(path);
  if (line.empty()) {
    // First participant (or a torn manifest — identical rewrite fixes it).
    // Every participant computes identical bytes, so concurrent writers are
    // benign: atomic_write_text makes whoever lands last a no-op.
    ckpt::atomic_write_text(path, expect.to_line() + "\n");
    return;
  }
  const auto found = ckpt::JournalHeader::parse(line);
  if (!found) {
    throw ckpt::CkptError("campaign manifest '" + path +
                          "': not a campaign-journal header");
  }
  found->require_match(expect, path);
}

std::size_t run_worker(const std::vector<SimJob>& jobs,
                       const DistributedOptions& opts) {
  if (opts.shard >= opts.workers) {
    throw std::invalid_argument("worker shard " + std::to_string(opts.shard) +
                                " out of range for " +
                                std::to_string(opts.workers) + " workers");
  }
  ensure_manifest(jobs, opts);

  const ckpt::JournalHeader header = shard_header(jobs, opts, opts.shard);
  const std::string path = shard_journal_path(opts.dir, opts.shard);

  // Resume our own journal: valid entries survive (rewritten atomically so
  // torn tail lines from a previous kill -9 disappear), then the stream
  // continues in append mode.
  std::vector<char> done(jobs.size(), 0);
  {
    auto loaded = load_journal(path, header);
    std::string rewrite = header.to_line();
    rewrite.push_back('\n');
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!loaded[i] ||
          !entry_acceptable(jobs[i], loaded[i]->result, opts.screen,
                            opts.screen_threshold)) {
        continue;
      }
      done[i] = 1;
      const std::string blob = encode_entry_blob(
          loaded[i]->result,
          loaded[i]->has_metrics ? &loaded[i]->metrics : nullptr);
      rewrite += ckpt::journal_entry_line(
          i, jobs[i].label, job_seed(jobs, opts.campaign_seed, i), blob);
      rewrite.push_back('\n');
    }
    ckpt::atomic_write_text(path, rewrite);
  }
  std::ofstream journal(path, std::ios::binary | std::ios::app);
  if (!journal) {
    throw std::runtime_error("cannot open shard journal '" + path +
                             "' for append");
  }

  // Per-process prefix engine: the golden-trace cache is shared by this
  // worker's threads (own shard AND stolen jobs — a thief re-derives the
  // same golden bytes a sibling would, so stolen results stay identical).
  std::unique_ptr<PrefixEngine> engine;
  if (prefix_on(opts)) engine = std::make_unique<PrefixEngine>(opts.prefix);
  const bool prefix_jobs = engine && !opts.collect_metrics;

  std::mutex journal_mu;
  std::size_t executed = 0;
  std::size_t unflushed = 0;
  const auto run_and_record = [&](std::size_t i) {
    const std::uint64_t seed = job_seed(jobs, opts.campaign_seed, i);
    engine::RunResult result;
    obs::MetricsSnapshot metrics;
    if (opts.screen) {
      result = CampaignRunner::run_job_screened(
          jobs[i], seed, opts.screen_threshold,
          opts.collect_metrics ? &metrics : nullptr);
    } else if (opts.collect_metrics) {
      if (engine) engine->note_bypass();
      obs::MetricsRegistry reg;
      result = CampaignRunner::run_job(jobs[i], seed, &reg);
      metrics = reg.snapshot();
    } else if (engine) {
      result = engine->run_job(jobs[i], seed);
    } else {
      result = CampaignRunner::run_job(jobs[i], seed);
    }
    const std::string blob =
        encode_entry_blob(result, opts.collect_metrics ? &metrics : nullptr);
    std::string entry = ckpt::journal_entry_line(i, jobs[i].label, seed, blob);
    entry.push_back('\n');
    const std::lock_guard<std::mutex> lock(journal_mu);
    journal << entry;
    if (++unflushed >= opts.checkpoint_every) {
      journal.flush();
      unflushed = 0;
    }
    ++executed;
    if (opts.progress) opts.progress(executed, jobs.size());
  };

  // Phase 1: the own shard — every pending job with index % workers == us.
  std::vector<std::size_t> own;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % opts.workers == opts.shard && !done[i]) own.push_back(i);
  }
  if (prefix_jobs && !own.empty()) {
    // Claim golden-sharing jobs together (schedule_order semantics),
    // filtered to this shard. Journal entries stay keyed by global index,
    // so ordering never changes any bytes.
    std::vector<char> mine(jobs.size(), 0);
    for (const std::size_t i : own) mine[i] = 1;
    std::vector<std::size_t> reordered;
    reordered.reserve(own.size());
    for (const std::size_t i :
         engine->schedule_order(jobs, opts.campaign_seed)) {
      if (mine[i]) reordered.push_back(i);
    }
    own = std::move(reordered);
  }
  parallel_for(opts.threads, own.size(),
               [&](std::size_t k) { run_and_record(own[k]); });
  journal.flush();

  // Phase 2: steal. Walk sibling shards' pending jobs highest-index-first —
  // siblings drain their own shards in ascending order, so the tail is the
  // work least likely to be in flight. Before running each candidate,
  // rescan its owner's journal: the owner (or another thief) may have
  // finished it since our last look. Stolen results land in OUR journal;
  // duplicates are harmless because entry bytes for an index are identical
  // no matter who produced them.
  if (opts.steal && opts.workers > 1) {
    for (;;) {
      std::vector<std::size_t> pending;
      for (unsigned w = 0; w < opts.workers; ++w) {
        if (w == opts.shard) continue;
        const auto theirs = shard_done_mask(jobs, opts, w);
        for (std::size_t i = w; i < jobs.size(); i += opts.workers) {
          if (!theirs[i] && !done[i]) pending.push_back(i);
        }
      }
      if (pending.empty()) break;
      std::sort(pending.begin(), pending.end(),
                [](std::size_t a, std::size_t b) { return a > b; });
      bool ran_any = false;
      for (const std::size_t i : pending) {
        const auto owner_now =
            shard_done_mask(jobs, opts, static_cast<unsigned>(i % opts.workers));
        if (owner_now[i]) {
          done[i] = 1;
          continue;
        }
        run_and_record(i);
        done[i] = 1;
        ran_any = true;
      }
      // A sweep that only skipped already-covered jobs means everything
      // pending at sweep start is now done; rescan once more to be sure no
      // new gap appeared (it cannot — shards never refill), then stop.
      if (!ran_any) break;
    }
    journal.flush();
  }
  if (engine) {
    // Per-shard engine totals; `campaign status` on a shard journal reads
    // the last one back. The resume rewrite above drops stale stats lines.
    journal << ckpt::journal_stats_line(engine->stats().encode()) << '\n';
    journal.flush();
  }
  return executed;
}

CampaignOutput merge_shards(const std::vector<SimJob>& jobs,
                            const DistributedOptions& opts) {
  ensure_manifest(jobs, opts);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              opts.timeout_seconds > 0 ? opts.timeout_seconds : 0));

  // Poll cheaply (done masks only) until every global index is covered.
  std::size_t pending = jobs.size();
  for (;;) {
    std::vector<char> covered(jobs.size(), 0);
    for (unsigned w = 0; w < opts.workers; ++w) {
      const auto mask = shard_done_mask(jobs, opts, w);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (mask[i]) covered[i] = 1;
      }
    }
    pending = 0;
    for (const char c : covered) {
      if (!c) ++pending;
    }
    if (pending == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw ckpt::CkptError(
          "distributed campaign '" + opts.dir + "': timed out with " +
          std::to_string(pending) + " of " + std::to_string(jobs.size()) +
          " jobs still pending");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
  }

  // Full merge, ascending shard order; the first journal providing an
  // index wins (all providers hold identical bytes by construction).
  std::vector<std::optional<RestoredJob>> restored(jobs.size());
  for (unsigned w = 0; w < opts.workers; ++w) {
    auto loaded =
        load_journal(shard_journal_path(opts.dir, w), shard_header(jobs, opts, w));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!restored[i] && loaded[i] &&
          entry_acceptable(jobs[i], loaded[i]->result, opts.screen,
                           opts.screen_threshold)) {
        restored[i] = std::move(loaded[i]);
      }
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!restored[i]) {
      // A journal shrank between the poll and the merge — only possible if
      // something outside the protocol rewrote it.
      throw ckpt::CkptError("distributed campaign '" + opts.dir +
                            "': job " + std::to_string(i) +
                            " vanished between poll and merge");
    }
  }

  CampaignOutput out;
  out.campaign_seed = opts.campaign_seed;
  out.results.resize(jobs.size());
  out.seeds.resize(jobs.size());
  out.job_wall_seconds.assign(jobs.size(), 0.0);
  out.labels.reserve(jobs.size());
  for (const auto& job : jobs) out.labels.push_back(job.label);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.seeds[i] = job_seed(jobs, opts.campaign_seed, i);
    out.results[i] = std::move(restored[i]->result);
    if (opts.collect_metrics && restored[i]->has_metrics) {
      out.metrics.merge(restored[i]->metrics);  // ascending index == serial
    }
  }
  return out;
}

}  // namespace unsync::runtime
