#include "runtime/distributed.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
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

ckpt::JournalHeader shard_header(const std::vector<SimJob>& jobs,
                                 const DistributedOptions& opts,
                                 unsigned shard) {
  ckpt::JournalHeader h = manifest_header(jobs, opts);
  h.shard = shard;
  return h;
}

/// The entries of one shard journal load_journal accepts; none if the
/// journal does not exist yet (the sibling has not started). Header
/// mismatches still throw — a foreign journal in the campaign dir is
/// corruption, not absence.
std::vector<std::optional<RestoredJob>> load_shard(
    const std::vector<SimJob>& jobs, const DistributedOptions& opts,
    unsigned shard) {
  return load_journal(shard_journal_path(opts.dir, shard),
                      shard_header(jobs, opts, shard), jobs);
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
      jobs, opts.campaign_seed, opts.collect_metrics, opts.prefix.enabled,
      opts.prefix.interval);
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

  // A worker always resumes its own journal: valid entries survive (the
  // writer's atomic rewrite drops torn tail lines from a previous kill -9),
  // then the stream continues in append mode.
  JournalWriter journal(shard_journal_path(opts.dir, opts.shard),
                        shard_header(jobs, opts, opts.shard), jobs,
                        /*resume=*/true);
  std::vector<char> done(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    done[i] = journal.restored()[i].has_value();
  }

  // Per-process prefix engine: the golden-trace cache is shared by this
  // worker's threads (own shard AND stolen jobs — a thief re-derives the
  // same golden bytes a sibling would, so stolen results stay identical).
  std::unique_ptr<PrefixEngine> engine;
  if (opts.prefix.enabled) engine = std::make_unique<PrefixEngine>(opts.prefix);
  const bool prefix_jobs = engine && !opts.collect_metrics;

  std::mutex progress_mu;
  std::size_t executed = 0;
  const auto run_and_record = [&](std::size_t i) {
    obs::MetricsSnapshot metrics;
    obs::MetricsSnapshot* m = opts.collect_metrics ? &metrics : nullptr;
    journal.append(i,
                   run_campaign_job(jobs[i],
                                    job_seed(jobs, opts.campaign_seed, i),
                                    engine.get(), m),
                   m);
    const std::lock_guard<std::mutex> lock(progress_mu);
    ++executed;
    if (opts.progress) opts.progress(executed, jobs.size());
  };

  // Phase 1: the own shard — every pending job with index % workers == us,
  // golden-sharing jobs claimed together (schedule_order) when the engine
  // runs jobs. Journal entries stay keyed by global index, so ordering
  // never changes any bytes.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (prefix_jobs) order = engine->schedule_order(jobs, opts.campaign_seed);
  std::vector<std::size_t> own;
  for (const std::size_t i : order) {
    if (i % opts.workers == opts.shard && !done[i]) own.push_back(i);
  }
  parallel_for(opts.threads, own.size(),
               [&](std::size_t k) { run_and_record(own[k]); });

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
        const auto theirs = load_shard(jobs, opts, w);
        for (std::size_t i = w; i < jobs.size(); i += opts.workers) {
          if (!theirs[i] && !done[i]) pending.push_back(i);
        }
      }
      if (pending.empty()) break;
      std::sort(pending.begin(), pending.end(),
                [](std::size_t a, std::size_t b) { return a > b; });
      bool ran_any = false;
      for (const std::size_t i : pending) {
        const auto owner = static_cast<unsigned>(i % opts.workers);
        if (load_shard(jobs, opts, owner)[i]) {
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
  }
  // Per-shard engine totals; `campaign status` on a shard journal reads
  // the last one back. The resume rewrite above drops stale stats lines.
  if (engine) journal.append_stats(engine->stats());
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

  // Poll until every global index is covered, merging ascending by shard:
  // the first journal providing an index wins (all providers hold
  // identical bytes by construction).
  std::vector<std::optional<RestoredJob>> restored;
  for (;;) {
    restored.assign(jobs.size(), std::nullopt);
    for (unsigned w = 0; w < opts.workers; ++w) {
      auto loaded = load_shard(jobs, opts, w);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!restored[i] && loaded[i]) restored[i] = std::move(loaded[i]);
      }
    }
    const auto pending = static_cast<std::size_t>(std::count(
        restored.begin(), restored.end(), std::nullopt));
    if (pending == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw ckpt::CkptError(
          "distributed campaign '" + opts.dir + "': timed out with " +
          std::to_string(pending) + " of " + std::to_string(jobs.size()) +
          " jobs still pending");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
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
