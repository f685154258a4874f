// The distributed campaign fabric (runtime/distributed.hpp): sharded
// journals merge into output byte-identical to a serial run for any worker
// split, the steal phase covers a worker that never runs, torn / duplicated
// / bit-flipped shard journal lines never corrupt a merge, and topology or
// campaign mismatches hard-fail instead of silently mixing grids.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/journal.hpp"
#include "ckpt/serializer.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/distributed.hpp"

namespace {

using namespace unsync;
using runtime::CampaignRunner;
using runtime::DistributedOptions;
using runtime::SimJob;

std::vector<SimJob> small_grid() {
  std::vector<SimJob> jobs;
  for (const char* bench : {"gzip", "mcf", "susan"}) {
    for (const auto kind :
         {core::SystemKind::kBaseline, core::SystemKind::kUnSync}) {
      SimJob job;
      job.label = bench;
      job.profile = bench;
      job.system = kind;
      job.insts = 2500;
      job.ser_per_inst = 2e-5;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// Fresh campaign directory per test.
std::string campaign_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "dist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_all(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string reference_json(bool collect_metrics) {
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.collect_metrics = collect_metrics;
  return CampaignRunner(opts).run(small_grid()).to_json();
}

DistributedOptions dist(const std::string& dir, unsigned workers,
                        bool collect_metrics = false) {
  DistributedOptions o;
  o.dir = dir;
  o.workers = workers;
  o.threads = 1;
  o.collect_metrics = collect_metrics;
  o.timeout_seconds = 30;
  o.poll_ms = 10;
  return o;
}

TEST(Distributed, WorkerSplitsMergeByteIdenticalToSerial) {
  const auto jobs = small_grid();
  for (const bool metrics : {false, true}) {
    const std::string want = reference_json(metrics);
    for (const unsigned workers : {1u, 2u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " metrics=" + std::to_string(metrics));
      const std::string dir = campaign_dir("split");
      DistributedOptions opts = dist(dir, workers, metrics);
      std::size_t ran = 0;
      for (unsigned w = 0; w < workers; ++w) {
        opts.shard = w;
        opts.steal = false;  // strict sharding: each worker its own jobs
        ran += runtime::run_worker(jobs, opts);
      }
      EXPECT_EQ(ran, jobs.size());
      const auto merged = runtime::merge_shards(jobs, opts);
      EXPECT_EQ(merged.to_json(), want);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(Distributed, StealPhaseCoversAWorkerThatNeverRan) {
  // Topology says 3 workers but shard 1 never starts; shard 0 and 2 (with
  // stealing on) must cover its jobs, and the merge must still be
  // byte-identical to serial.
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("dead_worker");
  DistributedOptions opts = dist(dir, 3);
  opts.steal = true;
  opts.shard = 0;
  const std::size_t ran0 = runtime::run_worker(jobs, opts);
  opts.shard = 2;
  const std::size_t ran2 = runtime::run_worker(jobs, opts);
  // Worker 0 finished its shard and stole everything pending (including all
  // of shard 1 and shard 2); worker 2 then found nothing left to do beyond
  // what its journal needed.
  EXPECT_GE(ran0 + ran2, jobs.size());
  const auto merged = runtime::merge_shards(jobs, opts);
  EXPECT_EQ(merged.to_json(), reference_json(false));
  std::filesystem::remove_all(dir);
}

TEST(Distributed, DuplicatedWorkIsHarmless) {
  // Run every shard twice (simulating a stalled worker restarting after a
  // sibling already stole its jobs): journals carry duplicate indices, the
  // merge must not care.
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("dup");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = true;
  for (const unsigned shard : {0u, 1u, 0u, 1u}) {
    opts.shard = shard;
    runtime::run_worker(jobs, opts);
  }
  EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(),
            reference_json(false));
  std::filesystem::remove_all(dir);
}

TEST(Distributed, KilledWorkerResumesFromItsTornJournal) {
  // Simulate kill -9 by truncating shard 0's journal mid-line, then rerun
  // that worker: restored lines survive, the torn one re-runs, the merge is
  // exact.
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("torn");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = false;
  opts.shard = 0;
  runtime::run_worker(jobs, opts);
  const std::string path = runtime::shard_journal_path(dir, 0);
  const std::string full = read_all(path);
  for (const std::size_t keep :
       {full.size() / 3, full.size() / 2, full.size() - 5}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    write_all(path, full.substr(0, keep));
    opts.shard = 0;
    runtime::run_worker(jobs, opts);
    opts.shard = 1;
    runtime::run_worker(jobs, opts);
    EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(),
              reference_json(false));
  }
  std::filesystem::remove_all(dir);
}

TEST(Distributed, FuzzedShardLinesNeverCorruptTheMerge) {
  // Complete both shards, then hand-mangle shard 1: duplicate a line, tear
  // another, flip a hex digit in a third, append garbage. Every mangled
  // line must be dropped or deduped — shard 0 + a rerun of shard 1 still
  // merge to the exact serial bytes.
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("fuzz");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = false;
  for (const unsigned shard : {0u, 1u}) {
    opts.shard = shard;
    runtime::run_worker(jobs, opts);
  }
  const std::string path = runtime::shard_journal_path(dir, 1);
  std::vector<std::string> lines;
  {
    std::istringstream in(read_all(path));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);  // header + >= 2 entries

  std::string mangled = lines[0] + "\n";
  mangled += lines[1] + "\n";
  mangled += lines[1] + "\n";  // duplicate
  // Bit-flip inside the hex blob of the second entry.
  std::string flipped = lines[2];
  const auto pos = flipped.rfind("\"blob\":\"");
  ASSERT_NE(pos, std::string::npos);
  flipped[pos + 10] = flipped[pos + 10] == '0' ? '1' : '0';
  mangled += flipped + "\n";
  // Torn tail + trailing garbage.
  mangled += lines[2].substr(0, lines[2].size() / 2);
  mangled += "\nnot json at all\n";
  write_all(path, mangled);

  // The mangled journal is still a valid (partial) shard: rerunning worker
  // 1 restores the good lines and re-runs everything lost.
  opts.shard = 1;
  runtime::run_worker(jobs, opts);
  EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(),
            reference_json(false));
  std::filesystem::remove_all(dir);
}

// The CRC guards an entry's blob, not its index. Shard 0 owns jobs 0, 2
// and 4; one bit flipped in its job-2 entry ("index":2 -> "index":3) claims
// job 3, which shard 1 holds too — but the merge reads shard 0 first. The
// flipped entry's seed is job 2's, so it must be dropped: shard 1's steal
// phase re-runs job 2 and the merge takes job 3 from shard 1.
TEST(Distributed, FlippedIndexDigitNeverMergesTheWrongJob) {
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("index_flip");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = false;
  for (const unsigned shard : {0u, 1u}) {
    opts.shard = shard;
    runtime::run_worker(jobs, opts);
  }
  const std::string path = runtime::shard_journal_path(dir, 0);
  std::string journal = read_all(path);
  const auto at = journal.find("{\"index\":2,");
  ASSERT_NE(at, std::string::npos);
  journal[at + 9] = '3';  // '2' (0x32) -> '3' (0x33): one bit
  write_all(path, journal);

  opts.shard = 1;
  opts.steal = true;
  EXPECT_EQ(runtime::run_worker(jobs, opts), 1u);  // job 2, stolen
  EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(),
            reference_json(false));
  std::filesystem::remove_all(dir);
}

TEST(Distributed, CoordinatorTimesOutOnAMissingShard) {
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("timeout");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = false;
  opts.shard = 0;
  runtime::run_worker(jobs, opts);  // shard 1 never runs
  opts.timeout_seconds = 0.2;
  EXPECT_THROW(runtime::merge_shards(jobs, opts), ckpt::CkptError);
  std::filesystem::remove_all(dir);
}

TEST(Distributed, ManifestPinsCampaignAndTopology) {
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("manifest");
  DistributedOptions opts = dist(dir, 2);
  runtime::ensure_manifest(jobs, opts);

  // Different campaign seed: rejected.
  DistributedOptions other = opts;
  other.campaign_seed = 777;
  EXPECT_THROW(runtime::ensure_manifest(jobs, other), ckpt::CkptError);
  EXPECT_THROW(runtime::run_worker(jobs, other), ckpt::CkptError);

  // Different worker count: rejected (journals sharded for another
  // topology don't cover the same index sets).
  DistributedOptions wider = opts;
  wider.workers = 4;
  EXPECT_THROW(runtime::ensure_manifest(jobs, wider), ckpt::CkptError);

  // Different grid: rejected via the grid CRC.
  auto other_jobs = jobs;
  other_jobs[0].insts += 1;
  EXPECT_THROW(runtime::ensure_manifest(other_jobs, opts), ckpt::CkptError);

  // The matching topology still works after all those rejections.
  runtime::ensure_manifest(jobs, opts);
  std::filesystem::remove_all(dir);
}

TEST(Distributed, JournalStatusCountsShardEntries) {
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("status");
  DistributedOptions opts = dist(dir, 2);
  opts.steal = false;
  opts.shard = 0;
  runtime::run_worker(jobs, opts);

  const std::string path = runtime::shard_journal_path(dir, 0);
  const auto status = runtime::journal_status(path);
  EXPECT_EQ(status.header.jobs, jobs.size());
  EXPECT_EQ(status.header.shard, std::uint64_t{0});
  EXPECT_EQ(status.header.workers, std::uint64_t{2});
  EXPECT_EQ(status.done, (jobs.size() + 1) / 2);  // shard 0 owns the evens
  EXPECT_EQ(status.pending(), jobs.size() - status.done);
  EXPECT_EQ(status.duplicates, 0u);
  EXPECT_EQ(status.corrupt, 0u);

  // Append a duplicate of the last entry and a torn line.
  std::string extra;
  {
    std::istringstream in(read_all(path));
    std::string line, last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    extra = last + "\n" + last.substr(0, last.size() / 2) + "\n";
  }
  std::ofstream(path, std::ios::binary | std::ios::app) << extra;
  const auto after = runtime::journal_status(path);
  EXPECT_EQ(after.done, status.done);
  EXPECT_EQ(after.duplicates, 1u);
  EXPECT_EQ(after.corrupt, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Distributed, MergedMetricsMatchSerialMerge) {
  const auto jobs = small_grid();
  const std::string dir = campaign_dir("metrics");
  DistributedOptions opts = dist(dir, 3, /*collect_metrics=*/true);
  opts.steal = true;
  for (const unsigned shard : {2u, 0u, 1u}) {  // any start order
    opts.shard = shard;
    runtime::run_worker(jobs, opts);
  }
  const auto merged = runtime::merge_shards(jobs, opts);
  CampaignRunner::Options serial;
  serial.threads = 1;
  serial.collect_metrics = true;
  const auto want = CampaignRunner(serial).run(jobs);
  EXPECT_EQ(merged.metrics.to_json(), want.metrics.to_json());
  EXPECT_EQ(merged.metrics.to_csv(), want.metrics.to_csv());
  std::filesystem::remove_all(dir);
}

}  // namespace
