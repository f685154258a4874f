// The parallel_for scheduler's contract: every index exactly once at any
// thread count, steals actually happen under skew, stats account for all
// work, failures surface the same way at every width, and — the headline —
// campaign output stays byte-identical however the grid was scheduled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/thread_pool.hpp"

namespace unsync {
namespace {

using runtime::CampaignRunner;
using runtime::parallel_for;
using runtime::SchedulerStats;
using runtime::SimJob;
using core::SystemKind;

void expect_each_index_once(unsigned threads, std::size_t n,
                            SchedulerStats* stats = nullptr) {
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      threads, n, [&](std::size_t i) { hits[i].fetch_add(1); }, stats);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) { expect_each_index_once(4, 1000); }

TEST(ThreadPool, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  parallel_for(1, ids.size(),
               [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ZeroJobsIsANoOp) {
  bool ran = false;
  parallel_for(4, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Failure semantics must not depend on the thread count: threads == 1
// drains through the same code as the parallel case.
using ThreadPoolFailure = ::testing::TestWithParam<unsigned>;

TEST_P(ThreadPoolFailure, RethrowsLowestFailingIndex) {
  // Indices 7 and 3 both throw; index 3's exception must surface
  // regardless of which worker hit which index first.
  try {
    parallel_for(GetParam(), 16, [&](std::size_t i) {
      if (i == 7 || i == 3) {
        throw std::runtime_error("job " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3");
  }
}

TEST_P(ThreadPoolFailure, RemainingIndicesRunAfterAFailure) {
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(GetParam(), hits.size(),
                            [&](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i == 0) throw std::logic_error("boom");
                            }),
               std::logic_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolFailure,
                         ::testing::Values(1u, 2u, 4u));

TEST(Scheduler, EveryIndexOnceAcrossWidths) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      expect_each_index_once(threads, n);
    }
  }
}

TEST(Scheduler, StatsAccountForEveryIndex) {
  SchedulerStats stats;
  expect_each_index_once(4, 500, &stats);
  ASSERT_EQ(stats.workers.size(), 4u);
  EXPECT_EQ(stats.total().indices, 500u);
  EXPECT_GT(stats.total().local_claims + stats.total().steals, 0u);
}

TEST(Scheduler, SingleThreadFillsStats) {
  SchedulerStats stats;
  expect_each_index_once(1, 32, &stats);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_EQ(stats.workers[0].indices, 32u);
  EXPECT_EQ(stats.workers[0].local_claims, 8u);  // auto chunk 32/8 = 4
  EXPECT_EQ(stats.workers[0].steals, 0u);
}

TEST(Scheduler, SkewForcesSteals) {
  // All the real work sits in worker 0's shard: indices [0, n/width) are
  // slow, everything else is instant. The other workers drain their shards
  // immediately and must steal from shard 0 to finish the batch. n = 32 on
  // 4 workers makes the auto chunk 1, so single indices stay stealable.
  const unsigned threads = 4;
  const std::size_t n = 32;
  const std::size_t slow_end = n / threads;
  std::vector<std::atomic<int>> hits(n);
  SchedulerStats stats;
  parallel_for(
      threads, n,
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i < slow_end) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      },
      &stats);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(stats.total().indices, n);
  EXPECT_GT(stats.total().steals, 0u) << "skewed batch finished with no steal";
  // A worker that steals first had to notice its own shard was dry; the
  // sweep over drained victims also records failures.
  EXPECT_GT(stats.total().steal_failures, 0u);
}

TEST(Scheduler, ExceptionReportingIsScheduleIndependent) {
  // Index 41 (last shard) fails at once; index 11 (first shard) fails only
  // after a delay, so the higher index is recorded first. The lowest
  // failing index still wins.
  try {
    parallel_for(4, 48, [&](std::size_t i) {
      if (i == 11) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (i == 41 || i == 11) {
        throw std::runtime_error("job " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 11");
  }
}

// ---------------------------------------------------------------------------
// CampaignRunner x scheduler: the determinism contract
// ---------------------------------------------------------------------------

std::vector<SimJob> small_grid() {
  std::vector<SimJob> jobs;
  const char* profiles[] = {"gzip", "susan", "mcf"};
  for (const auto* p : profiles) {
    for (const auto s : {SystemKind::kBaseline, SystemKind::kUnSync}) {
      SimJob j;
      j.label = p;
      j.profile = p;
      j.system = s;
      j.insts = 2000;
      j.ser_per_inst = 1e-3;
      jobs.push_back(j);
    }
  }
  return jobs;
}

TEST(SchedulerDeterminism, JsonByteIdenticalAcrossThreadsAndSchedules) {
  const auto jobs = small_grid();
  CampaignRunner::Options base;
  base.campaign_seed = 23;
  base.collect_metrics = true;
  base.threads = 1;
  const std::string reference = CampaignRunner(base).run(jobs).to_json();

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignRunner::Options opts = base;
    opts.threads = threads;
    EXPECT_EQ(CampaignRunner(opts).run(jobs).to_json(), reference);
  }
}

TEST(SchedulerDeterminism, ForcedStealScheduleDoesNotChangeOutput) {
  // Eight workers on a six-job grid (auto chunk 1) whose first job is the
  // heaviest maximise steal traffic; the output must not care.
  auto jobs = small_grid();
  jobs[0].insts = 20000;  // a straggler in worker 0's shard
  CampaignRunner::Options serial;
  serial.campaign_seed = 9;
  serial.collect_metrics = true;
  serial.threads = 1;
  CampaignRunner::Options steal_heavy = serial;
  steal_heavy.threads = 8;
  const auto a = CampaignRunner(serial).run(jobs);
  const auto b = CampaignRunner(steal_heavy).run(jobs);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.metrics.to_csv(), b.metrics.to_csv());
}

TEST(SchedulerMetrics, OnlyInTimingJson) {
  const auto jobs = small_grid();
  CampaignRunner::Options opts;
  opts.threads = 2;
  const auto out = CampaignRunner(opts).run(jobs);
  EXPECT_FALSE(out.scheduler_metrics.empty());
  EXPECT_EQ(out.to_json().find("scheduler"), std::string::npos)
      << "scheduler counters leaked into the deterministic surface";
  EXPECT_NE(out.to_json(0, true).find("campaign.scheduler.workers"),
            std::string::npos);
  EXPECT_NE(out.to_json(0, true).find("campaign.scheduler.job_wall_seconds"),
            std::string::npos);
}

TEST(SchedulerMetrics, CountersCoverTheGrid) {
  const auto jobs = small_grid();
  CampaignRunner::Options opts;
  opts.threads = 4;
  const auto out = CampaignRunner(opts).run(jobs);
  const auto it = out.scheduler_metrics.counters.find(
      "campaign.scheduler.local_claims");
  ASSERT_NE(it, out.scheduler_metrics.counters.end());
  const auto workers =
      out.scheduler_metrics.counters.find("campaign.scheduler.workers");
  ASSERT_NE(workers, out.scheduler_metrics.counters.end());
  EXPECT_EQ(workers->second, 4u);
}

}  // namespace
}  // namespace unsync
