// The campaign engine's core guarantees: parallel == serial (bit-exact),
// deterministic re-runs, schedule-independent error reporting, and the
// threads=1 run matching a hand-rolled serial loop. The parallel_for
// scheduler itself is tested in test_scheduler.cpp.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "runtime/campaign.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync {
namespace {

using runtime::CampaignRunner;
using runtime::SimJob;
using core::SystemKind;

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(DeriveSeed, PureAndWellDistributed) {
  // Same inputs, same output.
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  // Distinct (campaign, index) pairs should not collide in a small grid.
  std::set<std::uint64_t> seen;
  for (std::uint64_t c = 0; c < 8; ++c) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      seen.insert(derive_seed(c, i));
    }
  }
  EXPECT_EQ(seen.size(), 8u * 256u);
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

std::vector<SimJob> mixed_grid() {
  // Three architectures x a few benchmarks, small but exercising the error
  // injection/recovery paths (nonzero SER) so parallel-vs-serial compares
  // RNG-dependent state too.
  std::vector<SimJob> jobs;
  const char* profiles[] = {"gzip", "bzip2", "susan"};
  const SystemKind systems[] = {SystemKind::kBaseline, SystemKind::kUnSync,
                                SystemKind::kReunion};
  for (const auto* p : profiles) {
    for (const auto s : systems) {
      SimJob j;
      j.label = p;
      j.profile = p;
      j.system = s;
      j.insts = 3000;
      j.ser_per_inst = 1e-3;  // frequent enough to recover/rollback
      jobs.push_back(j);
    }
  }
  return jobs;
}

void expect_identical(const std::vector<engine::RunResult>& a,
                      const std::vector<engine::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].instructions, b[i].instructions);
    EXPECT_EQ(a[i].thread_instructions, b[i].thread_instructions);
    EXPECT_EQ(a[i].errors_injected, b[i].errors_injected);
    EXPECT_EQ(a[i].recoveries, b[i].recoveries);
    EXPECT_EQ(a[i].rollbacks, b[i].rollbacks);
    EXPECT_EQ(a[i].cb_full_stalls, b[i].cb_full_stalls);
    EXPECT_EQ(a[i].fingerprint_syncs, b[i].fingerprint_syncs);
  }
}

TEST(CampaignRunner, ParallelMatchesSerialBitExact) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options serial;
  serial.threads = 1;
  serial.campaign_seed = 99;
  CampaignRunner::Options parallel = serial;
  parallel.threads = 4;
  const auto a = CampaignRunner(serial).run(jobs);
  const auto b = CampaignRunner(parallel).run(jobs);
  expect_identical(a.results, b.results);
}

TEST(CampaignRunner, RerunWithSameCampaignSeedIsDeterministic) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.threads = 4;
  opts.campaign_seed = 7;
  const auto a = CampaignRunner(opts).run(jobs);
  const auto b = CampaignRunner(opts).run(jobs);
  expect_identical(a.results, b.results);
}

TEST(CampaignRunner, CampaignSeedActuallyChangesUnseededJobs) {
  auto jobs = mixed_grid();
  CampaignRunner::Options a_opts;
  a_opts.threads = 2;
  a_opts.campaign_seed = 1;
  CampaignRunner::Options b_opts = a_opts;
  b_opts.campaign_seed = 2;
  const auto a = CampaignRunner(a_opts).run(jobs);
  const auto b = CampaignRunner(b_opts).run(jobs);
  ASSERT_EQ(a.results.size(), b.results.size());
  bool any_differ = false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    any_differ = any_differ ||
                 a.results[i].cycles != b.results[i].cycles ||
                 a.results[i].instructions != b.results[i].instructions;
  }
  EXPECT_TRUE(any_differ) << "campaign_seed had no effect on any job";
}

TEST(CampaignRunner, ExplicitJobSeedOverridesDerivation) {
  SimJob j;
  j.profile = "gzip";
  j.system = SystemKind::kBaseline;
  j.insts = 2000;
  j.seed = 1234;
  CampaignRunner::Options a_opts;
  a_opts.threads = 1;
  a_opts.campaign_seed = 5;
  CampaignRunner::Options b_opts;
  b_opts.threads = 1;
  b_opts.campaign_seed = 6;  // different campaign seed, same pinned job seed
  const auto a = CampaignRunner(a_opts).run({j});
  const auto b = CampaignRunner(b_opts).run({j});
  expect_identical(a.results, b.results);
}

TEST(CampaignRunner, SingleThreadMatchesDirectSystemRun) {
  // threads=1 through the runner must equal building the system by hand
  // with the same derived seed.
  SimJob j;
  j.profile = "mcf";
  j.system = SystemKind::kUnSync;
  j.insts = 4000;
  j.ser_per_inst = 5e-4;
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.campaign_seed = 42;
  const auto out = CampaignRunner(opts).run({j});

  const std::uint64_t seed = derive_seed(42, 0);
  workload::SyntheticStream stream(workload::profile("mcf"), seed, 4000);
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = 5e-4;
  cfg.seed = seed;
  core::UnSyncSystem sys(cfg, core::UnSyncParams{}, stream);
  const auto direct = sys.run();

  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0].cycles, direct.cycles);
  EXPECT_EQ(out.results[0].instructions, direct.instructions);
  EXPECT_EQ(out.results[0].errors_injected, direct.errors_injected);
  EXPECT_EQ(out.results[0].recoveries, direct.recoveries);
}

TEST(CampaignRunner, BadJobThrowsLowestIndexAcrossThreadCounts) {
  // Job 2 names a profile that doesn't exist (out_of_range from the
  // profile registry); job 5 has neither profile nor trace
  // (invalid_argument from the runner). Both serial and parallel runs
  // must surface job 2's error — the lowest failing index.
  auto jobs = mixed_grid();
  jobs[2].profile = "no-such-benchmark";
  jobs[5].profile.clear();
  jobs[5].trace.reset();
  for (const unsigned threads : {1u, 4u}) {
    CampaignRunner::Options opts;
    opts.threads = threads;
    bool threw = false;
    try {
      CampaignRunner(opts).run(jobs);
    } catch (const std::out_of_range& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("no-such-benchmark"),
                std::string::npos)
          << "threads=" << threads << " surfaced: " << e.what();
    }
    EXPECT_TRUE(threw) << "threads=" << threads;
  }
}

TEST(CampaignRunner, EmptyGrid) {
  CampaignRunner::Options opts;
  opts.threads = 4;
  const auto out = CampaignRunner(opts).run({});
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(out.total_instructions(), 0u);
}

TEST(CampaignRunner, TotalInstructionsSumsTheGrid) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.threads = 2;
  const auto out = CampaignRunner(opts).run(jobs);
  std::uint64_t sum = 0;
  for (const auto& r : out.results) sum += r.instructions;
  EXPECT_EQ(out.total_instructions(), sum);
  EXPECT_GT(sum, 0u);
}

TEST(CampaignRunner, SharedTraceJobsRunAllSystems) {
  // One recorded op vector shared (not copied) across jobs for every
  // architecture — the kernel_campaign shape.
  workload::SyntheticStream stream(workload::profile("qsort"), 11, 1500);
  auto ops = std::make_shared<std::vector<workload::DynOp>>();
  workload::DynOp op;
  while (stream.next(&op)) ops->push_back(op);
  const std::shared_ptr<const std::vector<workload::DynOp>> shared = ops;

  std::vector<SimJob> jobs;
  for (const auto s :
       {SystemKind::kBaseline, SystemKind::kUnSync, SystemKind::kReunion,
        SystemKind::kLockstep, SystemKind::kCheckpoint}) {
    SimJob j;
    j.label = "qsort-trace";
    j.trace = shared;
    j.system = s;
    jobs.push_back(j);
  }
  CampaignRunner::Options opts;
  opts.threads = 4;
  const auto par = CampaignRunner(opts).run(jobs);
  opts.threads = 1;
  const auto ser = CampaignRunner(opts).run(jobs);
  expect_identical(ser.results, par.results);
  for (const auto& r : ser.results) {
    EXPECT_EQ(r.instructions, shared->size());
  }
}

// ---------------------------------------------------------------------------
// Observability surface (progress callbacks, metric reduction, JSON)
// ---------------------------------------------------------------------------

TEST(CampaignRunner, ProgressReportsEveryJobExactlyOnce) {
  const auto jobs = mixed_grid();
  for (const unsigned threads : {1u, 4u}) {
    CampaignRunner::Options opts;
    opts.threads = threads;
    std::vector<std::size_t> seen;  // callback is serialised by the runner
    std::size_t reported_total = 0;
    opts.progress = [&](std::size_t completed, std::size_t total) {
      seen.push_back(completed);
      reported_total = total;
    };
    CampaignRunner(opts).run(jobs);
    ASSERT_EQ(seen.size(), jobs.size()) << "threads=" << threads;
    EXPECT_EQ(reported_total, jobs.size());
    // Completion counts are monotone 1..N regardless of finish order.
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], i + 1) << "threads=" << threads;
    }
  }
}

TEST(CampaignRunner, MergedMetricsAreWorkerCountIndependent) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.campaign_seed = 3;
  opts.collect_metrics = true;
  opts.threads = 1;
  const auto serial = CampaignRunner(opts).run(jobs);
  opts.threads = 4;
  const auto parallel = CampaignRunner(opts).run(jobs);
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics.to_json(), parallel.metrics.to_json());
  EXPECT_EQ(serial.metrics.to_csv(), parallel.metrics.to_csv());
}

TEST(CampaignRunner, MetricsOffByDefault) {
  CampaignRunner::Options opts;
  opts.threads = 1;
  const auto out = CampaignRunner(opts).run(mixed_grid());
  EXPECT_TRUE(out.metrics.empty());
}

TEST(CampaignRunner, JsonIsByteIdenticalAcrossThreadCounts) {
  // The headline determinism contract of the machine-readable surface:
  // identical bytes from `campaign ... format=json` however the host
  // parallelised the grid (wall-clock is excluded by default).
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.campaign_seed = 17;
  opts.collect_metrics = true;
  opts.threads = 1;
  const auto serial = CampaignRunner(opts).run(jobs);
  opts.threads = 4;
  const auto parallel = CampaignRunner(opts).run(jobs);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_EQ(serial.to_json(2), parallel.to_json(2));
  // The timing variant is allowed to differ — but only in wall_seconds.
  EXPECT_NE(serial.to_json(0, true), serial.to_json(0, false));
}

TEST(CampaignRunner, OutputRecordsSeedsAndLabels) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.threads = 2;
  opts.campaign_seed = 5;
  const auto out = CampaignRunner(opts).run(jobs);
  ASSERT_EQ(out.labels.size(), jobs.size());
  ASSERT_EQ(out.seeds.size(), jobs.size());
  ASSERT_EQ(out.job_wall_seconds.size(), jobs.size());
  EXPECT_EQ(out.campaign_seed, 5u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out.labels[i], jobs[i].label);
    EXPECT_EQ(out.seeds[i], derive_seed(5, i));
  }
}

TEST(SystemKindNames, RoundTrip) {
  for (const auto s :
       {SystemKind::kBaseline, SystemKind::kUnSync, SystemKind::kReunion,
        SystemKind::kLockstep, SystemKind::kCheckpoint}) {
    const auto parsed = core::parse_system(core::name_of(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(core::parse_system("notasystem").has_value());
}

}  // namespace
}  // namespace unsync
