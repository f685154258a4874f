// The two-tier screening contract (docs/TIERS.md):
//   threshold 0   -> every cell re-runs on the detailed tier, so a screened
//                    campaign is byte-identical to a pure detailed one at
//                    any worker count;
//   threshold inf -> no cell re-runs: the output is pure fast tier, every
//                    result tagged approximate;
//   any threshold -> the fast tier consumes the identical fault-arrival
//                    schedule, so errors_injected matches detailed exactly.
#include <gtest/gtest.h>

#include <limits>

#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"

namespace unsync {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A small mixed grid with enough SER that several cells see errors.
std::vector<runtime::SimJob> small_grid() {
  std::vector<runtime::SimJob> jobs;
  for (const char* bench : {"gzip", "galgel"}) {
    for (const auto kind :
         {core::SystemKind::kBaseline, core::SystemKind::kUnSync,
          core::SystemKind::kReunion}) {
      runtime::SimJob job;
      job.label = bench;
      job.profile = bench;
      job.system = kind;
      job.insts = 8000;
      job.ser_per_inst = 2e-4;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(TierScreening, ThresholdZeroMatchesPureDetailedAtAnyWorkerCount) {
  const auto jobs = small_grid();
  runtime::CampaignRunner::Options detailed;
  detailed.threads = 1;
  const std::string reference =
      runtime::CampaignRunner(detailed).run(jobs).to_json();

  for (const unsigned threads : {1u, 3u}) {
    runtime::CampaignRunner::Options screen;
    screen.threads = threads;
    screen.screen = true;
    screen.screen_threshold = 0.0;
    EXPECT_EQ(runtime::CampaignRunner(screen).run(jobs).to_json(), reference)
        << "threads=" << threads;
  }
}

TEST(TierScreening, ThresholdInfinityStaysPureFast) {
  const auto jobs = small_grid();
  runtime::CampaignRunner::Options screen;
  screen.threads = 2;
  screen.screen = true;
  screen.screen_threshold = kInf;
  const auto out = runtime::CampaignRunner(screen).run(jobs);

  bool any_interesting = false;
  for (const auto& r : out.results) {
    EXPECT_TRUE(r.approximate);
    if (runtime::screening_score(r) > 0) any_interesting = true;
  }
  // The grid must actually contain cells a finite threshold WOULD have
  // re-run, or this test proves nothing.
  EXPECT_TRUE(any_interesting);
}

TEST(TierScreening, FastTierReproducesTheArrivalSchedule) {
  runtime::SimJob job;
  job.label = "gzip";
  job.profile = "gzip";
  job.system = core::SystemKind::kUnSync;
  job.insts = 30000;
  job.ser_per_inst = 2e-4;

  const auto detailed = runtime::CampaignRunner::run_job(job, 7);
  job.params.tier = engine::Tier::kFast;
  const auto fast = runtime::CampaignRunner::run_job(job, 7);

  EXPECT_FALSE(detailed.approximate);
  EXPECT_TRUE(fast.approximate);
  EXPECT_GT(detailed.errors_injected, 0u);
  // Identical seed + stream => identical schedule_arrivals draws: the
  // approximate tier may mistime recoveries but never miscount strikes.
  EXPECT_EQ(fast.errors_injected, detailed.errors_injected);
  EXPECT_EQ(fast.instructions, detailed.instructions);
}

TEST(TierScreening, ScreenedCellMetricsComeFromTheProducingTierOnly) {
  // A promoted cell's metrics must be those of the detailed re-run alone —
  // not a fast+detailed merge, and not the stale fast-pass snapshot.
  runtime::SimJob job = small_grid()[1];  // unsync cell with error activity
  const std::uint64_t seed = 7;

  const auto pure_metrics = [&](engine::Tier tier) {
    runtime::SimJob j = job;
    j.params.tier = tier;
    obs::MetricsRegistry reg;
    runtime::CampaignRunner::run_job(j, seed, &reg);
    return reg.snapshot().to_json();
  };

  obs::MetricsSnapshot promoted;
  runtime::CampaignRunner::run_job_screened(job, seed, 0.0, &promoted);
  EXPECT_EQ(promoted.to_json(), pure_metrics(engine::Tier::kDetailed));

  obs::MetricsSnapshot fast_only;
  runtime::CampaignRunner::run_job_screened(job, seed, kInf, &fast_only);
  EXPECT_EQ(fast_only.to_json(), pure_metrics(engine::Tier::kFast));
  EXPECT_NE(promoted.to_json(), fast_only.to_json());
}

TEST(TierScreening, ScreeningScoreReflectsErrorActivity) {
  engine::RunResult quiet;
  quiet.cycles = 1000;
  EXPECT_EQ(runtime::screening_score(quiet), 0.0);

  engine::RunResult busy;
  busy.cycles = 1000;
  busy.errors_injected = 2;
  busy.recoveries = 1;
  busy.rollbacks = 1;
  busy.recovery_cycles_total = 500;
  EXPECT_DOUBLE_EQ(runtime::screening_score(busy), 4.5);
  EXPECT_LT(runtime::screening_score(busy), kInf);
}

TEST(TierScreening, JournalEntryAcceptancePinsTheTierPolicy) {
  runtime::SimJob detailed_job;
  runtime::SimJob fast_job;
  fast_job.params.tier = engine::Tier::kFast;

  engine::RunResult exact;
  engine::RunResult approx;
  approx.approximate = true;
  approx.errors_injected = 3;  // screening_score 3

  // Plain campaigns: the entry's tier must match the job's requested tier.
  EXPECT_TRUE(runtime::entry_acceptable(detailed_job, exact, false, 0));
  EXPECT_FALSE(runtime::entry_acceptable(detailed_job, approx, false, 0));
  EXPECT_TRUE(runtime::entry_acceptable(fast_job, approx, false, 0));
  EXPECT_FALSE(runtime::entry_acceptable(fast_job, exact, false, 0));

  // Screen campaigns: detailed entries are always final; approximate
  // entries are final only while their score stays under the threshold.
  EXPECT_TRUE(runtime::entry_acceptable(detailed_job, exact, true, 0));
  EXPECT_FALSE(runtime::entry_acceptable(detailed_job, approx, true, 3.0));
  EXPECT_TRUE(runtime::entry_acceptable(detailed_job, approx, true, kInf));
}

TEST(TierScreening, ScreenPolicyChangesTheJournalIdentity) {
  const auto jobs = small_grid();
  const auto plain = runtime::make_journal_header(jobs, 42, false);
  const auto screened = runtime::make_journal_header(jobs, 42, false, true, 1.0);
  const auto screened_other =
      runtime::make_journal_header(jobs, 42, false, true, 2.0);
  EXPECT_NE(plain.grid_crc, screened.grid_crc);
  EXPECT_NE(screened.grid_crc, screened_other.grid_crc);

  // The per-job tier is part of the grid fingerprint too: a fast-tier grid
  // can never be confused with a detailed-tier journal.
  auto fast_jobs = jobs;
  for (auto& j : fast_jobs) j.params.tier = engine::Tier::kFast;
  EXPECT_NE(runtime::make_journal_header(fast_jobs, 42, false).grid_crc,
            plain.grid_crc);
}

}  // namespace
}  // namespace unsync
