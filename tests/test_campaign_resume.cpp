// Crash-safe resumable campaigns (CampaignRunner::Options journal /
// checkpoint_every / resume): the journal survives truncation at any line
// boundary, tolerates corrupt entries by re-running those jobs, hard-fails
// on a journal that belongs to a different campaign, and — the acceptance
// gate — produces byte-identical CampaignOutput::to_json() across any
// kill/resume split and any worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "runtime/campaign.hpp"

namespace {

using namespace unsync;
using runtime::CampaignRunner;
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
      job.insts = 3000;
      job.ser_per_inst = 2e-5;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::string journal_path(const char* name) {
  return ::testing::TempDir() + "campaign_" + name + ".jsonl";
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

std::string reference_json(bool collect_metrics = false) {
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.collect_metrics = collect_metrics;
  return CampaignRunner(opts).run(small_grid()).to_json();
}

TEST(CampaignJournal, JournalingItselfDoesNotChangeTheOutput) {
  const std::string path = journal_path("noop");
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  EXPECT_EQ(CampaignRunner(opts).run(small_grid()).to_json(),
            reference_json());
  // One header plus one line per job.
  std::istringstream lines(read_all(path));
  std::size_t count = 0;
  for (std::string line; std::getline(lines, line);) ++count;
  EXPECT_EQ(count, small_grid().size() + 1);
  std::remove(path.c_str());
}

TEST(CampaignJournal, ResumeFromTruncationIsByteIdentical) {
  const std::string path = journal_path("truncate");
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());
  const std::string full_journal = read_all(path);

  // Simulate a kill after every prefix of the journal — including cutting
  // MID-LINE (a torn write): resume must always reconverge to the same
  // bytes. Different worker counts on the resume leg too.
  const std::string want = reference_json();
  for (const std::size_t keep :
       {std::size_t{0}, full_journal.size() / 4, full_journal.size() / 2,
        full_journal.size() - 7, full_journal.size()}) {
    write_all(path, full_journal.substr(0, keep));
    CampaignRunner::Options ropts;
    ropts.threads = keep % 2 == 0 ? 1 : 4;
    ropts.journal = path;
    ropts.resume = true;
    EXPECT_EQ(CampaignRunner(ropts).run(small_grid()).to_json(), want)
        << "resume after keeping " << keep << " journal bytes";
  }
  std::remove(path.c_str());
}

TEST(CampaignJournal, ResumeSkipsRestoredJobs) {
  const std::string path = journal_path("skip");
  CampaignRunner::Options opts;
  opts.threads = 2;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());

  // A complete journal means the resume leg re-runs nothing; job wall
  // times of restored jobs stay zero (results come from the journal).
  CampaignRunner::Options ropts;
  ropts.threads = 2;
  ropts.journal = path;
  ropts.resume = true;
  const auto out = CampaignRunner(ropts).run(small_grid());
  for (const double t : out.job_wall_seconds) EXPECT_EQ(t, 0.0);
  EXPECT_EQ(out.to_json(), reference_json());
  std::remove(path.c_str());
}

TEST(CampaignJournal, CorruptEntryLineIsReRunNotFatal) {
  const std::string path = journal_path("corrupt");
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());

  // Flip a hex digit inside the second entry's blob: its CRC no longer
  // matches, so that one job re-runs while the rest restore.
  std::string journal = read_all(path);
  const auto blob_at = journal.find("\"blob\":\"", journal.find('\n') + 1);
  ASSERT_NE(blob_at, std::string::npos);
  const std::size_t digit = blob_at + 20;
  journal[digit] = journal[digit] == '0' ? '1' : '0';
  write_all(path, journal);

  CampaignRunner::Options ropts;
  ropts.threads = 1;
  ropts.journal = path;
  ropts.resume = true;
  EXPECT_EQ(CampaignRunner(ropts).run(small_grid()).to_json(),
            reference_json());
  std::remove(path.c_str());
}

TEST(CampaignJournal, MismatchedJournalIsRejected) {
  const std::string path = journal_path("mismatch");
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());

  // Different grid (one job dropped) -> grid fingerprint mismatch.
  auto fewer = small_grid();
  fewer.pop_back();
  CampaignRunner::Options ropts = opts;
  ropts.resume = true;
  EXPECT_THROW((void)CampaignRunner(ropts).run(fewer), ckpt::CkptError);

  // Different campaign seed -> header mismatch.
  (void)CampaignRunner(opts).run(small_grid());
  ropts.campaign_seed = opts.campaign_seed + 1;
  EXPECT_THROW((void)CampaignRunner(ropts).run(small_grid()),
               ckpt::CkptError);

  // Same grid but metrics collection toggled -> header mismatch (the
  // journaled blobs would be missing the metric snapshots).
  (void)CampaignRunner(opts).run(small_grid());
  CampaignRunner::Options mopts = opts;
  mopts.resume = true;
  mopts.collect_metrics = true;
  EXPECT_THROW((void)CampaignRunner(mopts).run(small_grid()),
               ckpt::CkptError);

  // Unrelated file content -> schema rejection.
  write_all(path, "this is not a campaign journal\n");
  CampaignRunner::Options bopts = opts;
  bopts.resume = true;
  EXPECT_THROW((void)CampaignRunner(bopts).run(small_grid()),
               ckpt::CkptError);
  std::remove(path.c_str());
}

TEST(CampaignJournal, MetricsSurviveTheJournalRoundTrip) {
  const std::string path = journal_path("metrics");
  const std::string want = reference_json(/*collect_metrics=*/true);

  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.collect_metrics = true;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());

  // Truncate to roughly half the entries, then resume with metrics on:
  // restored metric snapshots must merge exactly like freshly-run ones.
  const std::string journal = read_all(path);
  std::size_t cut = 0;
  for (std::size_t i = 0, newlines = 0; i < journal.size(); ++i) {
    if (journal[i] == '\n' && ++newlines == 4) {
      cut = i + 1;
      break;
    }
  }
  ASSERT_GT(cut, 0u);
  write_all(path, journal.substr(0, cut));

  CampaignRunner::Options ropts = opts;
  ropts.threads = 3;
  ropts.resume = true;
  EXPECT_EQ(CampaignRunner(ropts).run(small_grid()).to_json(), want);
  std::remove(path.c_str());
}

TEST(CampaignJournal, MissingJournalFileStartsFresh) {
  const std::string path = journal_path("fresh");
  std::remove(path.c_str());
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  opts.resume = true;  // resume against a journal that does not exist yet
  EXPECT_EQ(CampaignRunner(opts).run(small_grid()).to_json(),
            reference_json());
  std::remove(path.c_str());
}

TEST(CampaignJournal, CheckpointEveryOnlyAffectsFlushCadence) {
  const std::string path = journal_path("every");
  CampaignRunner::Options opts;
  opts.threads = 2;
  opts.journal = path;
  opts.checkpoint_every = 3;
  EXPECT_EQ(CampaignRunner(opts).run(small_grid()).to_json(),
            reference_json());
  // After a clean finish the journal is complete regardless of cadence.
  std::istringstream lines(read_all(path));
  std::size_t count = 0;
  for (std::string line; std::getline(lines, line);) ++count;
  EXPECT_EQ(count, small_grid().size() + 1);
  std::remove(path.c_str());
}

}  // namespace
