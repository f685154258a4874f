// Crash-safe resumable campaigns (CampaignRunner::Options journal /
// resume): the journal survives truncation at any line boundary, tolerates
// corrupt or misindexed entries by re-running those jobs, hard-fails
// on a journal that belongs to a different campaign, and — the acceptance
// gate — produces byte-identical CampaignOutput::to_json() across any
// kill/resume split and any worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"

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
  for (const unsigned threads : {1u, 2u}) {
    CampaignRunner::Options opts;
    opts.threads = threads;
    opts.journal = path;
    EXPECT_EQ(CampaignRunner(opts).run(small_grid()).to_json(),
              reference_json())
        << "threads=" << threads;
    // A finished journal holds one header plus one line per job, whatever
    // the worker count.
    std::istringstream lines(read_all(path));
    std::size_t count = 0;
    for (std::string line; std::getline(lines, line);) ++count;
    EXPECT_EQ(count, small_grid().size() + 1) << "threads=" << threads;
  }
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
  const auto jobs = small_grid();
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;

  // Flip a hex digit inside the first entry's blob: its CRC no longer
  // matches.
  const auto flip_digit = [&] {
    std::string journal = read_all(path);
    const auto blob_at = journal.find("\"blob\":\"", journal.find('\n') + 1);
    EXPECT_NE(blob_at, std::string::npos);
    const std::size_t digit = blob_at + 20;
    journal[digit] = journal[digit] == '0' ? '1' : '0';
    write_all(path, journal);
  };
  // Re-encode the first entry, CRC intact, with its `approximate` byte
  // set: only a retired approximate model wrote such entries, and every
  // run is cycle-accurate now. Its cycles move too, so a merge would show.
  const auto mark_approximate = [&] {
    const ckpt::JournalHeader header =
        runtime::make_journal_header(jobs, opts.campaign_seed, false);
    auto loaded = runtime::load_journal(path, header, jobs);
    std::string journal = header.to_line() + "\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(loaded[i].has_value());
      engine::RunResult r = loaded[i]->result;
      if (i == 0) {
        r.approximate = true;
        r.cycles += 1;
      }
      journal += ckpt::journal_entry_line(
          i, jobs[i].label, runtime::job_seed(jobs, opts.campaign_seed, i),
          runtime::encode_entry_blob(r, nullptr));
      journal += "\n";
    }
    write_all(path, journal);
  };

  // Either way that one job re-runs while the rest restore.
  for (const auto& corrupt : {std::function<void()>(flip_digit),
                              std::function<void()>(mark_approximate)}) {
    (void)CampaignRunner(opts).run(jobs);
    corrupt();
    CampaignRunner::Options ropts = opts;
    ropts.resume = true;
    const auto out = CampaignRunner(ropts).run(jobs);
    EXPECT_EQ(out.to_json(), reference_json());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i == 0) {
        EXPECT_GT(out.job_wall_seconds[i], 0.0);
      } else {
        EXPECT_EQ(out.job_wall_seconds[i], 0.0) << i;
      }
    }
  }
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

// The CRC guards an entry's blob, not its index. Flipping one bit of an
// index ("index":2 -> "index":0, the label then says mcf where job 0 is
// gzip) must drop that entry and re-run job 2, not hand job 2's result to
// job 0 on resume.
TEST(CampaignJournal, FlippedIndexDigitIsReRunNotMerged) {
  const std::string path = journal_path("index_flip");
  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  (void)CampaignRunner(opts).run(small_grid());
  std::string journal = read_all(path);
  const auto at = journal.find("{\"index\":2,");
  ASSERT_NE(at, std::string::npos);
  journal[at + 9] = '0';  // '2' (0x32) -> '0' (0x30): one bit
  write_all(path, journal);

  CampaignRunner::Options ropts = opts;
  ropts.resume = true;
  const auto out = CampaignRunner(ropts).run(small_grid());
  EXPECT_EQ(out.to_json(), reference_json());
  EXPECT_GT(out.job_wall_seconds[2], 0.0);  // re-run
  EXPECT_EQ(out.job_wall_seconds[0], 0.0);  // restored from its own line
  std::remove(path.c_str());
}

// ---- Journal identity pins ----------------------------------------------
//
// The header line a journal starts with is what resume and the distributed
// merge match on, so its bytes must not drift with refactors of the code
// that computes them. These values were recorded from the implementation
// that first wrote them; a journal written by any later build must carry
// the same line for the same grid.

/// Architecture knobs with every field distinct from its default and from
/// its neighbours, so a reordered or dropped field changes the bytes.
core::SystemParams distinct_params() {
  core::SystemParams p;
  p.unsync.group_size = 3;
  p.unsync.cb_entries = 101;
  p.unsync.drain_per_cycle = 2;
  p.unsync.eih_signal_cycles = 28;
  p.unsync.state_copy_word_cycles = 5;
  p.unsync.arch_state_words = 69;
  p.unsync.l1_copy_line_cycles = 9;
  p.reunion.fingerprint_interval = 11;
  p.reunion.compare_latency = 12;
  p.reunion.csb_entries = 13;
  p.reunion.rollback_penalty = 14;
  p.lockstep.max_skew = 15;
  p.lockstep.load_check_latency = 16;
  p.lockstep.resync_penalty = 17;
  p.checkpoint.checkpoint_interval = 18;
  p.checkpoint.checkpoint_cost = 19;
  p.checkpoint.compare_latency = 22;
  p.checkpoint.restore_cost = 23;
  p.hetero.log_entries = 24;
  p.hetero.checker_width = 25;
  p.hetero.checker_load_latency = 26;
  p.hetero.rollback_penalty = 27;
  return p;
}

/// Every system, each with one profile job and one trace job, seed set on
/// one and unset on the other (alternating by system). Profile jobs keep
/// the default knobs; trace jobs carry distinct_params().
std::vector<SimJob> identity_grid() {
  const auto trace = std::make_shared<const std::vector<workload::DynOp>>(64);
  std::vector<SimJob> jobs;
  const core::SystemKind kinds[] = {
      core::SystemKind::kBaseline, core::SystemKind::kUnSync,
      core::SystemKind::kReunion,  core::SystemKind::kLockstep,
      core::SystemKind::kCheckpoint, core::SystemKind::kHetero};
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    SimJob profile;
    profile.label = "gzip";
    profile.profile = "gzip";
    profile.system = kinds[i];
    profile.insts = 3000;
    profile.ser_per_inst = 2e-5;
    profile.app_threads = 2;
    SimJob replay;
    replay.label = "trace";
    replay.trace = trace;
    replay.system = kinds[i];
    replay.params = distinct_params();
    if (i % 2 == 0) {
      profile.seed = 11 + i;
    } else {
      replay.seed = 11 + i;
    }
    jobs.push_back(std::move(profile));
    jobs.push_back(std::move(replay));
  }
  return jobs;
}

TEST(JournalIdentity, GridFingerprintIsPinned) {
  EXPECT_EQ(runtime::grid_fingerprint(identity_grid()), 1578564289u);
}

TEST(JournalIdentity, HeaderLinesArePinned) {
  const auto jobs = identity_grid();
  const std::string head =
      R"({"schema":"unsync.campaign_journal.v1","campaign_seed":)";
  EXPECT_EQ(runtime::make_journal_header(jobs, 42, false).to_line(),
            head + R"(42,"jobs":12,"grid_crc":1578564289,)"
                   R"("collect_metrics":false})");
  EXPECT_EQ(runtime::make_journal_header(jobs, 7, true).to_line(),
            head + R"(7,"jobs":12,"grid_crc":1578564289,)"
                   R"("collect_metrics":true})");
  // An active prefix engine folds its policy into grid_crc.
  EXPECT_EQ(runtime::make_journal_header(jobs, 42, false, true, 5000)
                .to_line(),
            head + R"(42,"jobs":12,"grid_crc":1102223810,)"
                   R"("collect_metrics":false})");
}

// Campaigns with two-phase screening folded the screen flag and threshold
// into grid_crc; at threshold 0.5 this grid pinned 2135056175. Screening is
// gone, so no current configuration matches that CRC and such a journal is
// refused on resume.
TEST(JournalIdentity, ScreeningJournalIsRefusedOnResume) {
  const auto jobs = identity_grid();
  const std::string path = journal_path("screened");
  write_all(path,
            R"({"schema":"unsync.campaign_journal.v1","campaign_seed":42,)"
            R"("jobs":12,"grid_crc":2135056175,"collect_metrics":false})"
            "\n");
  for (const bool prefix : {false, true}) {
    EXPECT_THROW((void)runtime::load_journal(
                     path,
                     runtime::make_journal_header(jobs, 42, false, prefix,
                                                  5000),
                     jobs),
                 ckpt::CkptError)
        << "prefix=" << prefix;
  }
  CampaignRunner::Options ropts;
  ropts.threads = 1;
  ropts.journal = path;
  ropts.resume = true;
  EXPECT_THROW((void)CampaignRunner(ropts).run(jobs), ckpt::CkptError);
  std::remove(path.c_str());
}

// The restore filter's tier policy: every job is cycle-accurate, so only an
// exact result is final; an approximate one is refused whatever else it
// records, and its job re-runs.
TEST(TierScreening, JournalEntryAcceptancePinsTheTierPolicy) {
  engine::RunResult exact;
  engine::RunResult approx;
  approx.approximate = true;
  approx.errors_injected = 3;

  EXPECT_TRUE(runtime::entry_acceptable(exact));
  EXPECT_FALSE(runtime::entry_acceptable(approx));

  exact.errors_injected = 3;
  EXPECT_TRUE(runtime::entry_acceptable(exact));
  approx.errors_injected = 0;
  EXPECT_FALSE(runtime::entry_acceptable(approx));
}

}  // namespace
