// Prefix-sharing fault-injection campaigns (runtime/prefix.hpp): the
// out-of-band fault channel matches what construction actually draws, the
// golden cache key shares exactly the cells it should, and — the
// acceptance gate — prefix-shared campaigns are byte-identical to naive
// full-run campaigns across checkpoint intervals, worker counts, cache
// budgets (eviction + thinning), journal resume and the
// distributed fabric.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "core/factory.hpp"
#include "runtime/campaign.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/distributed.hpp"
#include "runtime/prefix.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;
using runtime::CampaignRunner;
using runtime::GoldenTrace;
using runtime::SimJob;

std::shared_ptr<const std::vector<workload::DynOp>> shared_trace(
    std::uint64_t insts) {
  workload::SyntheticStream stream(workload::profile("gzip"), 7, insts);
  std::vector<workload::DynOp> ops;
  ops.reserve(insts);
  for (workload::DynOp op; stream.next(&op);) ops.push_back(op);
  return std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
}

/// A grid built to exercise every engine path: trace cells (which share one
/// golden across SER points AND trial seeds) for all five architectures,
/// SER points from zero-arrival (golden result) to frequent-arrival
/// (restore + natural finish), plus profile cells (goldens shared only
/// within a seed).
std::vector<SimJob> mixed_grid() {
  static const auto trace = shared_trace(2500);
  std::vector<SimJob> jobs;
  for (const auto kind :
       {core::SystemKind::kBaseline, core::SystemKind::kUnSync,
        core::SystemKind::kReunion, core::SystemKind::kLockstep,
        core::SystemKind::kCheckpoint}) {
    for (const double ser : {0.0, 1e-7, 2e-4}) {
      SimJob job;
      job.label = "trace";
      job.trace = trace;
      job.system = kind;
      job.ser_per_inst = ser;
      jobs.push_back(std::move(job));
    }
  }
  for (const char* bench : {"gzip", "susan"}) {
    SimJob job;
    job.label = bench;
    job.profile = bench;
    job.insts = 2500;
    job.system = core::SystemKind::kUnSync;
    job.ser_per_inst = 1e-4;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string naive_json(const std::vector<SimJob>& jobs) {
  CampaignRunner::Options opts;
  opts.threads = 1;
  return CampaignRunner(opts).run(jobs).to_json();
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

TEST(PrefixFaultChannel, MatchesFreshlyConstructedSystems) {
  const auto trace = shared_trace(1200);
  for (const auto kind :
       {core::SystemKind::kBaseline, core::SystemKind::kUnSync,
        core::SystemKind::kReunion, core::SystemKind::kLockstep,
        core::SystemKind::kCheckpoint}) {
    SimJob job;
    job.label = "chan";
    job.trace = trace;
    job.system = kind;
    job.ser_per_inst = 4e-4;
    job.app_threads = 2;
    const std::uint64_t seed = 99;
    const auto channel = runtime::compute_fault_channel(job, seed);

    const auto stream = runtime::make_job_stream(job, seed);
    const auto sys =
        core::make_system(kind, runtime::job_system_config(job, seed), *stream,
                          job.params);
    EXPECT_EQ(sys->fault_channel_bytes(), channel.encoded) << name_of(kind);
    if (kind == core::SystemKind::kBaseline) {
      EXPECT_TRUE(channel.empty());
      EXPECT_FALSE(channel.has_rng);
    } else {
      EXPECT_TRUE(channel.has_rng);
      EXPECT_FALSE(channel.empty());  // 4e-4 over 1200 insts x 2 threads
    }
  }
}

TEST(PrefixFaultChannel, InstallingTheChannelReproducesTheFaultyRun) {
  // A golden-configured system + install_fault_channel must equal a system
  // constructed with the fault process on — the core restore identity.
  const auto trace = shared_trace(1500);
  SimJob job;
  job.label = "install";
  job.trace = trace;
  job.system = core::SystemKind::kUnSync;
  job.ser_per_inst = 3e-4;
  const std::uint64_t seed = 4242;
  const auto direct = CampaignRunner::run_job(job, seed);

  SimJob gjob = job;
  gjob.ser_per_inst = 0.0;
  const auto stream = runtime::make_job_stream(gjob, seed);
  const auto sys = core::make_system(gjob.system,
                                     runtime::job_system_config(gjob, seed),
                                     *stream, gjob.params);
  const auto channel = runtime::compute_fault_channel(job, seed);
  sys->install_fault_channel(channel.encoded);
  EXPECT_EQ(sys->run().to_json(), direct.to_json());
}

TEST(PrefixGoldenKey, SharesTrialsAndSerPointsOfATraceCell) {
  const auto trace = shared_trace(500);
  SimJob a;
  a.trace = trace;
  a.system = core::SystemKind::kUnSync;
  a.ser_per_inst = 1e-5;

  SimJob b = a;
  b.ser_per_inst = 9e-4;  // different error rate
  b.label = "other";      // label is presentation, not identity
  EXPECT_EQ(runtime::golden_job_key(a, 1), runtime::golden_job_key(b, 2));

  SimJob c = a;
  c.system = core::SystemKind::kReunion;
  EXPECT_NE(runtime::golden_job_key(a, 1), runtime::golden_job_key(c, 1));

  SimJob d = a;
  d.params.unsync.cb_entries = a.params.unsync.cb_entries * 2;
  EXPECT_NE(runtime::golden_job_key(a, 1), runtime::golden_job_key(d, 1));

  // Profile streams are generated from the seed: trials never share.
  SimJob p;
  p.profile = "gzip";
  p.system = core::SystemKind::kUnSync;
  EXPECT_NE(runtime::golden_job_key(p, 1), runtime::golden_job_key(p, 2));
  EXPECT_EQ(runtime::golden_job_key(p, 1), runtime::golden_job_key(p, 1));
}

/// A golden-configured system of `job` (ser zeroed), as the engine builds
/// its golden run and its injection jobs.
struct GoldenTwin {
  SimJob job;
  std::unique_ptr<workload::InstStream> stream;
  std::unique_ptr<core::System> sys;

  GoldenTwin(SimJob j, std::uint64_t seed) : job(std::move(j)) {
    job.ser_per_inst = 0.0;
    stream = runtime::make_job_stream(job, seed);
    sys = core::make_system(job.system, runtime::job_system_config(job, seed),
                            *stream, job.params);
  }
};

// Every golden checkpoint restores, into a fresh golden-configured system,
// exactly the state a naive twin reaches at that boundary.
TEST(PrefixDigests, GoldenDigestsMatchANaiveTwinAtEveryBoundary) {
  const auto trace = shared_trace(1500);
  const Cycle interval = 600;
  for (const auto kind :
       {core::SystemKind::kBaseline, core::SystemKind::kUnSync,
        core::SystemKind::kReunion, core::SystemKind::kLockstep,
        core::SystemKind::kCheckpoint, core::SystemKind::kHetero}) {
    SimJob job;
    job.trace = trace;
    job.system = kind;
    job.ser_per_inst = 2e-4;
    const auto golden = runtime::build_golden(job, 31, interval);
    ASSERT_GE(golden->snaps.size(), 2u) << name_of(kind);

    GoldenTwin twin(job, 31);
    for (std::size_t k = 0; k < golden->snaps.size(); ++k) {
      const GoldenTrace::Snap& snap = golden->snaps[k];
      ASSERT_EQ(snap.boundary, (k + 1) * interval) << name_of(kind);
      (void)twin.sys->run_naive(snap.boundary);
      GoldenTwin restored(job, 31);
      runtime::restore_golden(*restored.sys, snap);
      EXPECT_EQ(restored.sys->state_fingerprint(),
                twin.sys->state_fingerprint())
          << name_of(kind) << " @" << snap.boundary;
      EXPECT_EQ(snap.progress, twin.sys->group_progress())
          << name_of(kind) << " @" << snap.boundary;
    }
  }
}

/// The payload a packed snapshot holds, read in place.
std::string unpacked(const ckpt::PackedPayload& packed) {
  ckpt::Deserializer d(packed);
  return std::string(d.take(packed.size()), packed.size());
}

// Golden snapshots are saved straight into a packed sink. Each one is the
// naive twin's flat save at its boundary, packed: the same runs and bytes()
// (so cache budgets, thinning and the bytes counter see what they always
// did), the flat payload when read back, and the same restored state.
TEST(PrefixCache, SnapshotsAreTheFlatSavesPacked) {
  const auto trace = shared_trace(1500);
  const Cycle interval = 500;
  for (const auto kind :
       {core::SystemKind::kBaseline, core::SystemKind::kUnSync,
        core::SystemKind::kReunion, core::SystemKind::kLockstep,
        core::SystemKind::kCheckpoint, core::SystemKind::kHetero}) {
    SimJob job;
    job.trace = trace;
    job.system = kind;
    job.ser_per_inst = 2e-4;
    const auto golden = runtime::build_golden(job, 31, interval);
    ASSERT_GE(golden->snaps.size(), 3u) << name_of(kind);

    GoldenTwin twin(job, 31);
    for (const GoldenTrace::Snap& snap : golden->snaps) {
      SCOPED_TRACE(std::string(name_of(kind)) + " @" +
                   std::to_string(snap.boundary));
      (void)twin.sys->run(snap.boundary);
      ckpt::Serializer flat;
      twin.sys->save_checkpoint(flat);
      ckpt::Serializer repack(ckpt::Serializer::Sink::kPacked);
      repack.bytes(flat.data().data(), flat.data().size());
      const ckpt::PackedPayload want = repack.take_packed();
      EXPECT_TRUE(snap.state.runs() == want.runs());
      EXPECT_EQ(snap.state.bytes(), want.bytes());
      EXPECT_TRUE(snap.state == want);
      EXPECT_TRUE(unpacked(snap.state) == flat.data());

      GoldenTwin from_flat(job, 31);
      from_flat.sys->load_checkpoint_payload(flat.data());
      GoldenTwin from_snap(job, 31);
      runtime::restore_golden(*from_snap.sys, snap);
      EXPECT_EQ(from_snap.sys->state_fingerprint(),
                from_flat.sys->state_fingerprint());
      ckpt::Serializer a, b;
      from_flat.sys->save_checkpoint(a);
      from_snap.sys->save_checkpoint(b);
      EXPECT_TRUE(a.data() == flat.data());
      EXPECT_TRUE(b.data() == flat.data());
    }
  }
}

// The cache counts packed snapshots: PrefixStats::bytes is the sum of their
// sizes, a fraction of the containers the same payloads would make.
TEST(PrefixCache, BytesAreThePackedSnapshotSizes) {
  const auto jobs = mixed_grid();
  const std::uint64_t campaign_seed = CampaignRunner::Options{}.campaign_seed;
  runtime::PrefixOptions opts;
  opts.enabled = true;
  opts.interval = 700;
  runtime::PrefixEngine engine(opts);
  std::set<std::string> goldens;
  std::uint64_t packed = 0;
  std::uint64_t containers = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t seed = runtime::job_seed(jobs, campaign_seed, i);
    (void)engine.run_job(jobs[i], seed);
    if (!goldens.insert(runtime::golden_job_key(jobs[i], seed)).second) {
      continue;
    }
    const auto golden = runtime::build_golden(jobs[i], seed, opts.interval);
    for (const GoldenTrace::Snap& snap : golden->snaps) {
      packed += snap.state.bytes();
      containers += ckpt::wrap_container(unpacked(snap.state)).size();
    }
  }
  const runtime::PrefixStats stats = engine.stats();
  ASSERT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.goldens_built, goldens.size());
  EXPECT_EQ(stats.bytes, packed);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LT(stats.bytes * 4, containers)
      << stats.bytes << " packed vs " << containers << " container bytes";
}

// The premise of restore-then-run without a convergence splice: once an
// arrival has fired, a job's state never again equals its golden twin's,
// because every redundant system's recovery costs cycles. If a strike is
// ever modelled as masked at zero cost, this fails — and splicing the
// golden tail onto converged jobs might pay again.
TEST(PrefixPremise, AFiredArrivalNeverReturnsToTheGoldenState) {
  const auto trace = shared_trace(1500);
  const Cycle interval = 300;
  for (const auto kind :
       {core::SystemKind::kUnSync, core::SystemKind::kReunion,
        core::SystemKind::kLockstep, core::SystemKind::kCheckpoint,
        core::SystemKind::kHetero}) {
    SimJob job;
    job.trace = trace;
    job.system = kind;
    job.ser_per_inst = 2e-3;
    const std::uint64_t seed = 31;
    const auto channel = runtime::compute_fault_channel(job, seed);
    ASSERT_FALSE(channel.empty()) << name_of(kind);

    // Built the way PrefixEngine::run_job builds a job: the golden twin
    // with the job's fault channel installed.
    GoldenTwin faulty(job, seed);
    faulty.sys->install_fault_channel(channel.encoded);
    GoldenTwin golden(job, seed);

    std::size_t checked = 0;
    for (Cycle boundary = interval;; boundary += interval) {
      const engine::RunResult r = faulty.sys->run(boundary);
      (void)golden.sys->run_naive(boundary);
      bool fired = false;
      for (const auto* c : faulty.sys->fault_sources().arrivals) {
        fired = fired || c->next > 0;
      }
      if (fired) {
        EXPECT_NE(faulty.sys->state_fingerprint(),
                  golden.sys->state_fingerprint())
            << name_of(kind) << " @" << boundary;
        ++checked;
      }
      if (r.cycles < boundary) break;
    }
    EXPECT_GE(checked, 2u) << name_of(kind);
  }
}

TEST(PrefixStats, CodecRoundTripsAndRejectsCorruption) {
  runtime::PrefixStats s;
  s.goldens_built = 3;
  s.hits = 14;
  s.misses = 3;
  s.evictions = 1;
  s.bytes = 1 << 20;
  s.restore_ns = 123456;
  s.cycles_skipped = 777777;
  s.jobs_restored = 9;
  s.jobs_spliced = 5;
  s.jobs_bypassed = 2;
  const std::string blob = s.encode();
  const auto back = runtime::PrefixStats::decode(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->encode(), blob);

  for (std::size_t cut = 0; cut < blob.size(); cut += 7) {
    EXPECT_FALSE(runtime::PrefixStats::decode(blob.substr(0, cut)))
        << "truncated to " << cut;
  }
  EXPECT_FALSE(runtime::PrefixStats::decode(blob + "x"));
}

TEST(PrefixCampaign, ByteIdenticalAcrossIntervalsAndWorkerCounts) {
  const auto jobs = mixed_grid();
  const std::string want = naive_json(jobs);
  // Only arrival-free jobs finish early: they return the golden result.
  std::uint64_t arrival_free = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t seed =
        runtime::job_seed(jobs, CampaignRunner::Options{}.campaign_seed, i);
    if (runtime::compute_fault_channel(jobs[i], seed).empty()) ++arrival_free;
  }
  ASSERT_GT(arrival_free, 0u);
  for (const Cycle interval : {Cycle{700}, Cycle{4096}}) {
    for (const unsigned threads : {1u, 4u}) {
      CampaignRunner::Options opts;
      opts.threads = threads;
      opts.prefix.enabled = true;
      opts.prefix.interval = interval;
      const auto out = CampaignRunner(opts).run(jobs);
      EXPECT_EQ(out.to_json(), want)
          << "interval=" << interval << " threads=" << threads;
      // The engine must actually have shared work, not silently bypassed:
      // 3 SER points x 5 systems share 5 goldens, so at least the trace
      // cells produce cache hits and early exits.
      const auto& c = out.scheduler_metrics.counters;
      EXPECT_GT(c.at("campaign.prefix_cache.hits"), 0u);
      EXPECT_EQ(c.at("campaign.prefix_cache.jobs_early_terminated"),
                arrival_free);
      EXPECT_GT(c.at("campaign.prefix_cache.cycles_skipped"), 0u);
    }
  }
}

TEST(PrefixCampaign, TinyCacheBudgetEvictsButStaysIdentical) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options opts;
  opts.threads = 2;
  opts.prefix.enabled = true;
  opts.prefix.interval = 600;
  opts.prefix.cache_mb = 0;  // every insertion is over budget
  const auto out = CampaignRunner(opts).run(jobs);
  EXPECT_EQ(out.to_json(), naive_json(jobs));
  EXPECT_GT(out.scheduler_metrics.counters.at("campaign.prefix_cache.evictions"),
            0u);
}

TEST(PrefixCampaign, MetricsCollectionRoutesEveryJobAroundTheEngine) {
  const auto jobs = mixed_grid();
  CampaignRunner::Options naive;
  naive.threads = 1;
  naive.collect_metrics = true;
  const std::string want = CampaignRunner(naive).run(jobs).to_json();

  CampaignRunner::Options opts = naive;
  opts.threads = 2;
  opts.prefix.enabled = true;
  const auto out = CampaignRunner(opts).run(jobs);
  EXPECT_EQ(out.to_json(), want);
  EXPECT_EQ(
      out.scheduler_metrics.counters.at("campaign.prefix_cache.jobs_bypassed"),
      jobs.size());
}

TEST(PrefixCampaign, JournalResumeAfterAnyTruncationIsByteIdentical) {
  const auto jobs = mixed_grid();
  const std::string want = naive_json(jobs);
  const std::string path = ::testing::TempDir() + "prefix_resume.jsonl";

  CampaignRunner::Options opts;
  opts.threads = 2;
  opts.journal = path;
  opts.prefix.enabled = true;
  opts.prefix.interval = 900;
  (void)CampaignRunner(opts).run(jobs);
  const std::string full_journal = read_all(path);

  // Kill -9 at any byte offset — including mid-line and before anything
  // was written — then resume with various worker counts: the merged
  // output must stay byte-identical to the naive serial run.
  for (const std::size_t keep :
       {std::size_t{0}, full_journal.size() / 3, full_journal.size() / 2,
        full_journal.size() - 5}) {
    write_all(path, full_journal.substr(0, keep));
    CampaignRunner::Options ropts = opts;
    ropts.threads = keep % 2 == 0 ? 1 : 3;
    ropts.resume = true;
    EXPECT_EQ(CampaignRunner(ropts).run(jobs).to_json(), want)
        << "resume after keeping " << keep << " journal bytes";
  }

  // The trailing stats line parses and carries the engine totals.
  write_all(path, full_journal);
  const auto status = runtime::journal_status(path);
  EXPECT_EQ(status.corrupt, 0u);
  ASSERT_TRUE(status.prefix.has_value());
  EXPECT_GE(status.prefix->goldens_built, 1u);
  std::remove(path.c_str());
}

TEST(PrefixCampaign, PrefixPolicyIsPartOfJournalIdentity) {
  const auto jobs = mixed_grid();
  const std::string path = ::testing::TempDir() + "prefix_identity.jsonl";

  CampaignRunner::Options opts;
  opts.threads = 1;
  opts.journal = path;
  opts.prefix.enabled = true;
  (void)CampaignRunner(opts).run(jobs);

  // A prefix-sharing journal cannot be resumed by a naive campaign...
  CampaignRunner::Options naive = opts;
  naive.prefix.enabled = false;
  naive.resume = true;
  EXPECT_THROW((void)CampaignRunner(naive).run(jobs), ckpt::CkptError);

  // ...nor under a different golden-checkpoint interval...
  CampaignRunner::Options other = opts;
  other.prefix.interval = opts.prefix.interval + 1;
  other.resume = true;
  EXPECT_THROW((void)CampaignRunner(other).run(jobs), ckpt::CkptError);

  // ...but the cache budget is a pure performance knob.
  CampaignRunner::Options budget = opts;
  budget.prefix.cache_mb = 1;
  budget.resume = true;
  EXPECT_EQ(CampaignRunner(budget).run(jobs).to_json(), naive_json(jobs));
  std::remove(path.c_str());
}

TEST(PrefixDistributed, ShardedWorkersMergeByteIdentical) {
  namespace fs = std::filesystem;
  const auto jobs = mixed_grid();
  const std::string dir = ::testing::TempDir() + "prefix_dist";
  fs::remove_all(dir);

  runtime::DistributedOptions opts;
  opts.dir = dir;
  opts.workers = 2;
  opts.threads = 2;
  opts.steal = false;
  opts.timeout_seconds = 0;
  opts.prefix.enabled = true;
  opts.prefix.interval = 800;
  for (unsigned w = 0; w < opts.workers; ++w) {
    runtime::DistributedOptions worker = opts;
    worker.shard = w;
    (void)runtime::run_worker(jobs, worker);
  }
  EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(), naive_json(jobs));

  // Shard journals carry per-process engine stats.
  const auto status =
      runtime::journal_status(runtime::shard_journal_path(dir, 0));
  ASSERT_TRUE(status.prefix.has_value());
  EXPECT_GE(status.prefix->goldens_built, 1u);

  // Kill -9 one worker mid-campaign (simulated by truncating its journal
  // mid-line), resume it, and merge again: still byte-identical.
  const std::string shard0 = runtime::shard_journal_path(dir, 0);
  const std::string journal = read_all(shard0);
  write_all(shard0, journal.substr(0, journal.size() / 2));
  runtime::DistributedOptions resumed = opts;
  resumed.shard = 0;
  (void)runtime::run_worker(jobs, resumed);
  EXPECT_EQ(runtime::merge_shards(jobs, opts).to_json(), naive_json(jobs));

  // Every participant must agree on the prefix policy — a naive worker
  // joining a prefix-sharing campaign dir is rejected by the manifest.
  runtime::DistributedOptions naive = opts;
  naive.shard = 1;
  naive.prefix.enabled = false;
  EXPECT_THROW((void)runtime::run_worker(jobs, naive), ckpt::CkptError);
  fs::remove_all(dir);
}

}  // namespace
