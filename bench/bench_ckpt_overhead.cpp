// Checkpoint subsystem overhead: what does snapshotting cost, and what does
// journaling cost a campaign?
//
// Four questions, one table each:
//   1. Snapshot size and save/load wall time per architecture (the state a
//      mid-run "unsync.ckpt.v1" file carries).
//   2. In-memory container round trip (save_checkpoint_bytes /
//      load_checkpoint_bytes — the buffer-backed path the prefix-sharing
//      engine caches and restores from): blob size plus save and restore
//      latency into a fresh system, and what one convergence check costs:
//      state_fingerprint() (FNV-1a) next to the prefix engine's core and
//      full digests (xxh64).
//   3. Simulation throughput with periodic snapshots vs. none (a snapshot
//      is taken from a paused simulation, so the only cost is the
//      serialization itself).
//   4. Campaign wall time with and without a job journal (the per-job blob
//      encode + append + flush).
//
// Run with default knobs for CI-scale numbers; raise insts= for stable
// timings.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "ckpt/serializer.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "runtime/prefix.hpp"

namespace {

using namespace unsync;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::unique_ptr<core::System> make(const bench::BenchArgs& a,
                                   core::SystemKind kind) {
  workload::SyntheticStream s = a.stream("gzip");
  core::SystemConfig cfg = a.system_config(1e-5);
  return core::make_system(kind, cfg, s);
}

/// Mean wall time of `fn` over a few calls, in ms.
template <typename Fn>
double mean_ms(Fn&& fn) {
  constexpr int kReps = 5;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) fn();
  return seconds_since(t0) * 1e3 / kReps;
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Checkpoint overhead (src/ckpt)", a);

  const core::SystemKind kinds[] = {
      core::SystemKind::kBaseline, core::SystemKind::kUnSync,
      core::SystemKind::kReunion, core::SystemKind::kLockstep,
      core::SystemKind::kCheckpoint, core::SystemKind::kHetero};

  // 1) Snapshot size + save/load time, taken mid-run.
  TextTable t1("Mid-run snapshot: size and (de)serialization time");
  t1.set_header({"system", "ckpt bytes", "save ms", "load ms"});
  for (const auto kind : kinds) {
    auto sys = make(a, kind);
    sys->run(static_cast<Cycle>(a.insts / 2));

    auto t0 = std::chrono::steady_clock::now();
    ckpt::Serializer s;
    sys->save_checkpoint(s);
    const double save_s = seconds_since(t0);
    const std::string payload = s.take();

    auto fresh = make(a, kind);
    t0 = std::chrono::steady_clock::now();
    ckpt::Deserializer d(payload);
    fresh->load_checkpoint(d);
    const double load_s = seconds_since(t0);

    t1.add_row({core::name_of(kind), std::to_string(payload.size()),
                TextTable::num(save_s * 1e3, 3),
                TextTable::num(load_s * 1e3, 3)});
  }
  t1.print(std::cout);

  // 2) In-memory container round trip — the prefix engine's hot path: one
  //    save per golden interval, one restore per shared injection job.
  TextTable t1b(
      "In-memory container: blob size, save/restore and convergence-check "
      "latency");
  t1b.set_header({"system", "blob bytes", "save ms", "restore ms",
                  "fingerprint ms", "core digest ms", "full digest ms"});
  for (const auto kind : kinds) {
    auto sys = make(a, kind);
    sys->run(static_cast<Cycle>(a.insts / 2));

    auto t0 = std::chrono::steady_clock::now();
    const std::string blob = sys->save_checkpoint_bytes();
    const double save_s = seconds_since(t0);

    auto fresh = make(a, kind);
    t0 = std::chrono::steady_clock::now();
    fresh->load_checkpoint_bytes(blob);
    const double restore_s = seconds_since(t0);

    const double fp_ms = mean_ms([&] { (void)sys->state_fingerprint(); });
    const double core_ms = mean_ms([&] { (void)runtime::core_digest(*sys); });
    const double full_ms = mean_ms([&] { (void)runtime::full_digest(*sys); });
    t1b.add_row({core::name_of(kind), std::to_string(blob.size()),
                 TextTable::num(save_s * 1e3, 3),
                 TextTable::num(restore_s * 1e3, 3), TextTable::num(fp_ms, 3),
                 TextTable::num(core_ms, 3), TextTable::num(full_ms, 3)});
  }
  t1b.print(std::cout);

  // 3) Run-to-completion wall time, plain vs. snapshot-every-quarter.
  TextTable t2("Simulation wall time: none vs. 4 snapshots per run");
  t2.set_header({"system", "plain ms", "snapshotting ms", "overhead"});
  for (const auto kind : kinds) {
    auto t0 = std::chrono::steady_clock::now();
    const auto full = make(a, kind)->run();
    const double plain_s = seconds_since(t0);

    auto sys = make(a, kind);
    t0 = std::chrono::steady_clock::now();
    for (int q = 1; q <= 4; ++q) {
      sys->run(full.cycles * static_cast<Cycle>(q) / 4);
      ckpt::Serializer s;
      sys->save_checkpoint(s);
    }
    sys->run();
    const double snap_s = seconds_since(t0);
    t2.add_row({core::name_of(kind), TextTable::num(plain_s * 1e3, 1),
                TextTable::num(snap_s * 1e3, 1),
                TextTable::pct(plain_s > 0 ? snap_s / plain_s - 1.0 : 0.0)});
  }
  t2.print(std::cout);

  // 4) Campaign with vs. without a job journal.
  std::vector<runtime::SimJob> jobs;
  for (const char* b : {"gzip", "mcf", "susan", "bzip2"}) {
    for (const auto kind : {core::SystemKind::kBaseline,
                            core::SystemKind::kUnSync,
                            core::SystemKind::kReunion}) {
      jobs.push_back(bench::sim_job(a, b, kind, 1e-5));
    }
  }
  runtime::CampaignRunner::Options plain_opts;
  plain_opts.threads = a.workers;
  plain_opts.campaign_seed = a.seed;
  const auto plain_out = runtime::CampaignRunner(plain_opts).run(jobs);

  runtime::CampaignRunner::Options j_opts = plain_opts;
  j_opts.journal = "bench_ckpt_overhead_journal.jsonl";
  const auto j_out = runtime::CampaignRunner(j_opts).run(jobs);
  std::remove(j_opts.journal.c_str());

  TextTable t3("Campaign journaling overhead (" + std::to_string(jobs.size()) +
               " jobs)");
  t3.set_header({"mode", "wall s", "overhead"});
  t3.add_row({"no journal", TextTable::num(plain_out.wall_seconds, 3), "-"});
  t3.add_row({"journal, flush per job",
              TextTable::num(j_out.wall_seconds, 3),
              TextTable::pct(plain_out.wall_seconds > 0
                                 ? j_out.wall_seconds /
                                       plain_out.wall_seconds - 1.0
                                 : 0.0)});
  t3.print(std::cout);

  bench::print_shape_note(
      "snapshot cost is a few ms and journaling adds low single-digit "
      "percent to a campaign — checkpointing is cheap enough to leave on "
      "for any long evaluation run.");
  return 0;
}
