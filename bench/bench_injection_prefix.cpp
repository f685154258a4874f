// Prefix-sharing speedup on a Monte-Carlo injection grid.
//
// Runs the same injection campaign twice — once naively
// (every trial simulates its full run) and once through the prefix-sharing
// engine (one golden run per unique fault-free configuration; arrival-free
// trials return its result, the rest restore from its in-memory
// checkpoints) — and reports the wall-clock speedup plus the engine's
// counters. Both campaigns run in this process on the same grid, so the
// speedup is a same-host ratio, stable across machines the way the
// fast-forward gate is.
//
// The grid is the shape prefix sharing exists for: trace-workload cells
// (whose golden is shared across every SER point AND trial seed of the
// cell) with many Monte-Carlo trials per point, at soft-error rates low
// enough that most trials see few or no arrivals.
//
// json=<path> writes an "unsync.bench_report.v1" (bench "prefix"), gated
// in CI by
//     tools/check_bench_regression.py BENCH_prefix.json
//         bench/BENCH_prefix_baseline.json
// exact: identical and the deterministic engine counters (goldens built,
// jobs restored / early-terminated / bypassed, cycles skipped) — a pure
// function of the grid, independent of worker count and host; measured:
// speedup (min 3), wall times, the cache-shape counters, and the two
// layers of the engine's checkpoint work — golden_save_ms_per_snapshot
// (one packed save, timed again on every snapshot of each cell's golden
// run) and restore_ms_per_job (the engine's restore_ns over its restored
// jobs). Refresh after a deliberate engine change with --write-baseline.
#include <chrono>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/factory.hpp"
#include "runtime/campaign_journal.hpp"
#include "runtime/prefix.hpp"
#include "workload/dyn_op.hpp"

namespace {

using namespace unsync;

/// Records a trace workload: trials replay identical ops, so the whole
/// cell shares one golden run (golden_job_key drops the seed for traces).
std::shared_ptr<const std::vector<workload::DynOp>> record_trace(
    const std::string& profile, std::uint64_t seed, std::uint64_t insts) {
  workload::SyntheticStream stream(workload::profile(profile), seed, insts);
  std::vector<workload::DynOp> ops;
  ops.reserve(insts);
  for (workload::DynOp op; stream.next(&op);) ops.push_back(op);
  return std::make_shared<const std::vector<workload::DynOp>>(std::move(ops));
}

/// Seconds spent saving the golden snapshots of `job`'s cell, and how many
/// saves: each snapshot is restored into a fresh golden-configured system
/// and saved `reps` times into a packed sink, as build_golden saves it.
std::pair<double, std::uint64_t> time_golden_saves(runtime::SimJob job,
                                                   std::uint64_t seed,
                                                   Cycle interval,
                                                   unsigned reps) {
  const auto golden = runtime::build_golden(job, seed, interval);
  job.ser_per_inst = 0.0;
  ckpt::Serializer sink(ckpt::Serializer::Sink::kPacked);
  double seconds = 0.0;
  for (const runtime::GoldenTrace::Snap& snap : golden->snaps) {
    const auto stream = runtime::make_job_stream(job, seed);
    const auto sys = core::make_system(
        job.system, runtime::job_system_config(job, seed), *stream, job.params);
    runtime::restore_golden(*sys, snap);
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < reps; ++r) {
      sys->save_checkpoint(sink);
      (void)sink.take_packed();
    }
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }
  return {seconds, golden->snaps.size() * std::uint64_t{reps}};
}

std::uint64_t counter(const runtime::CampaignOutput& out,
                      const std::string& name) {
  const auto it = out.scheduler_metrics.counters.find(
      "campaign.prefix_cache." + name);
  return it == out.scheduler_metrics.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Prefix-sharing injection campaign speedup", args);

  // jobs= scales the Monte-Carlo depth; the committed baseline pins the
  // default. 2 traces x 2 systems x 2 SER points x trials.
  const std::uint64_t trials = args.jobs ? args.jobs : 12;
  const double sers[] = {1e-6, 1e-5};

  struct Cellbase {
    const char* name;
    std::shared_ptr<const std::vector<workload::DynOp>> trace;
    core::SystemKind system;
  };
  const auto gzip = record_trace("gzip", 7, args.insts);
  const auto susan = record_trace("susan", 11, args.insts);
  const Cellbase cells[] = {
      {"gzip/unsync", gzip, core::SystemKind::kUnSync},
      {"gzip/reunion", gzip, core::SystemKind::kReunion},
      {"susan/unsync", susan, core::SystemKind::kUnSync},
      {"susan/reunion", susan, core::SystemKind::kReunion},
  };

  std::vector<runtime::SimJob> jobs;
  for (const auto& c : cells) {
    for (const double ser : sers) {
      for (std::uint64_t t = 0; t < trials; ++t) {
        runtime::SimJob job;
        job.label = c.name;
        job.trace = c.trace;
        job.system = c.system;
        job.ser_per_inst = ser;
        jobs.push_back(std::move(job));  // seed unset: one draw per trial
      }
    }
  }

  runtime::CampaignRunner::Options naive_opts;
  naive_opts.threads = args.workers;
  naive_opts.campaign_seed = args.seed;
  const auto naive = runtime::CampaignRunner(naive_opts).run(jobs);

  runtime::CampaignRunner::Options prefix_opts = naive_opts;
  prefix_opts.prefix.enabled = true;
  // Checkpoint cadence: each boundary costs one packed save of the whole
  // state in the golden build (it writes the live bytes, not the zeros),
  // while a coarser cadence makes faulty jobs re-execute more cycles from
  // an earlier restore point. ~4-5 boundaries per run;
  // the committed baseline counters depend on this value.
  prefix_opts.prefix.interval = 15000;
  const auto prefix = runtime::CampaignRunner(prefix_opts).run(jobs);

  const double speedup = prefix.wall_seconds > 0
                             ? naive.wall_seconds / prefix.wall_seconds
                             : 0.0;
  const bool identical = prefix.to_json() == naive.to_json();

  double save_seconds = 0.0;
  std::uint64_t saves = 0;
  for (std::size_t i = 0; i < jobs.size(); i += std::size(sers) * trials) {
    const auto [s, n] = time_golden_saves(
        jobs[i], runtime::job_seed(jobs, args.seed, i),
        prefix_opts.prefix.interval, 5);
    save_seconds += s;
    saves += n;
  }
  const double save_ms = saves ? save_seconds * 1e3 / saves : 0.0;
  const std::uint64_t restored = counter(prefix, "jobs_restored");
  const double restore_ms =
      restored ? counter(prefix, "restore_ns") / 1e6 / restored : 0.0;

  TextTable t("Engine counters (" + std::to_string(jobs.size()) +
              " jobs, " + std::to_string(trials) + " trials per SER point)");
  t.set_header({"counter", "value"});
  const char* names[] = {"goldens_built", "hits",          "misses",
                         "evictions",     "jobs_restored",
                         "jobs_early_terminated", "jobs_bypassed",
                         "cycles_skipped", "bytes"};
  for (const char* n : names) {
    t.add_row({n, std::to_string(counter(prefix, n))});
  }
  t.print(std::cout);

  std::cout << "\nnaive wall: " << TextTable::num(naive.wall_seconds, 3)
            << "s, prefix wall: " << TextTable::num(prefix.wall_seconds, 3)
            << "s, speedup: " << TextTable::num(speedup, 1) << "x\n"
            << "golden save: " << TextTable::num(save_ms, 3)
            << " ms per snapshot, restore: " << TextTable::num(restore_ms, 3)
            << " ms per job\n"
            << "prefix campaign byte-identical to naive: "
            << (identical ? "yes" : "NO") << "\n";

  bench::BenchReport report("prefix");
  report.grid("insts", args.insts);
  report.grid("seed", args.seed);
  report.grid("trials", trials);
  report.grid("prefix_interval", prefix_opts.prefix.interval);
  report.exact("identical", identical);
  for (const char* n : {"goldens_built", "jobs_restored",
                        "jobs_early_terminated", "jobs_bypassed",
                        "cycles_skipped"}) {
    report.exact(n, counter(prefix, n));
  }
  for (const char* n : {"hits", "misses", "evictions", "bytes"}) {
    report.measured(n, counter(prefix, n));
  }
  report.measured("speedup", speedup);
  report.measured("naive_wall_seconds", naive.wall_seconds);
  report.measured("prefix_wall_seconds", prefix.wall_seconds);
  report.measured("golden_save_ms_per_snapshot", save_ms);
  report.measured("restore_ms_per_job", restore_ms);
  report.write(args.json);

  if (!identical) {
    std::cout << "\nERROR: prefix-shared campaign diverged from the naive "
                 "run — the execution-strategy contract is broken.\n";
    return 1;
  }

  bench::print_shape_note(
      "most Monte-Carlo trials at realistic soft-error rates share their "
      "entire fault-free prefix with the golden run: expect >=3x wall-clock "
      "speedup on this grid, identical=yes, and engine counters exactly "
      "matching bench/BENCH_prefix_baseline.json — the engine is an "
      "execution strategy, never a result change.");
  return 0;
}
