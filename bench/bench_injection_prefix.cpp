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
// speedup (min 3), wall times and the cache-shape counters. Refresh after
// a deliberate engine change with --write-baseline.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
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
  // Checkpoint cadence: each boundary costs one full-state save in the
  // golden build, while a coarser cadence makes faulty jobs re-execute
  // more cycles from an earlier restore point. ~4-5 boundaries per run;
  // the committed baseline counters depend on this value.
  prefix_opts.prefix.interval = 15000;
  const auto prefix = runtime::CampaignRunner(prefix_opts).run(jobs);

  const double speedup = prefix.wall_seconds > 0
                             ? naive.wall_seconds / prefix.wall_seconds
                             : 0.0;
  const bool identical = prefix.to_json() == naive.to_json();

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
