// Campaign-engine scaling: worker count on a short-job grid.
//
// The stress shape for the in-process scheduler is MANY SHORT JOBS: per-job
// work is small enough that claim overhead and queue contention show up in
// the wall clock. This bench runs a jobs= grid (default 10000 jobs of a few
// hundred instructions each) under the work-stealing parallel_for at 1, 2,
// 4 and 8 host workers, and reports throughput, speedup over the serial run
// and parallel efficiency. Efficiency is speedup / min(workers, physical
// cores): oversubscribed points (workers > cores) are reported but can
// never reach 1.0 by construction, so the efficiency column normalises by
// what the host can actually parallelise.
//
// Every run is cross-checked byte-identical to the serial reference — the
// scheduler must never leak into results. Each point also records the
// process CPU seconds and the scheduler's summed idle time (workers hunting
// for work): CPU time per job growing with the worker count means the
// workers contend for shared resources, idle time means they starve.
//
// The gated statistic is the efficiency at the largest non-oversubscribed
// worker count, taken as the median of kGatedPairs serial/parallel pairs
// run after the sweep, alternating which side of a pair runs first. A
// single serial reference spreads by about ±15% on a shared host; a
// stretch of lost cores moves the pair it falls in, and the median drops
// that pair. Contention lasting the whole run still lowers every pair.
//
// json=<path> writes an "unsync.bench_report.v1" (bench "campaign"), gated
// in CI by
//     tools/check_bench_regression.py BENCH_campaign.json
//         bench/BENCH_campaign_baseline.json
// exact: identical; measured: gated_efficiency (min 0.85) and each pair's
// efficiency, plus every sweep point's ungated timings.
#include <algorithm>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace unsync;

// A schedule-independent digest of a campaign's results.
std::string digest(const runtime::CampaignOutput& out) {
  std::ostringstream os;
  for (const auto& r : out.results) {
    os << r.cycles << ':' << r.instructions << ':' << r.errors_injected << ':'
       << r.recoveries << ':' << r.rollbacks << ';';
  }
  return os.str();
}

double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

std::uint64_t counter_of(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  const std::uint64_t n_jobs = args.jobs ? args.jobs : 10000;
  // Short jobs by default; an explicit insts= overrides (e.g. to check the
  // long-job regime where any scheduler looks good).
  const std::uint64_t per_job_insts = args.insts_set ? args.insts : 300;
  args.insts = per_job_insts;  // the banner should show the effective value
  bench::print_header("Campaign scheduler scaling: workers", args);

  const char* profiles[] = {"gzip", "susan", "mcf", "equake"};
  const core::SystemKind systems[] = {core::SystemKind::kBaseline,
                                         core::SystemKind::kUnSync};
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(n_jobs);
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    runtime::SimJob job;
    job.profile = profiles[i % std::size(profiles)];
    job.label = job.profile;
    job.system = systems[(i / std::size(profiles)) % std::size(systems)];
    job.insts = per_job_insts;
    jobs.push_back(std::move(job));
  }
  const unsigned cores = runtime::default_threads();
  std::cout << "grid: " << n_jobs << " jobs x " << per_job_insts
            << " insts, host cores: " << cores << "\n\n";

  // Serial reference: threads=1 drains on the caller.
  runtime::CampaignRunner::Options serial;
  serial.threads = 1;
  serial.campaign_seed = args.seed;
  const double serial_cpu_start = cpu_seconds();
  const auto ref = runtime::CampaignRunner(serial).run(jobs);
  const double serial_cpu = cpu_seconds() - serial_cpu_start;
  const std::string reference = digest(ref);
  const double serial_wall = ref.wall_seconds;

  bench::BenchReport report("campaign");
  report.grid("jobs", n_jobs);
  report.grid("insts_per_job", per_job_insts);
  report.grid("seed", args.seed);
  report.measured("cores", cores);
  report.measured("serial.wall_seconds", serial_wall);
  report.measured("serial.cpu_seconds", serial_cpu);

  TextTable t;
  t.set_header({"workers", "wall s", "cpu s", "idle s", "jobs/s", "speedup",
                "efficiency", "steals", "identical"});

  // The gated point: the largest worker count the host can actually run in
  // parallel (workers=1 on a single-core host, where the gate bounds pure
  // scheduling overhead instead).
  unsigned gated_workers = 1;
  bool all_identical = true;
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    runtime::CampaignRunner::Options opts;
    opts.threads = w;
    opts.campaign_seed = args.seed;
    const double cpu_start = cpu_seconds();
    const auto out = runtime::CampaignRunner(opts).run(jobs);
    const double cpu = cpu_seconds() - cpu_start;
    const bool same = digest(out) == reference;
    all_identical = all_identical && same;

    const double speedup = serial_wall / out.wall_seconds;
    const double efficiency = speedup / std::min(w, cores);
    const auto& sched = out.scheduler_metrics;
    const std::uint64_t idle_ns =
        counter_of(sched, "campaign.scheduler.idle_ns");
    const std::uint64_t steals =
        counter_of(sched, "campaign.scheduler.steals");
    if (w == 1 || w <= cores) gated_workers = w;
    const std::string p = "workers=" + std::to_string(w) + ".";
    report.measured(p + "wall_seconds", out.wall_seconds);
    report.measured(p + "cpu_seconds", cpu);
    report.measured(p + "idle_ns", idle_ns);
    report.measured(p + "jobs_per_sec",
                    static_cast<double>(n_jobs) / out.wall_seconds);
    report.measured(p + "speedup", speedup);
    report.measured(p + "efficiency", efficiency);
    report.measured(p + "steals", steals);
    report.measured(p + "steal_failures",
                    counter_of(sched, "campaign.scheduler.steal_failures"));
    t.add_row({std::to_string(w), TextTable::num(out.wall_seconds, 3),
               TextTable::num(cpu, 3),
               TextTable::num(static_cast<double>(idle_ns) / 1e9, 3),
               TextTable::num(static_cast<double>(n_jobs) / out.wall_seconds,
                              0),
               TextTable::num(speedup, 2), TextTable::num(efficiency, 2),
               std::to_string(steals), same ? "yes" : "NO"});
  }
  t.print(std::cout);

  constexpr int kGatedPairs = 3;
  const auto timed_run = [&](unsigned workers) {
    runtime::CampaignRunner::Options opts;
    opts.threads = workers;
    opts.campaign_seed = args.seed;
    const auto out = runtime::CampaignRunner(opts).run(jobs);
    all_identical = all_identical && digest(out) == reference;
    return out.wall_seconds;
  };
  std::vector<double> pair_efficiency;
  for (int i = 0; i < kGatedPairs; ++i) {
    double serial_s = 0.0, parallel_s = 0.0;
    if (i % 2 == 0) {
      serial_s = timed_run(1);
      parallel_s = timed_run(gated_workers);
    } else {
      parallel_s = timed_run(gated_workers);
      serial_s = timed_run(1);
    }
    const double efficiency =
        serial_s / parallel_s / std::min(gated_workers, cores);
    report.measured("gated.pair" + std::to_string(i) + ".efficiency",
                    efficiency);
    pair_efficiency.push_back(efficiency);
  }
  std::sort(pair_efficiency.begin(), pair_efficiency.end());
  const double gated_efficiency = pair_efficiency[kGatedPairs / 2];
  std::cout << "\ngated point: workers=" << gated_workers
            << ", efficiency " << TextTable::num(gated_efficiency, 2)
            << " (median of " << kGatedPairs << " serial/parallel pairs:";
  for (const double e : pair_efficiency) {
    std::cout << ' ' << TextTable::num(e, 2);
  }
  std::cout << ")\n";

  report.exact("identical", all_identical);
  report.measured("gated_workers", gated_workers);
  report.measured("gated_efficiency", gated_efficiency);
  report.write(args.json);

  if (!all_identical) {
    std::cout << "\nERROR: results differ across worker counts — the "
                 "campaign engine's determinism contract is broken.\n";
    return 1;
  }

  bench::print_shape_note(
      "efficiency at workers <= cores should stay near 1.0, and the "
      "identical column must read 'yes' everywhere — results depend only "
      "on the job grid and campaign seed, never on the schedule.");
  return 0;
}
