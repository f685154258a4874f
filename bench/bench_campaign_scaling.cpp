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
// scheduler must never leak into results.
//
// json=<path> writes a machine-readable report
// ("unsync.bench_campaign_scaling.v1") that tools/check_bench_regression.py
// --campaign gates in CI: identical must hold, and parallel efficiency at
// the largest non-oversubscribed point must clear the bar.
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

struct Point {
  unsigned workers = 0;
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t steal_failures = 0;
};

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
  const auto ref = runtime::CampaignRunner(serial).run(jobs);
  const std::string reference = digest(ref);
  const double serial_wall = ref.wall_seconds;

  TextTable t;
  t.set_header({"workers", "wall s", "jobs/s", "speedup", "efficiency",
                "steals", "identical"});

  const unsigned worker_counts[] = {1, 2, 4, 8};
  std::vector<Point> points;
  bool all_identical = true;
  for (const unsigned w : worker_counts) {
    runtime::CampaignRunner::Options opts;
    opts.threads = w;
    opts.campaign_seed = args.seed;
    const auto out = runtime::CampaignRunner(opts).run(jobs);
    const bool same = digest(out) == reference;
    all_identical = all_identical && same;

    Point p;
    p.workers = w;
    p.wall_seconds = out.wall_seconds;
    p.jobs_per_sec = static_cast<double>(n_jobs) / out.wall_seconds;
    p.speedup = serial_wall / out.wall_seconds;
    p.efficiency = p.speedup / std::min(w, cores);
    p.steals = counter_of(out.scheduler_metrics, "campaign.scheduler.steals");
    p.steal_failures = counter_of(out.scheduler_metrics,
                                  "campaign.scheduler.steal_failures");
    t.add_row({std::to_string(w), TextTable::num(p.wall_seconds, 3),
               TextTable::num(p.jobs_per_sec, 0),
               TextTable::num(p.speedup, 2), TextTable::num(p.efficiency, 2),
               std::to_string(p.steals), same ? "yes" : "NO"});
    points.push_back(p);
  }
  t.print(std::cout);

  if (!all_identical) {
    std::cout << "\nERROR: results differ across worker counts — the "
                 "campaign engine's determinism contract is broken.\n";
    return 1;
  }

  if (!args.json.empty()) {
    std::ostringstream js;
    js << "{\n  \"schema\": \"unsync.bench_campaign_scaling.v1\",\n"
       << "  \"jobs\": " << n_jobs << ",\n"
       << "  \"insts_per_job\": " << per_job_insts << ",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n"
       << "  \"serial_wall_seconds\": " << serial_wall << ",\n"
       << "  \"identical\": " << (all_identical ? "true" : "false") << ",\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      js << "    {\"workers\": " << p.workers
         << ", \"wall_seconds\": " << p.wall_seconds
         << ", \"jobs_per_sec\": " << p.jobs_per_sec
         << ", \"speedup\": " << p.speedup
         << ", \"efficiency\": " << p.efficiency
         << ", \"steals\": " << p.steals
         << ", \"steal_failures\": " << p.steal_failures << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    if (args.json == "-") {
      std::cout << js.str();
    } else {
      std::ofstream f(args.json);
      if (!f) throw std::runtime_error("cannot write json file " + args.json);
      f << js.str();
      std::cout << "(scaling JSON written to " << args.json << ")\n";
    }
  }

  bench::print_shape_note(
      "efficiency at workers <= cores should stay near 1.0, and the "
      "identical column must read 'yes' everywhere — results depend only "
      "on the job grid and campaign seed, never on the schedule.");
  return 0;
}
