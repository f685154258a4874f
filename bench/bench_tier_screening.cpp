// Two-tier screening: fast-tier validation + speedup on a mixed grid.
//
// Runs a (benchmark x system) grid twice — once on the detailed
// cycle-accurate tier, once on the approximate interval model — and
// reports, per cell, the fast tier's CPI relative error and error-count
// deviation against the detailed truth, plus the whole-grid wall-clock
// speedup. The speedup is a same-host ratio (both tiers run in this
// process on the same grid), so it is stable across machines the same way
// the engine fast-forward gate is.
//
// It also re-runs the grid under the tier=screen policy at threshold 0 and
// cross-checks that the merged output is byte-identical to the pure
// detailed campaign — the end-to-end determinism contract of screening.
//
// json=<path> writes "unsync.bench_tier.v1", which
//     tools/check_bench_regression.py --tier
//         --tier-baseline bench/BENCH_tier_baseline.json
// gates in CI: identical must hold, the speedup must clear
// --min-tier-speedup (default 10x), and every cell's cpi_rel_err /
// err_dev must stay within the committed per-cell bound (the validated-
// fast-model methodology: the fast tier is only trustworthy while its
// error stays inside the published envelope). Refresh the envelope after
// a deliberate model change with --write-tier-baseline.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/factory.hpp"

namespace {

using namespace unsync;

struct Cell {
  std::string bench;
  std::string system;
  double cpi_detailed = 0.0;
  double cpi_fast = 0.0;
  double cpi_rel_err = 0.0;
  std::uint64_t errors_detailed = 0;
  std::uint64_t errors_fast = 0;
  std::uint64_t err_dev = 0;
};

double cpi_of(const engine::RunResult& r) {
  const double ipc = r.thread_ipc();
  return ipc > 0 ? 1.0 / ipc : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Tier screening: fast-model validation + speedup",
                      args);

  const double ser = 2e-4;  // enough strikes that error paths exercise
  const char* benches[] = {"gzip", "galgel", "mcf", "susan", "equake",
                           "bzip2"};
  const core::SystemKind systems[] = {
      core::SystemKind::kBaseline, core::SystemKind::kUnSync,
      core::SystemKind::kReunion,  core::SystemKind::kLockstep,
      core::SystemKind::kCheckpoint, core::SystemKind::kHetero};

  std::vector<runtime::SimJob> detailed_jobs;
  for (const char* b : benches) {
    for (const auto s : systems) {
      detailed_jobs.push_back(bench::sim_job(args, b, s, ser));
    }
  }
  std::vector<runtime::SimJob> fast_jobs = detailed_jobs;
  for (auto& j : fast_jobs) j.params.tier = engine::Tier::kFast;

  runtime::CampaignRunner::Options opts;
  opts.threads = args.workers;
  opts.campaign_seed = args.seed;
  const auto detailed = runtime::CampaignRunner(opts).run(detailed_jobs);
  const auto fast = runtime::CampaignRunner(opts).run(fast_jobs);
  const double speedup = fast.wall_seconds > 0
                             ? detailed.wall_seconds / fast.wall_seconds
                             : 0.0;

  // The end-to-end screening contract: threshold 0 == pure detailed,
  // byte for byte.
  runtime::CampaignRunner::Options screen = opts;
  screen.screen = true;
  screen.screen_threshold = 0.0;
  const bool identical =
      runtime::CampaignRunner(screen).run(detailed_jobs).to_json() ==
      detailed.to_json();

  TextTable t("Fast-tier error bounds (vs detailed, ser=2e-4)");
  t.set_header({"benchmark", "system", "CPI det", "CPI fast", "rel err",
                "errors det/fast"});
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < detailed_jobs.size(); ++i) {
    Cell c;
    c.bench = detailed_jobs[i].label;
    c.system = core::name_of(detailed_jobs[i].system);
    c.cpi_detailed = cpi_of(detailed.results[i]);
    c.cpi_fast = cpi_of(fast.results[i]);
    c.cpi_rel_err = c.cpi_detailed > 0
                        ? std::abs(c.cpi_fast - c.cpi_detailed) /
                              c.cpi_detailed
                        : 0.0;
    c.errors_detailed = detailed.results[i].errors_injected;
    c.errors_fast = fast.results[i].errors_injected;
    c.err_dev = c.errors_detailed > c.errors_fast
                    ? c.errors_detailed - c.errors_fast
                    : c.errors_fast - c.errors_detailed;
    t.add_row({c.bench, c.system, TextTable::num(c.cpi_detailed, 3),
               TextTable::num(c.cpi_fast, 3),
               TextTable::pct(c.cpi_rel_err),
               std::to_string(c.errors_detailed) + "/" +
                   std::to_string(c.errors_fast)});
    cells.push_back(c);
  }
  t.print(std::cout);
  std::cout << "\ndetailed wall: " << TextTable::num(detailed.wall_seconds, 3)
            << "s, fast wall: " << TextTable::num(fast.wall_seconds, 3)
            << "s, speedup: " << TextTable::num(speedup, 1) << "x\n"
            << "screen threshold=0 byte-identical to pure detailed: "
            << (identical ? "yes" : "NO") << "\n";

  if (!identical) {
    std::cout << "\nERROR: screened campaign diverged from the pure "
                 "detailed run — the screening contract is broken.\n";
    return 1;
  }

  if (!args.json.empty()) {
    std::ostringstream js;
    js << "{\n  \"schema\": \"unsync.bench_tier.v1\",\n"
       << "  \"insts\": " << args.insts << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"ser\": " << ser << ",\n"
       << "  \"detailed_wall_seconds\": " << detailed.wall_seconds << ",\n"
       << "  \"fast_wall_seconds\": " << fast.wall_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      js << "    {\"bench\": \"" << c.bench << "\", \"system\": \""
         << c.system << "\", \"cpi_detailed\": " << c.cpi_detailed
         << ", \"cpi_fast\": " << c.cpi_fast
         << ", \"cpi_rel_err\": " << c.cpi_rel_err
         << ", \"errors_detailed\": " << c.errors_detailed
         << ", \"errors_fast\": " << c.errors_fast
         << ", \"err_dev\": " << c.err_dev << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    if (args.json == "-") {
      std::cout << js.str();
    } else {
      std::ofstream f(args.json);
      if (!f) throw std::runtime_error("cannot write json file " + args.json);
      f << js.str();
      std::cout << "(tier JSON written to " << args.json << ")\n";
    }
  }

  bench::print_shape_note(
      "the fast tier trades per-structure fidelity for throughput: expect "
      ">=10x wall-clock speedup on this grid, CPI within the committed "
      "per-cell envelope (bench/BENCH_tier_baseline.json), and err_dev 0 "
      "everywhere — both tiers draw the identical fault-arrival schedule.");
  return 0;
}
