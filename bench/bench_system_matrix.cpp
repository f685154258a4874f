// Six-architecture comparison matrix: overhead x detection coverage.
//
// One grid over every modelled system (baseline / unsync / reunion /
// lockstep / checkpoint / hetero) x benchmark x soft-error rate:
//
//   * ser=0 rows measure the error-free steady-state overhead of each
//     redundancy discipline against the unprotected baseline CMP;
//   * ser>0 rows measure detection coverage (detected strikes / injected
//     strikes) and the recovery cost each discipline pays.
//
// The matrix is the repo's cross-architecture acceptance surface: the
// heterogeneous leader/checker system must detect every injected strike
// (>= Lockstep's coverage) while keeping a lower error-free overhead than
// the fingerprint-synchronised DMR (reunion) — the MEEK-style argument
// that a small in-order checker is cheaper than synchronising two big
// cores.
//
// json=<path> writes "unsync.bench_systems.v1", gated in CI by
//     tools/check_bench_regression.py --systems
//         --systems-baseline bench/BENCH_systems_baseline.json
// which enforces: identical == true (worker-count determinism), full
// hetero/lockstep coverage with hetero >= lockstep, hetero error-free
// cycles < reunion's, and exact per-cell integer equality with the
// committed baseline. Refresh after a deliberate model change with
// --write-systems-baseline.
#include <array>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/factory.hpp"

namespace {

using namespace unsync;

constexpr std::array<core::SystemKind, 6> kSystems = {
    core::SystemKind::kBaseline,   core::SystemKind::kUnSync,
    core::SystemKind::kReunion,    core::SystemKind::kLockstep,
    core::SystemKind::kCheckpoint, core::SystemKind::kHetero};

constexpr const char* kBenches[] = {"gzip", "susan"};
constexpr double kSerPoints[] = {0.0, 5e-4};

struct Cell {
  std::string bench;
  std::string system;
  double ser = 0.0;
  engine::RunResult r;

  std::uint64_t detected() const { return r.recoveries + r.rollbacks; }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("System matrix: overhead x detection coverage", args);

  std::vector<runtime::SimJob> jobs;
  for (const double ser : kSerPoints) {
    for (const char* b : kBenches) {
      for (const auto kind : kSystems) {
        jobs.push_back(bench::sim_job(args, b, kind, ser));
      }
    }
  }

  const auto out = bench::run_grid(args, jobs);

  // Worker-count determinism: a serial run of the same grid must be
  // byte-identical — the scheduler may never leak into results.
  runtime::CampaignRunner::Options serial;
  serial.threads = 1;
  serial.campaign_seed = args.seed;
  const auto serial_out = runtime::CampaignRunner(serial).run(jobs);
  const bool identical = serial_out.to_json() == out.to_json();

  std::vector<Cell> cells;
  std::size_t at = 0;
  for (const double ser : kSerPoints) {
    for (const char* b : kBenches) {
      for (const auto kind : kSystems) {
        cells.push_back(
            {b, std::string(core::name_of(kind)), ser, out.results[at]});
        ++at;
      }
    }
  }

  const auto baseline_cycles = [&](const std::string& bench) {
    for (const auto& c : cells) {
      if (c.bench == bench && c.system == "baseline" && c.ser == 0.0) {
        return static_cast<double>(c.r.cycles);
      }
    }
    return 1.0;
  };

  TextTable t("System matrix (" + std::to_string(args.insts) + " insts x " +
              std::to_string(std::size(kBenches)) + " benches)");
  t.set_header({"bench", "system", "ser", "cycles", "slowdown", "injected",
                "detected", "cb stalls", "fp syncs"});
  for (const auto& c : cells) {
    t.add_row({c.bench, c.system, TextTable::num(c.ser, 4),
               std::to_string(c.r.cycles),
               TextTable::num(static_cast<double>(c.r.cycles) /
                                  baseline_cycles(c.bench),
                              3),
               std::to_string(c.r.errors_injected),
               std::to_string(c.detected()),
               std::to_string(c.r.cb_full_stalls),
               std::to_string(c.r.fingerprint_syncs)});
  }
  t.print(std::cout);
  std::cout << "\nresults identical across worker counts: "
            << (identical ? "yes" : "NO") << "\n";

  if (!identical) {
    std::cout << "\nERROR: the campaign scheduler leaked into the matrix — "
                 "the determinism contract is broken.\n";
    return 1;
  }

  if (!args.json.empty()) {
    std::ostringstream js;
    js << "{\n  \"schema\": \"unsync.bench_systems.v1\",\n"
       << "  \"insts\": " << args.insts << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      js << "    {\"bench\": \"" << c.bench << "\", \"system\": \""
         << c.system << "\", \"ser\": " << c.ser
         << ", \"cycles\": " << c.r.cycles
         << ", \"instructions\": " << c.r.instructions
         << ", \"injected\": " << c.r.errors_injected
         << ", \"detected\": " << c.detected()
         << ", \"rollbacks\": " << c.r.rollbacks
         << ", \"recoveries\": " << c.r.recoveries
         << ", \"cb_full_stalls\": " << c.r.cb_full_stalls
         << ", \"fingerprint_syncs\": " << c.r.fingerprint_syncs << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    if (args.json == "-") {
      std::cout << js.str();
    } else {
      std::ofstream f(args.json);
      if (!f) throw std::runtime_error("cannot write json file " + args.json);
      f << js.str();
      std::cout << "(matrix JSON written to " << args.json << ")\n";
    }
  }

  bench::print_shape_note(
      "redundancy is never free: every protected system costs cycles over "
      "the baseline at ser=0, with unsync cheapest (the paper's headline) "
      "and reunion's fingerprint synchronisation the most expensive DMR; "
      "hetero's small in-order checker undercuts reunion while detecting "
      "every injected strike, matching lockstep's full coverage at a "
      "fraction of a second big core.");
  return 0;
}
