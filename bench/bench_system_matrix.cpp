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
// json=<path> writes an "unsync.bench_report.v1" (bench "systems"), gated
// in CI by
//     tools/check_bench_regression.py BENCH_systems.json
//         bench/BENCH_systems_baseline.json
// exact: identical (worker-count determinism) and every per-cell integer;
// measured, bounded by the baseline: hetero.injected (min 1),
// hetero.undetected (0), hetero_minus_lockstep.coverage (min 0) per ser>0
// point, and hetero_minus_reunion.cycles (max -1) per benchmark at ser=0.
// Refresh after a deliberate model change with --write-baseline.
#include <array>
#include <cstdint>
#include <cstdio>
#include <iostream>
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
  double coverage() const {
    return r.errors_injected
               ? static_cast<double>(detected()) /
                     static_cast<double>(r.errors_injected)
               : 1.0;
  }
};

/// "gzip/ser=0.0005": a benchmark at one soft-error rate.
std::string point(const std::string& bench, double ser) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", ser);
  return bench + "/ser=" + buf;
}

std::int64_t diff(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b);
}

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

  const auto cell = [&](const std::string& bench, const char* system,
                        double ser) -> const Cell& {
    for (const auto& c : cells) {
      if (c.bench == bench && c.system == system && c.ser == ser) return c;
    }
    throw std::logic_error("matrix has no " + bench + "/" + system + " cell");
  };

  TextTable t("System matrix (" + std::to_string(args.insts) + " insts x " +
              std::to_string(std::size(kBenches)) + " benches)");
  t.set_header({"bench", "system", "ser", "cycles", "slowdown", "injected",
                "detected", "cb stalls", "fp syncs"});
  for (const auto& c : cells) {
    t.add_row({c.bench, c.system, TextTable::num(c.ser, 4),
               std::to_string(c.r.cycles),
               TextTable::num(static_cast<double>(c.r.cycles) /
                                  cell(c.bench, "baseline", 0.0).r.cycles,
                              3),
               std::to_string(c.r.errors_injected),
               std::to_string(c.detected()),
               std::to_string(c.r.cb_full_stalls),
               std::to_string(c.r.fingerprint_syncs)});
  }
  t.print(std::cout);
  std::cout << "\nresults identical across worker counts: "
            << (identical ? "yes" : "NO") << "\n";

  bench::BenchReport report("systems");
  report.grid("insts", args.insts);
  report.grid("seed", args.seed);
  report.exact("identical", identical);
  for (const auto& c : cells) {
    const std::string k = point(c.bench + "/" + c.system, c.ser);
    report.exact(k + ".cycles", c.r.cycles);
    report.exact(k + ".injected", c.r.errors_injected);
    report.exact(k + ".detected", c.detected());
    report.exact(k + ".rollbacks", c.r.rollbacks);
    report.exact(k + ".recoveries", c.r.recoveries);
    report.exact(k + ".cb_full_stalls", c.r.cb_full_stalls);
    report.exact(k + ".fingerprint_syncs", c.r.fingerprint_syncs);
  }
  for (const char* b : kBenches) {
    for (const double ser : kSerPoints) {
      const Cell& het = cell(b, "hetero", ser);
      const std::string pt = point(b, ser);
      if (ser == 0.0) {
        report.measured("hetero_minus_reunion.cycles." + pt,
                        diff(het.r.cycles, cell(b, "reunion", ser).r.cycles));
        continue;
      }
      report.measured("hetero.injected." + pt, het.r.errors_injected);
      report.measured("hetero.undetected." + pt,
                      diff(het.r.errors_injected, het.detected()));
      report.measured("hetero_minus_lockstep.coverage." + pt,
                      het.coverage() - cell(b, "lockstep", ser).coverage());
    }
  }
  report.write(args.json);

  if (!identical) {
    std::cout << "\nERROR: the campaign scheduler leaked into the matrix — "
                 "the determinism contract is broken.\n";
    return 1;
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
