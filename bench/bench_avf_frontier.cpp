// Uncore protection frontier: measured ACE/AVF exposure x hwmodel cost.
//
// For each uniform uncore protection plan (none / parity / secded) this
// harness joins three independent measurements into one frontier row:
//
//   1. Exposure — an avf=1 UnSync campaign measures each uncore structure's
//      ACE bit-cycles (src/fault/avf); the plan's detection coverage turns
//      that into a residual (undetected) AVF. The integer bit-cycle
//      counters are a pure function of the grid: they must be byte-equal
//      across worker counts AND across plans (protection joins at report
//      time only — it never perturbs the measurement).
//   2. Outcome — a Monte-Carlo injection campaign over the six uncore
//      fault sites classifies strikes under the plan (silent / detected /
//      corrected in place / unrecoverable), with the UnSync redundant CB
//      recovering detected write-buffer strikes.
//   3. Cost — hwmodel prices each structure's check-bit storage and codec
//      (area/power), and the campaign-wide energy delta at the synthesis
//      model's 300 MHz.
//
// json=<path> writes an "unsync.bench_report.v1" (bench "avf"), gated in
// CI by
//     tools/check_bench_regression.py BENCH_avf.json
//         bench/BENCH_avf_baseline.json
// exact: identical (worker-count + cross-plan determinism) and each
// structure's bit-cycles; measured, bounded by the baseline:
// frontier_violations (max 0: residual AVF or SDC rising, or area/power
// falling, along none -> parity -> secded), bit_cycles_plan_mismatches
// (max 0: plans whose bit-cycles differ from the first), <plan>.sdc (max 0
// under full single-bit coverage) and structures (min 6). Refresh after a
// deliberate model change with --write-baseline.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/avf.hpp"
#include "fault/injector.hpp"
#include "hwmodel/components.hpp"
#include "isa/assembler.hpp"

namespace {

using namespace unsync;

/// Store-heavy loop so every uncore site has resident written words.
isa::Program campaign_program() {
  return isa::Assembler::assemble(R"(
  buf:
    .space 512
    addi r10, r0, 60
    addi r2, r0, 1
    la   r20, buf
  loop:
    add  r2, r2, r10
    mul  r3, r2, r10
    st   r3, 0(r20)
    ld   r4, 0(r20)
    xor  r2, r2, r4
    addi r20, r20, 8
    addi r10, r10, -1
    bne  r10, r0, loop
    addi r1, r0, 1
    syscall
    halt
  )");
}

constexpr double kClockHz = 300e6;

struct PlanRow {
  fault::UncorePlan plan;
  fault::AvfReport report;
  fault::CampaignResult injection;
  double energy_delta_j = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Uncore protection frontier: AVF x cost x outcome",
                      args);

  const char* benches[] = {"gzip", "qsort"};
  const std::array<fault::Mechanism, 3> mechanisms = {
      fault::Mechanism::kNone, fault::Mechanism::kParity1,
      fault::Mechanism::kSecded};

  const auto prog = campaign_program();
  std::vector<PlanRow> rows;
  bool identical = true;
  std::string first_metrics_json;  // plan 0, parallel run

  for (const auto mech : mechanisms) {
    PlanRow row;
    row.plan = fault::uniform_uncore_plan(mech);

    std::vector<runtime::SimJob> jobs;
    for (const char* b : benches) {
      runtime::SimJob job =
          bench::sim_job(args, b, core::SystemKind::kUnSync);
      job.avf = true;
      job.protect = row.plan;
      jobs.push_back(std::move(job));
    }

    runtime::CampaignRunner::Options opts;
    opts.threads = args.workers;
    opts.campaign_seed = args.seed;
    opts.collect_metrics = true;
    const auto out = runtime::CampaignRunner(opts).run(jobs);

    // Worker-count determinism: the merged counters from a serial run of
    // the same grid must be byte-identical (checked once, on the first
    // plan — the grid is the measurement; the plan only labels it).
    if (rows.empty()) {
      first_metrics_json = out.metrics.to_json();
      runtime::CampaignRunner::Options serial = opts;
      serial.threads = 1;
      const auto serial_out = runtime::CampaignRunner(serial).run(jobs);
      identical &= serial_out.metrics.to_json() == first_metrics_json;
    } else {
      // Cross-plan determinism: protection must not perturb measurement.
      obs::MetricsSnapshot probe = out.metrics;
      identical &= probe.to_json() == first_metrics_json;
    }

    row.report = fault::build_avf_report(out.metrics, row.plan);
    for (auto& s : row.report.structures) {
      const auto hw = hwmodel::uncore_protection_hardware(
          s.mechanism, s.capacity_bits / jobs.size());
      s.area_delta_um2 = hw.area_um2;
      s.power_delta_w = hw.power_w;
    }
    // Campaign-wide energy delta of the added protection hardware.
    row.energy_delta_j = row.report.power_delta_w() *
                         (static_cast<double>(row.report.cycles) / kClockHz);

    fault::InjectionConfig icfg;
    icfg.trials = 300;
    icfg.seed = args.seed;
    icfg.sites = fault::uncore_fault_sites();
    icfg.uncore = row.plan;
    icfg.redundant_write_buffer = true;  // the UnSync CB is per-core
    row.injection = fault::run_campaign(prog, fault::unsync_plan(), icfg);

    rows.push_back(std::move(row));
  }

  TextTable t("Protection frontier (unsync, " + std::to_string(args.insts) +
              " insts x " + std::to_string(std::size(benches)) + " benches)");
  t.set_header({"plan", "total AVF", "residual AVF", "area um^2", "power W",
                "energy J", "SDC", "detected", "corrected", "unrec"});
  for (const auto& row : rows) {
    const auto& r = row.injection;
    t.add_row({row.plan.name, TextTable::num(row.report.total_avf(), 4),
               TextTable::num(row.report.total_residual_avf(), 4),
               TextTable::num(row.report.area_delta_um2(), 0),
               TextTable::num(row.report.power_delta_w(), 3),
               TextTable::num(row.energy_delta_j, 6),
               std::to_string(r.sdc),
               std::to_string(r.recovered + r.unrecoverable),
               std::to_string(r.corrected_in_place),
               std::to_string(r.unrecoverable)});
  }
  t.print(std::cout);
  std::cout << "\nbit-cycle counters identical across worker counts and "
               "plans: "
            << (identical ? "yes" : "NO") << "\n";

  // The frontier's shape, as raw counts the baseline bounds.
  std::uint64_t violations = 0;
  for (std::size_t p = 1; p < rows.size(); ++p) {
    const auto& prev = rows[p - 1];
    const auto& cur = rows[p];
    violations += cur.report.total_residual_avf() >
                  prev.report.total_residual_avf() + 1e-12;
    violations += cur.injection.sdc > prev.injection.sdc;
    violations +=
        cur.report.area_delta_um2() < prev.report.area_delta_um2() - 1e-9;
    violations +=
        cur.report.power_delta_w() < prev.report.power_delta_w() - 1e-12;
  }
  const auto& first = rows.front().report.structures;
  std::uint64_t plan_mismatches = 0;  // plans whose bit-cycles differ
  for (const auto& row : rows) {
    const auto& s = row.report.structures;
    plan_mismatches += !std::equal(
        s.begin(), s.end(), first.begin(), first.end(),
        [](const auto& a, const auto& b) {
          return a.structure == b.structure && a.bit_cycles == b.bit_cycles;
        });
  }

  bench::BenchReport report("avf");
  report.grid("insts", args.insts);
  report.grid("seed", args.seed);
  report.exact("identical", identical);
  for (const auto& s : first) {
    report.exact("bit_cycles." + std::string(fault::name_of(s.structure)),
                 s.bit_cycles);
  }
  report.measured("frontier_violations", violations);
  report.measured("bit_cycles_plan_mismatches", plan_mismatches);
  report.measured("structures", first.size());
  for (const auto& row : rows) {
    const auto& r = row.injection;
    const std::string p = row.plan.name + ".";
    report.measured(p + "total_avf", row.report.total_avf());
    report.measured(p + "residual_avf", row.report.total_residual_avf());
    report.measured(p + "area_delta_um2", row.report.area_delta_um2());
    report.measured(p + "power_delta_w", row.report.power_delta_w());
    report.measured(p + "energy_delta_j", row.energy_delta_j);
    report.measured(p + "trials", r.total());
    report.measured(p + "sdc", r.sdc);
    report.measured(p + "detected", r.recovered + r.unrecoverable);
    report.measured(p + "corrected_in_place", r.corrected_in_place);
    report.measured(p + "unrecoverable", r.unrecoverable);
    report.measured(p + "masked", r.masked);
  }
  report.write(args.json);

  if (!identical) {
    std::cout << "\nERROR: the AVF measurement depended on the worker count "
                 "or the protection plan — the observation-only contract is "
                 "broken.\n";
    return 1;
  }

  bench::print_shape_note(
      "the frontier orders none -> parity -> secded: residual AVF and SDC "
      "fall (to zero under full single-bit coverage) while area/power/energy "
      "rise; per-structure bit-cycles are exact integers, identical across "
      "plans and worker counts (the measurement is observation-only).");
  return 0;
}
