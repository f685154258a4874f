// Design-space exploration: the trade study a chip architect would run
// before committing to a redundancy scheme.
//
// Sweeps UnSync CB sizes and Reunion fingerprint intervals on a chosen
// workload, combining the performance simulator with the hardware cost
// model into a single efficiency metric (throughput per watt of the full
// redundant pair), then prints the Pareto view.
//
//   ./build/examples/design_explorer [bench=susan] [insts=40000]
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "hwmodel/core_model.hpp"
#include "hwmodel/energy.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const Config cfg = Config::from_args(argc, argv);
  const std::string bench = cfg.get_string("bench", "susan");
  const auto insts = cfg.get_unsigned<std::uint64_t>("insts", 40000);
  const std::uint64_t seed = 11;

  // Every design point is built through core::make_system (the factory the
  // CLI and campaigns use) — only SystemParams varies between points.
  core::SystemConfig sys_cfg;
  sys_cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile(bench), seed, insts);

  const double base_ipc =
      core::make_system(core::SystemKind::kBaseline, sys_cfg, stream)
          ->run()
          .thread_ipc();
  std::cout << "Workload: " << bench << " (" << insts
            << " insts), baseline IPC " << base_ipc << "\n\n";

  TextTable ut("UnSync design points (CB size sweep)");
  ut.set_header({"CB entries", "CB bytes", "IPC", "rel. perf",
                 "pair power W", "pair area mm^2", "IPC/W"});
  double best_unsync_eff = 0;
  std::string best_unsync;
  for (const std::size_t entries : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    core::SystemParams p;
    p.unsync.cb_entries = entries;
    const double ipc =
        core::make_system(core::SystemKind::kUnSync, sys_cfg, stream, p)
            ->run()
            .thread_ipc();
    const auto hw = hwmodel::unsync_core(static_cast<int>(entries));
    const double pair_power = 2 * hw.total_power_w();
    const double pair_area = 2 * hw.total_area_um2() / 1e6;
    const double eff = ipc / pair_power;
    if (eff > best_unsync_eff) {
      best_unsync_eff = eff;
      best_unsync = std::to_string(entries) + " entries";
    }
    ut.add_row({std::to_string(entries),
                std::to_string(entries * core::UnSyncParams::kCbEntryBytes),
                TextTable::num(ipc, 3), TextTable::pct(ipc / base_ipc),
                TextTable::num(pair_power, 3), TextTable::num(pair_area, 3),
                TextTable::num(eff, 4)});
  }
  ut.print(std::cout);
  std::cout << "\n";

  TextTable rt("Reunion design points (FI sweep, latency = FI + 10)");
  rt.set_header({"FI", "CSB entries", "IPC", "rel. perf", "pair power W",
                 "pair area mm^2", "IPC/W"});
  double best_reunion_eff = 0;
  for (const unsigned fi : {1u, 5u, 10u, 20u, 30u, 50u}) {
    core::SystemParams p;
    p.reunion.fingerprint_interval = fi;
    p.reunion.compare_latency = fi + 10;
    const double ipc =
        core::make_system(core::SystemKind::kReunion, sys_cfg, stream, p)
            ->run()
            .thread_ipc();
    const auto hw = hwmodel::reunion_core(static_cast<int>(fi));
    const double pair_power = 2 * hw.total_power_w();
    const double pair_area = 2 * hw.total_area_um2() / 1e6;
    const double eff = ipc / pair_power;
    best_reunion_eff = std::max(best_reunion_eff, eff);
    rt.add_row({std::to_string(fi),
                std::to_string(hwmodel::csb_entries_for_fi(
                    static_cast<int>(fi))),
                TextTable::num(ipc, 3), TextTable::pct(ipc / base_ipc),
                TextTable::num(pair_power, 3), TextTable::num(pair_area, 3),
                TextTable::num(eff, 4)});
  }
  rt.print(std::cout);

  // Whole-run energy comparison at the default points.
  {
    core::SystemParams p;
    p.unsync.cb_entries = 128;
    const auto ru =
        core::make_system(core::SystemKind::kUnSync, sys_cfg, stream, p)
            ->run();
    const auto rr =
        core::make_system(core::SystemKind::kReunion, sys_cfg, stream)->run();
    const auto eu = hwmodel::energy_for_run(hwmodel::unsync_core(128), 2,
                                            ru.cycles, insts);
    const auto er = hwmodel::energy_for_run(hwmodel::reunion_core(10), 2,
                                            rr.cycles, insts);
    TextTable et("Whole-run energy (redundant pair @300MHz)");
    et.set_header({"design", "runtime ms", "energy mJ", "nJ/inst",
                   "EDP (uJ*s)"});
    et.add_row({"unsync", TextTable::num(eu.runtime_s * 1e3, 3),
                TextTable::num(eu.energy_j * 1e3, 3),
                TextTable::num(eu.energy_per_inst_nj, 2),
                TextTable::num(eu.edp * 1e9, 3)});
    et.add_row({"reunion", TextTable::num(er.runtime_s * 1e3, 3),
                TextTable::num(er.energy_j * 1e3, 3),
                TextTable::num(er.energy_per_inst_nj, 2),
                TextTable::num(er.edp * 1e9, 3)});
    et.print(std::cout);
    std::cout << "UnSync EDP advantage: "
              << TextTable::num(er.edp / eu.edp, 2) << "x\n";
  }

  std::cout << "\nBest UnSync point: " << best_unsync << " at "
            << TextTable::num(best_unsync_eff, 4)
            << " IPC/W — vs best Reunion "
            << TextTable::num(best_reunion_eff, 4) << " IPC/W ("
            << TextTable::num(best_unsync_eff / best_reunion_eff, 2)
            << "x).\n"
            << "This is the design decision Table III supports: for "
               "many-core parts, the per-core overhead gap compounds.\n";
  return 0;
}
