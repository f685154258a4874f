// Figure 4: performance overhead from serializing instructions.
//
// For every benchmark: per-thread IPC of the baseline CMP, Reunion (FI=10)
// and UnSync, plus each redundant scheme's overhead relative to baseline.
// The paper reports Reunion averaging ~8% (bzip2/ammp/galgel above 10%,
// galgel worst due to ROB pressure) while UnSync stays around 2%.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 4: serializing-instruction overhead", args);

  core::UnSyncParams up;
  up.cb_entries = 256;  // 4 KiB CB: isolate the serializing effect
  core::ReunionParams rp;
  rp.fingerprint_interval = 10;  // "smaller the better for Reunion"
  rp.compare_latency = 10;

  TextTable t;
  t.set_header({"Benchmark", "serializing%", "base IPC", "Reunion IPC",
                "UnSync IPC", "Reunion ovh%", "UnSync ovh%"});

  // Grid: (benchmark x {baseline, reunion, unsync}) across host workers.
  const auto& profiles = workload::all_profiles();
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(profiles.size() * 3);
  for (const auto& prof : profiles) {
    auto b = bench::sim_job(args, prof.name, core::SystemKind::kBaseline);
    auto r = bench::sim_job(args, prof.name, core::SystemKind::kReunion);
    r.params.reunion = rp;
    auto u = bench::sim_job(args, prof.name, core::SystemKind::kUnSync);
    u.params.unsync = up;
    jobs.push_back(std::move(b));
    jobs.push_back(std::move(r));
    jobs.push_back(std::move(u));
  }
  const auto grid = bench::run_grid(args, jobs);
  bench::maybe_dump_json(args, grid);

  double reunion_sum = 0, unsync_sum = 0;
  int n = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& prof = profiles[i];
    const double base = grid.results[i * 3 + 0].thread_ipc();
    const double reunion = grid.results[i * 3 + 1].thread_ipc();
    const double unsync = grid.results[i * 3 + 2].thread_ipc();
    const double r_ovh = (base - reunion) / base * 100.0;
    const double u_ovh = (base - unsync) / base * 100.0;
    reunion_sum += r_ovh;
    unsync_sum += u_ovh;
    ++n;
    t.add_row({prof.name, TextTable::num(prof.mix.serializing * 100, 1),
               TextTable::num(base, 3), TextTable::num(reunion, 3),
               TextTable::num(unsync, 3), TextTable::num(r_ovh, 1),
               TextTable::num(u_ovh, 1)});
  }
  t.add_row({"AVERAGE", "", "", "", "", TextTable::num(reunion_sum / n, 1),
             TextTable::num(unsync_sum / n, 1)});
  t.print(std::cout);

  bench::print_shape_note(
      "paper Fig. 4: Reunion averages ~8% overhead, exceeding 10% on the "
      "serializing-heavy bzip2 (2%), ammp (1.7%) and galgel (1%, worst via "
      "ROB occupancy); UnSync stays ~2% everywhere.");
  return 0;
}
