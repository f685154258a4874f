// §VI-C: performance across soft-error rates.
//
// IPC of UnSync and Reunion (averaged over benchmarks) as the
// per-instruction SER sweeps from realistic (1e-17, the paper's 90 nm
// operating point) to hypothetical extremes. The paper finds both curves
// flat until far beyond realistic rates, with UnSync ahead throughout, and
// a hypothetical break-even near SER = 1.29e-3 where Reunion's cheap
// rollback finally beats UnSync's expensive state copy.
#include <cmath>
#include <iostream>
#include <iterator>

#include "bench_util.hpp"
#include "fault/ser.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("SER sweep: IPC vs per-instruction soft-error rate",
                      args);

  core::UnSyncParams up;
  up.cb_entries = 256;
  core::ReunionParams rp;

  const double rates[] = {0.0,  1e-17, 1e-12, 1e-7, 1e-5, 1e-4,
                          3e-4, 1e-3,  2e-3,  3e-3, 1e-2};
  const char* benches[] = {"gzip", "bzip2", "ammp", "galgel", "mcf", "susan"};

  TextTable t;
  t.set_header({"SER/inst", "UnSync IPC", "Reunion IPC", "UnSync/Reunion",
                "recoveries", "rollbacks"});

  // Grid: (rate x benchmark x {unsync, reunion}) across host workers.
  constexpr std::size_t kNumBenches = std::size(benches);
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(std::size(rates) * kNumBenches * 2);
  for (const double ser : rates) {
    for (const auto* name : benches) {
      auto u = bench::sim_job(args, name, core::SystemKind::kUnSync, ser);
      u.params.unsync = up;
      auto r = bench::sim_job(args, name, core::SystemKind::kReunion, ser);
      r.params.reunion = rp;
      jobs.push_back(std::move(u));
      jobs.push_back(std::move(r));
    }
  }
  const auto grid = bench::run_grid(args, jobs);
  bench::maybe_dump_json(args, grid);

  double crossover = -1.0;
  double prev_ratio = 2.0;
  std::size_t job_i = 0;
  for (const double ser : rates) {
    double u_sum = 0, r_sum = 0;
    std::uint64_t recov = 0, rolls = 0;
    for (std::size_t b = 0; b < kNumBenches; ++b) {
      const auto& u = grid.results[job_i++];
      const auto& r = grid.results[job_i++];
      u_sum += u.thread_ipc();
      r_sum += r.thread_ipc();
      recov += u.recoveries;
      rolls += r.rollbacks;
    }
    const double ratio = u_sum / r_sum;
    char label[32];
    std::snprintf(label, sizeof label, "%.0e", ser);
    t.add_row({ser == 0.0 ? "0" : label, TextTable::num(u_sum / 6, 3),
               TextTable::num(r_sum / 6, 3), TextTable::num(ratio, 3),
               std::to_string(recov), std::to_string(rolls)});
    if (crossover < 0 && prev_ratio >= 1.0 && ratio < 1.0) crossover = ser;
    prev_ratio = ratio;
  }
  t.print(std::cout);

  if (crossover > 0) {
    std::cout << "\nMeasured break-even SER (UnSync/Reunion ratio crosses "
                 "1.0) near "
              << crossover << " per instruction.\n";
  } else {
    std::cout << "\nNo break-even inside the swept range.\n";
  }
  std::cout << "Paper operating point (90nm): "
            << fault::kPaperSerPerInst90nm
            << "/inst; paper break-even: " << fault::kPaperBreakEvenSer
            << "/inst.\n";

  bench::print_shape_note(
      "paper §VI-C: IPC is flat from 1e-7 down to 1e-17 (errors too rare to "
      "matter); UnSync leads Reunion by roughly its error-free margin, and "
      "only near SER ~1e-3 does UnSync's heavier recovery erase the lead.");
  return 0;
}
