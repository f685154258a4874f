// Figure 6: UnSync performance across Communication Buffer sizes.
//
// A full CB stalls commit until the partner core catches up and the bus
// drains an entry, so store-heavy applications suffer with small CBs;
// 2 KiB / 4 KiB buffers eliminate the bottleneck and match baseline.
#include <algorithm>
#include <iostream>
#include <iterator>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 6: UnSync vs Communication Buffer size", args);

  const std::size_t sizes_bytes[] = {64, 128, 256, 512, 1024, 2048, 4096};

  TextTable t;
  std::vector<std::string> header = {"Benchmark", "base IPC"};
  for (const auto b : sizes_bytes) {
    header.push_back(b >= 1024 ? std::to_string(b / 1024) + "KB"
                               : std::to_string(b) + "B");
  }
  header.push_back("stalls@64B");
  t.set_header(header);

  const char* benches[] = {"susan", "gzip", "bzip2", "qsort", "gcc",
                           "equake", "mcf", "galgel"};

  // Grid: (benchmark x (baseline + every CB size)) across host workers.
  constexpr std::size_t kCells = 1 + std::size(sizes_bytes);
  std::vector<runtime::SimJob> jobs;
  jobs.reserve(std::size(benches) * kCells);
  for (const auto* name : benches) {
    jobs.push_back(
        bench::sim_job(args, name, core::SystemKind::kBaseline));
    for (const auto bytes : sizes_bytes) {
      auto job = bench::sim_job(args, name, core::SystemKind::kUnSync);
      job.params.unsync.cb_entries = std::max<std::size_t>(
          1, core::UnSyncParams::entries_for_bytes(bytes));
      jobs.push_back(std::move(job));
    }
  }
  const auto grid = bench::run_grid(args, jobs);
  bench::maybe_dump_json(args, grid);

  for (std::size_t b = 0; b < std::size(benches); ++b) {
    const double base = grid.results[b * kCells].thread_ipc();
    std::vector<std::string> row = {benches[b], TextTable::num(base, 3)};
    std::uint64_t small_stalls = 0;
    for (std::size_t s = 0; s < std::size(sizes_bytes); ++s) {
      const auto& r = grid.results[b * kCells + 1 + s];
      row.push_back(TextTable::num(r.thread_ipc() / base, 3));
      if (sizes_bytes[s] == 64) small_stalls = r.cb_full_stalls;
    }
    row.push_back(std::to_string(small_stalls));
    t.add_row(row);
  }
  t.print(std::cout);

  bench::print_shape_note(
      "paper Fig. 6: small CBs cost performance on write-intensive "
      "applications (commit stalls on a full CB); 2KB and 4KB CBs remove "
      "the bottleneck and UnSync runs at baseline speed.");
  return 0;
}
