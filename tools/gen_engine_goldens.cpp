// gen_engine_goldens — regenerates the engine parity goldens
// (tests/golden/engine/*.json).
//
// The goldens pin RunResult::to_json for every system on a fixed grid of
// (profile x seed) points with error injection enabled. They were captured
// BEFORE the SimKernel refactor, so test_engine_parity proves the shared
// cycle engine — with and without quiescence fast-forwarding — reproduces
// the original bespoke run() loops bit for bit. Regenerate only for a
// deliberate, documented behaviour change (see docs/ENGINE.md).
//
// Usage: gen_engine_goldens <output-dir>
#include <fstream>
#include <iostream>

#include "core/factory.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: gen_engine_goldens <output-dir>\n";
    return 2;
  }
  const std::string dir = argv[1];

  using namespace unsync;
  const core::SystemKind kinds[] = {
      core::SystemKind::kBaseline, core::SystemKind::kUnSync,
      core::SystemKind::kReunion, core::SystemKind::kLockstep,
      core::SystemKind::kCheckpoint, core::SystemKind::kHetero};
  const char* profiles[] = {"galgel", "gzip"};
  const std::uint64_t seeds[] = {7, 21, 1234};

  int written = 0;
  for (const auto kind : kinds) {
    for (const char* prof : profiles) {
      for (const auto seed : seeds) {
        workload::SyntheticStream stream(workload::profile(prof), seed, 6000);
        core::SystemConfig cfg;
        cfg.num_threads = 2;
        cfg.ser_per_inst = 5e-4;
        cfg.seed = seed;
        const auto sys = core::make_system(kind, cfg, stream);
        const engine::RunResult r = sys->run();
        const std::string path = dir + "/" + core::name_of(kind) + "_" +
                                 prof + "_s" + std::to_string(seed) + ".json";
        std::ofstream out(path);
        if (!out) {
          std::cerr << "cannot write " << path << "\n";
          return 1;
        }
        out << r.to_json() << "\n";
        ++written;
      }
    }
  }
  std::cout << "wrote " << written << " goldens to " << dir << "\n";
  return 0;
}
