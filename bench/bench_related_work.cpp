// Extension beyond the paper's figures: the full §II landscape on one
// table — baseline CMP, mainframe lock-step, DMR + checkpointing
// (Fingerprinting-style), Reunion, and UnSync — error-free and at an
// elevated error rate. Reproduces the paper's qualitative argument for why
// each predecessor loses: coupling (lock-step), capture cost and detection
// latency (checkpointing), CHECK-stage pressure (Reunion).
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "core/dmr_checkpoint_system.hpp"
#include "core/lockstep_system.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Related-work landscape (§II comparison points)",
                      args);

  core::UnSyncParams up;
  up.cb_entries = 256;
  core::ReunionParams rp;
  core::LockstepParams lp;
  core::CheckpointParams cp;

  for (const double ser : {0.0, 1e-4}) {
    TextTable t(ser == 0.0 ? "Error-free execution"
                           : "SER = 1e-4 per instruction (stress)");
    t.set_header({"benchmark", "baseline", "lockstep", "dmr-checkpoint",
                  "reunion", "unsync", "unsync wins by"});
    const char* benches[] = {"gzip", "bzip2", "mcf", "ammp", "galgel",
                             "susan"};
    for (const auto* name : benches) {
      workload::SyntheticStream s = args.stream(name);
      core::BaselineSystem base(args.system_config(), s);
      core::LockstepSystem lock(args.system_config(ser), lp, s);
      core::DmrCheckpointSystem check(args.system_config(ser), cp, s);
      const double b = base.run().thread_ipc();
      const double l = lock.run().thread_ipc();
      const double c = check.run().thread_ipc();
      const double r = bench::reunion_run(args, name, rp, ser).thread_ipc();
      const double u = bench::unsync_run(args, name, up, ser).thread_ipc();
      const double best_rival = std::max({l, c, r});
      t.add_row({name, TextTable::num(b, 3), TextTable::num(l, 3),
                 TextTable::num(c, 3), TextTable::num(r, 3),
                 TextTable::num(u, 3),
                 TextTable::pct(u / best_rival - 1.0)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  bench::print_shape_note(
      "extension table (not in the paper): UnSync should lead every "
      "redundant rival in error-free execution — lock-step pays coupling on "
      "every cycle, checkpointing pays capture costs, Reunion pays "
      "CHECK-stage pressure — while staying close to the unprotected "
      "baseline.");
  return 0;
}
