// Quickstart: the whole pipeline in one file.
//
//   1. Assemble a URISC program (checksum over an array).
//   2. Execute it on the golden-model functional simulator.
//   3. Record its dynamic trace and replay it through the baseline CMP and
//      the UnSync redundant architecture, with soft errors injected into
//      the UnSync run.
//
// Build & run:  ./build/examples/quickstart [insts=...] [ser=1e-4]
#include <iostream>
#include <utility>

#include "common/config.hpp"
#include "core/factory.hpp"
#include "core/report.hpp"
#include "fault/ser.hpp"
#include "isa/assembler.hpp"
#include "isa/functional_sim.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace unsync;
  const Config cfg = Config::from_args(argc, argv);
  const auto [ser, verbose] = knobs_or_exit([&] {
    const double s = cfg.get_double("ser", 1e-4);
    fault::check_ser(s);
    return std::pair{s, cfg.get_bool("verbose", false)};
  });

  // 1. Assemble. The program fills an array with i*i and folds it into a
  //    checksum that it emits through the syscall channel.
  const char* source = R"(
  data:
    .space 2048
    addi r10, r0, 256       # n
    addi r11, r0, 0         # i
    la   r20, data
  fill:
    mul  r1, r11, r11
    slli r2, r11, 3
    add  r3, r20, r2
    st   r1, 0(r3)
    addi r11, r11, 1
    blt  r11, r10, fill
    addi r11, r0, 0
    addi r4, r0, 0          # checksum
  sum:
    slli r2, r11, 3
    add  r3, r20, r2
    ld   r1, 0(r3)
    xor  r4, r4, r1
    add  r4, r4, r11
    addi r11, r11, 1
    blt  r11, r10, sum
    addi r1, r0, 1          # emit checksum
    add  r2, r0, r4
    syscall
    halt
  )";
  const isa::Program program = isa::Assembler::assemble(source);
  std::cout << "Assembled " << program.code.size() << " instructions, "
            << program.data.size() << " data bytes.\n";

  // 2. Golden-model run.
  isa::FunctionalSim golden(program);
  golden.run(1'000'000);
  std::cout << "Functional simulation retired " << golden.retired()
            << " instructions; checksum = " << golden.output().at(0) << "\n";

  // 3. Timing runs over the recorded trace.
  workload::TraceStream trace(workload::record_trace(program, 1'000'000));

  // Systems are built through core::make_system — the same factory the CLI
  // and campaign runner use — so this example stays in lockstep with them.
  core::SystemConfig sys_cfg;
  sys_cfg.num_threads = 1;
  const auto baseline =
      core::make_system(core::SystemKind::kBaseline, sys_cfg, trace);
  const engine::RunResult rb = baseline->run();
  std::cout << "\nBaseline CMP:   " << rb.cycles << " cycles, IPC "
            << rb.thread_ipc() << "\n";

  sys_cfg.ser_per_inst = ser;
  core::SystemParams params;
  params.unsync.cb_entries = 128;  // 2 KiB CB
  const auto unsync =
      core::make_system(core::SystemKind::kUnSync, sys_cfg, trace, params);
  const engine::RunResult ru = unsync->run();
  std::cout << "UnSync (pair):  " << ru.cycles << " cycles, IPC "
            << ru.thread_ipc() << " at SER " << ser << "/inst\n"
            << "                errors injected: " << ru.errors_injected
            << ", forward recoveries: " << ru.recoveries
            << ", recovery cycles: " << ru.recovery_cycles_total << "\n";

  const double overhead =
      (rb.thread_ipc() - ru.thread_ipc()) / rb.thread_ipc() * 100.0;
  std::cout << "\nUnSync redundancy overhead vs baseline: " << overhead
            << "% (errors are survived; the baseline would silently "
               "corrupt).\n";

  if (verbose) {
    std::cout << "\n";
    core::RunReport(ru, &unsync->memory()).print(std::cout);
  } else {
    std::cout << "(run with verbose=1 for the full per-core and memory "
                 "report)\n";
  }
  return 0;
}
