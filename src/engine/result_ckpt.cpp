// Checkpoint walks of the engine layer: the ErrorEvent / RunResult layout
// the system chunk (core::System::visit_checkpoint) shares with the
// campaign journal. The "RRES" chunk layout is load-bearing: existing
// checkpoints and journals decode against it.
#include "ckpt/archive.hpp"
#include "engine/run_result.hpp"

namespace unsync::engine {

void ErrorEvent::visit(ckpt::Archive& ar) {
  ar.u64(cycle);
  ar.u64(position);
  ar.u32(thread);
  ar.u32(struck_core);
  ar.u64(cost);
  ar.b(rollback);
}

void RunResult::visit(ckpt::Archive& ar) {
  ar.chunk("RRES", [&] {
    ar.str(system);
    ar.u64(cycles);
    ar.u64(instructions);
    ar.u64s(thread_instructions);
    ar.count(core_stats);
    for (cpu::CoreStats& cs : core_stats) cs.visit(ar);
    ar.u64(errors_injected);
    ar.u64(recoveries);
    ar.u64(rollbacks);
    ar.u64(recovery_cycles_total);
    ar.u64(cb_full_stalls);
    ar.u64(fingerprint_syncs);
    ar.count(error_log);
    for (ErrorEvent& e : error_log) e.visit(ar);
    ar.b(approximate);
  });
}

}  // namespace unsync::engine
