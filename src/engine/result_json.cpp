// RunResult -> JSON under the stable "unsync.run_result.v2" schema.
//
// This is the machine-readable contract every consumer shares (the CLI's
// --format=json, campaign reduction, the golden-file test): key order is
// fixed, doubles are shortest-round-trip, and interval IPC samples are
// deliberately excluded (unbounded size; they stay available in CoreStats).
#include "engine/run_result.hpp"
#include "obs/json.hpp"

namespace unsync::engine {

namespace {

void write_core_stats(obs::JsonWriter& w, const cpu::CoreStats& s) {
  w.begin_object();
  w.key("cycles").value(s.cycles);
  w.key("committed").value(s.committed);
  w.key("ipc").value(s.ipc());
  w.key("loads").value(s.loads);
  w.key("stores").value(s.stores);
  w.key("branches").value(s.branches);
  w.key("mispredicts").value(s.mispredicts);
  w.key("serializing").value(s.serializing);
  w.key("avg_rob_occupancy").value(s.avg_rob_occupancy());
  w.key("stalls").begin_object();
  w.key("commit_store").value(s.commit_stall_store);
  w.key("commit_gate").value(s.commit_stall_gate);
  w.key("dispatch_rob").value(s.dispatch_stall_rob);
  w.key("dispatch_iq").value(s.dispatch_stall_iq);
  w.key("dispatch_lsq").value(s.dispatch_stall_lsq);
  w.key("fetch_branch").value(s.fetch_blocked_branch);
  w.key("fetch_serialize").value(s.fetch_blocked_serialize);
  w.key("fetch_icache").value(s.fetch_blocked_icache);
  w.key("recovery_cycles").value(s.recovery_stall_cycles);
  w.end_object();
  w.key("tlb").begin_object();
  w.key("itlb_misses").value(s.itlb_misses);
  w.key("dtlb_misses").value(s.dtlb_misses);
  w.end_object();
  w.end_object();
}

void write_error_event(obs::JsonWriter& w, const ErrorEvent& e) {
  w.begin_object();
  w.key("cycle").value(e.cycle);
  w.key("position").value(e.position);
  w.key("thread").value(e.thread);
  w.key("struck_core").value(e.struck_core);
  w.key("cost").value(e.cost);
  w.key("rollback").value(e.rollback);
  w.end_object();
}

}  // namespace

std::string RunResult::to_json(int indent) const {
  obs::JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("unsync.run_result.v2");
  w.key("system").value(system);
  w.key("tier").value("detailed");
  w.key("approximate").value(approximate);
  w.key("cycles").value(cycles);
  w.key("instructions").value(instructions);
  w.key("thread_ipc").value(thread_ipc());
  w.key("thread_instructions").begin_array();
  for (const auto n : thread_instructions) w.value(n);
  w.end_array();
  w.key("errors").begin_object();
  w.key("injected").value(errors_injected);
  w.key("recoveries").value(recoveries);
  w.key("rollbacks").value(rollbacks);
  w.key("recovery_cycles_total").value(recovery_cycles_total);
  w.end_object();
  w.key("cb_full_stalls").value(cb_full_stalls);
  w.key("fingerprint_syncs").value(fingerprint_syncs);
  w.key("cores").begin_array();
  for (const auto& s : core_stats) write_core_stats(w, s);
  w.end_array();
  w.key("error_log").begin_array();
  for (const auto& e : error_log) write_error_event(w, e);
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace unsync::engine
