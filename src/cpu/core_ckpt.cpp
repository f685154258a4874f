// Checkpoint walks for the CPU layer: branch predictor, CoreStats blocks,
// the check log, and both core models. One translation unit so the core's
// wire layout is reviewable in a single place.
#include <algorithm>

#include "ckpt/archive.hpp"
#include "cpu/bpred.hpp"
#include "cpu/check_log.hpp"
#include "cpu/in_order_core.hpp"
#include "cpu/ooo_core.hpp"

namespace unsync::cpu {

void GsharePredictor::visit(ckpt::Archive& ar) {
  ar.chunk("BPRD", [&] {
    ar.expect(counters_.size(), "branch predictor table-size mismatch");
    for (std::uint8_t& c : counters_) ar.u8(c);
    ar.u64(history_);
    ar.u64(lookups_);
    ar.u64(wrong_);
  });
}

void CoreStats::visit(ckpt::Archive& ar) {
  ar.chunk("CSTA", [&] {
    for (std::uint64_t* field :
         {&cycles, &committed, &loads, &stores, &branches, &mispredicts,
          &serializing, &commit_stall_store, &commit_stall_gate,
          &dispatch_stall_rob, &dispatch_stall_iq, &dispatch_stall_lsq,
          &fetch_blocked_branch, &fetch_blocked_serialize,
          &fetch_blocked_icache, &itlb_misses, &dtlb_misses,
          &recovery_stall_cycles, &rob_occupancy_accum}) {
      ar.u64(*field);
    }
    ar.u64s(interval_committed);
  });
}

void OooCore::visit(ckpt::Archive& ar) {
  ar.chunk("CPU0", [&] {
    ar.expect(id_, "core id mismatch");
    stats_.visit(ar);
    ar.u64(next_sample_);
    ar.u64(frozen_until_);

    ar.count(fetch_queue_);
    for (workload::DynOp& op : fetch_queue_) op.visit(ar);

    ar.count(rob_);
    for (RobEntry& e : rob_) {
      e.op.visit(ar);
      ar.b(e.in_iq);
      ar.b(e.issued);
      ar.u64(e.complete_at);
      ar.b(e.mispredicted);
    }

    // unordered_map: walked sorted by key so identical state always
    // produces identical bytes (save -> load -> save is byte-comparable).
    std::vector<std::pair<SeqNum, Cycle>> completions;
    if (!ar.loading()) {
      completions.assign(completion_.begin(), completion_.end());
      std::sort(completions.begin(), completions.end());
    }
    ar.count(completions);
    for (auto& [seq, at] : completions) {
      ar.u64(seq);
      ar.u64(at);
    }
    if (ar.loading()) {
      completion_.clear();
      for (const auto& [seq, at] : completions) completion_[seq] = at;
    }

    bpred_.visit(ar);
    itlb_.visit(ar);
    dtlb_.visit(ar);

    for (FuPool* pool : {&fu_int_alu_, &fu_int_mul_, &fu_int_div_,
                         &fu_fp_alu_, &fu_fp_mul_, &fu_fp_div_, &fu_mem_}) {
      ar.expect(pool->next_free.size(), "functional-unit pool width mismatch");
      for (Cycle& c : pool->next_free) ar.u64(c);
    }

    stream_->visit(ar);
    ar.b(stream_done_);
    ar.u64(fetch_blocked_on_);
    ar.u64(fetch_resume_at_);
    ar.b(pending_stream_op_valid_);
    pending_stream_op_.visit(ar);

    ar.u32(iq_count_);
    ar.u32(lq_count_);
    ar.u32(sq_count_);

    ar.u64s(committed_store_words_);
  });
}

void InOrderCore::visit(ckpt::Archive& ar) {
  ar.chunk("IOC0", [&] {
    ar.expect(id_, "in-order core id mismatch");
    stats_.visit(ar);
    ar.u64(next_sample_);
    ar.u64(frozen_until_);
    stream_->visit(ar);
    ar.b(stream_done_);
    ar.b(op_valid_);
    op_.visit(ar);
    ar.b(started_);
    ar.u64(complete_at_);
  });
}

void CheckLog::visit(ckpt::Archive& ar) {
  ar.chunk("CLOG", [&] {
    ar.expect(capacity_, "check-log capacity mismatch");
    ar.count(entries_);
    if (entries_.size() > capacity_) {
      throw ckpt::CkptError("check-log over capacity");
    }
    for (CheckLogEntry& e : entries_) {
      ar.u64(e.seq);
      ar.u64(e.addr);
      ar.u8(e.kind);
      ar.b(e.taken);
    }
    ar.u64(peak_);
    ar.u64(total_pushed_);
  });
}

}  // namespace unsync::cpu
