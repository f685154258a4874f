// Checkpoint walks for the CPU layer: branch predictor, CoreStats blocks,
// the check log, and both core models. One translation unit so the core's
// wire layout is reviewable in a single place.
#include <string>

#include "ckpt/archive.hpp"
#include "cpu/bpred.hpp"
#include "cpu/check_log.hpp"
#include "cpu/in_order_core.hpp"
#include "cpu/ooo_core.hpp"

namespace unsync::cpu {

namespace {

/// A ring's element count, as the same u64 Archive::count walks. Load
/// checks it against the ring's fixed capacity before anything is read
/// into the ring.
template <typename Ring>
void ring_count(ckpt::Archive& ar, Ring& ring, const char* what) {
  const std::uint64_t n = ar.pinned(ring.size());
  if (!ar.loading()) return;
  if (n > ring.capacity()) {
    throw ckpt::CkptError("checkpoint " + std::string(what) + " count " +
                          std::to_string(n) + " exceeds its capacity");
  }
  ring.resize(n);
}

}  // namespace

void GsharePredictor::visit(ckpt::Archive& ar) {
  ar.chunk("BPRD", [&] {
    ar.expect(counters_.size(), "branch predictor table-size mismatch");
    ar.u8s(counters_);
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

    ring_count(ar, fetch_queue_, "fetch queue");
    for (std::size_t i = 0; i < fetch_queue_.size(); ++i) {
      fetch_queue_[i].visit(ar);
    }

    ring_count(ar, rob_, "ROB");
    for (std::size_t i = 0; i < rob_.size(); ++i) {
      RobEntry& e = rob_[i];
      e.op.visit(ar);
      ar.b(e.in_iq);
      ar.b(e.issued);
      ar.u64(e.complete_at);
      ar.b(e.mispredicted);
    }

    // One (seq, complete_at) pair per ROB entry, oldest first: the bytes
    // of the producer map this ring replaced. Derived identity fields —
    // Save writes them from the ROB; Load reads and drops them and
    // rebuilds every derived structure from the ROB instead.
    ar.expect(std::uint64_t{rob_.size()}, "completion count differs from ROB");
    for (std::size_t i = 0; i < rob_.size(); ++i) {
      ar.pinned(rob_[i].op.seq);
      ar.pinned(rob_[i].complete_at);
    }
    if (ar.loading()) rebuild_derived();

    bpred_.visit(ar);
    itlb_.visit(ar);
    dtlb_.visit(ar);

    for (FuPool& pool : fu_) {
      ar.expect(pool.next_free.size(), "functional-unit pool width mismatch");
      for (Cycle& c : pool.next_free) ar.u64(c);
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
