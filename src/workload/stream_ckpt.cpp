// Checkpoint walks for the workload layer: DynOp records and the stream
// cursor types (a shared-ring cursor writes the synthetic stream's chunk
// through visit_state). Kept in one translation unit so the wire layout
// of a stream's state is reviewable in a single place.
#include "ckpt/archive.hpp"
#include "workload/dyn_op.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {

void DynOp::visit(ckpt::Archive& ar) {
  ar.u64(seq);
  ar.u8(cls);
  ar.u64(pc);
  ar.u64(src[0]);
  ar.u64(src[1]);
  ar.b(writes_reg);
  ar.u64(mem_addr);
  ar.b(taken);
  ar.b(has_mispredict_hint);
  ar.b(mispredict_hint);
}

void InstStream::visit(ckpt::Archive&) {
  throw ckpt::CkptError("this stream type does not support checkpointing");
}

void SyntheticStream::visit(ckpt::Archive& ar) { visit_state(ar, state_); }

void SyntheticStream::visit_state(ckpt::Archive& ar, State& s) const {
  ar.chunk("SYNS", [&] {
    // Identity of the generation function — everything else (locality
    // model, cumulative mix weights, address-space base) is re-derived from
    // it at construction, so only the mutable cursor is state.
    const std::string name = ar.pinned(profile_.name);
    const std::uint64_t seed = ar.pinned(seed_);
    const std::uint64_t length = ar.pinned(length_);
    if (name != profile_.name || seed != seed_ || length != length_) {
      throw ckpt::CkptError(
          "synthetic stream identity mismatch: checkpoint " + name + "/" +
          std::to_string(seed) + "/" + std::to_string(length) + ", stream " +
          profile_.name + "/" + std::to_string(seed_) + "/" +
          std::to_string(length_));
    }
    ar.rng(s.rng);
    ar.u64(s.next_seq);
    ar.u64(s.cold_cursor);
    ar.b(s.last_was_store);
  });
}

void TraceStream::visit(ckpt::Archive& ar) {
  ar.chunk("TRCS", [&] {
    ar.expect(ops_->size(), "trace stream length mismatch");
    ar.u64(cursor_);
  });
}

}  // namespace unsync::workload
