// Checkpoint walks for the workload layer: DynOp records and the two
// stream cursor types. Kept in one translation unit so the wire layout of
// a stream's state is reviewable in a single place.
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

void SyntheticStream::visit(ckpt::Archive& ar) {
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
    ar.rng(rng_);
    ar.u64(next_seq_);
    ar.u64(cold_cursor_);
    ar.b(last_was_store_);
  });
}

void TraceStream::visit(ckpt::Archive& ar) {
  ar.chunk("TRCS", [&] {
    ar.expect(ops_->size(), "trace stream length mismatch");
    ar.u64(cursor_);
  });
}

}  // namespace unsync::workload
