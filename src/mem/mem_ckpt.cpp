// Checkpoint walks for the memory layer: buses, MSHR files, caches, TLBs,
// write buffers and the hierarchy that owns them. One translation unit so
// the uncore's wire layout is reviewable in a single place. Cache lines
// and TLB entries are the bulk of a system's state: each array is walked
// as one block of records.
#include <algorithm>

#include "ckpt/archive.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "mem/tlb.hpp"
#include "mem/write_buffer.hpp"

namespace unsync::mem {

void Bus::visit(ckpt::Archive& ar) {
  ar.chunk("BUS0", [&] {
    ar.u64(next_free_);
    ar.u64(busy_cycles_);
    ar.u64(transactions_);
  });
}

void MshrFile::visit(ckpt::Archive& ar) {
  ar.chunk("MSHR", [&] {
    ar.expect(entries_, "MSHR capacity mismatch");
    ar.count(misses_);
    for (Entry& e : misses_) {
      ar.u64(e.line_addr);
      ar.u64(e.done);
    }
    ar.u64(stall_cycles_);
  });
}

void Cache::visit(ckpt::Archive& ar) {
  ar.chunk("CACH", [&] {
    ar.expect(lines_.size(), "cache geometry mismatch");
    // Unused ways walk as the zero lines they read as; load takes each
    // set's in-use count from its bytes.
    ar.records(lines_, used_, &Line::tag, &Line::valid, &Line::dirty,
               &Line::lru);
    if (ar.loading()) {
      valid_count_ = 0;
      for (std::size_t set = 0; set < used_.size(); ++set) {
        const Line* ways = &lines_[set * config_.assoc];
        for (std::uint32_t w = 0; w < used_[set]; ++w) {
          valid_count_ += ways[w].valid;
        }
      }
    }
    ar.u64(lru_clock_);
    ar.u64(hits_);
    ar.u64(misses_);
    ar.u64(writebacks_);
    mshrs_.visit(ar);
  });
}

void Tlb::visit(ckpt::Archive& ar) {
  ar.chunk("TLB0", [&] {
    ar.expect(entries_.size(), "TLB geometry mismatch");
    ar.records(entries_, &Entry::vpn, &Entry::valid, &Entry::lru);
    if (ar.loading()) {
      valid_count_ = static_cast<std::uint64_t>(
          std::count_if(entries_.begin(), entries_.end(),
                        [](const Entry& e) { return e.valid; }));
    }
    ar.u64(clock_);
    ar.u64(hits_);
    ar.u64(misses_);
  });
}

void WriteBuffer::visit(ckpt::Archive& ar) {
  ar.chunk("WBUF", [&] {
    ar.expect(capacity_, "write buffer capacity mismatch");
    ar.count(entries_);
    for (WriteBufferEntry& e : entries_) {
      ar.u64(e.addr);
      ar.u64(e.seq);
      ar.u64(e.ready);
    }
    ar.u64(peak_);
    ar.u64(total_pushed_);
  });
}

void MemoryHierarchy::visit(ckpt::Archive& ar) {
  ar.chunk("MEMH", [&] {
    ar.expect(l1d_.size(), "memory hierarchy core-count mismatch");
    for (const auto& c : l1d_) c->visit(ar);
    for (const auto& c : l1i_) c->visit(ar);
    l2_.visit(ar);
    bus_.visit(ar);
    dram_chan_.visit(ar);
  });
}

}  // namespace unsync::mem
