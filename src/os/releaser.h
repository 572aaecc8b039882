// The releaser daemon (Section 3.1.2).
//
// A kernel daemon specialized to reclaim only the pages an application has
// explicitly released. It drains a work queue of (address space, page)
// entries; for each page it first re-checks that the page has not been
// referenced again since the release request, then writes back dirty contents
// and frees the frame to the *tail* of the free list so a too-early release
// can still be rescued. It acquires the same per-address-space memory locks
// as the paging daemon, but over much smaller batches, so its lock holds are
// short and contention with fault handling stays low.

#ifndef TMH_SRC_OS_RELEASER_H_
#define TMH_SRC_OS_RELEASER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/os/thread.h"
#include "src/vm/types.h"

namespace tmh {

class AddressSpace;
class Kernel;

class Releaser : public Program {
 public:
  explicit Releaser(Kernel* kernel) : kernel_(kernel) {}

  Op Next(Kernel& kernel) override;

  [[nodiscard]] WaitQueue& wait_queue() { return wq_; }

  // One gathered release request. `depth` > 0 demotes the page into that slow
  // tier (memory-tiering machines) instead of freeing its frame.
  struct BatchEntry {
    VPage vpage;
    int32_t depth;
  };

  // Checker introspection: requests gathered off the kernel's release queue
  // for batch_as() but not yet resolved by ProcessBatch (the lock wait can be
  // long). Empty once the batch has been processed.
  [[nodiscard]] std::span<const BatchEntry> UnresolvedBatch() const {
    return batch_resolved_ ? std::span<const BatchEntry>() : std::span(batch_);
  }
  [[nodiscard]] const AddressSpace* batch_as() const {
    return batch_resolved_ ? nullptr : batch_as_;
  }

 private:
  enum class Phase : uint8_t { kIdle, kLocked, kUnlock };

  // Pops up to releaser_batch same-address-space items off the kernel's
  // release work queue into batch_. Returns the target AS or nullptr if the
  // queue is empty.
  AddressSpace* GatherBatch();
  // Frees (or skips) every page in batch_ (owner's lock is held). Returns the
  // CPU cost of the work.
  SimDuration ProcessBatch();

  Kernel* kernel_;
  WaitQueue wq_;
  Phase phase_ = Phase::kIdle;
  std::vector<BatchEntry> batch_;
  AddressSpace* batch_as_ = nullptr;
  bool batch_resolved_ = true;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_RELEASER_H_
