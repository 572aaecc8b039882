// Pins the Op layout (src/os/thread.h). Ops travel by value from every
// Program::Next to the kernel, so the struct is held to 48 bytes with one
// pointer slot that the op kind selects. These tests hold the factories to
// the field values of the 72-byte struct with three separate pointers, and
// each executor to the slot its kind fills.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/os/kernel.h"
#include "src/os/lock.h"
#include "src/os/thread.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

TEST(OpLayoutTest, OpIsFortyEightBytes) { EXPECT_EQ(sizeof(Op), 48u); }

// The seven fields OpStreamPinTest hashes, plus the kind.
struct Fields {
  Op::Kind kind;
  VPage vpage;
  bool is_write;
  SimDuration duration;
  int64_t count;
  int32_t priority;
  int32_t tag;
};

void ExpectFields(const Op& op, const Fields& want, const char* factory) {
  EXPECT_EQ(op.kind, want.kind) << factory;
  EXPECT_EQ(op.vpage, want.vpage) << factory;
  EXPECT_EQ(op.is_write, want.is_write) << factory;
  EXPECT_EQ(op.duration, want.duration) << factory;
  EXPECT_EQ(op.count, want.count) << factory;
  EXPECT_EQ(op.priority, want.priority) << factory;
  EXPECT_EQ(op.tag, want.tag) << factory;
}

TEST(OpLayoutTest, FactoriesSetTheHashedFieldsAndDefaults) {
  using K = Op::Kind;
  WaitQueue queue;
  MemoryLock lock("l");
  // Unset fields keep the defaults: vpage kNoVPage, count 1, priority 0,
  // tag -1, duration 0, a load.
  ExpectFields(Op::Compute(7), {K::kCompute, kNoVPage, false, 7, 1, 0, -1}, "Compute");
  ExpectFields(Op::Touch(5, true, 9), {K::kTouch, 5, true, 9, 1, 0, -1}, "Touch");
  ExpectFields(Op::Touch(6, false, 0), {K::kTouch, 6, false, 0, 1, 0, -1}, "Touch (load)");
  ExpectFields(Op::Sleep(11), {K::kSleep, kNoVPage, false, 11, 1, 0, -1}, "Sleep");
  ExpectFields(Op::Prefetch(13), {K::kPrefetch, 13, false, 0, 1, 0, -1}, "Prefetch");
  ExpectFields(Op::Release(17, 4, 3, 21), {K::kRelease, 17, false, 0, 4, 3, 21}, "Release");
  ExpectFields(Op::Release(19, 1, -2, -7), {K::kRelease, 19, false, 0, 1, -2, -7},
               "Release (negative priority and tag)");
  ExpectFields(Op::Wait(&queue), {K::kWait, kNoVPage, false, 0, 1, 0, -1}, "Wait");
  ExpectFields(Op::Acquire(&lock), {K::kAcquireLock, kNoVPage, false, 0, 1, 0, -1}, "Acquire");
  ExpectFields(Op::ReleaseL(&lock), {K::kReleaseLock, kNoVPage, false, 0, 1, 0, -1},
               "ReleaseL");
  ExpectFields(Op::Yield(), {K::kYield, kNoVPage, false, 0, 1, 0, -1}, "Yield");
  ExpectFields(Op::Exit(), {K::kExit, kNoVPage, false, 0, 1, 0, -1}, "Exit");
}

TEST(OpLayoutTest, EachKindCarriesThePointerItsExecutorReads) {
  Kernel kernel(TestMachine());
  AddressSpace* as = MakeAnonAs(kernel, "as", 4);
  WaitQueue queue;
  MemoryLock lock("l");

  // Touch, prefetch and release target `as`; nullptr means the thread's own.
  for (Op op : {Op::Touch(1, false, 0), Op::Prefetch(2), Op::Release(3, 1, 0, 0)}) {
    EXPECT_EQ(op.as, nullptr) << static_cast<int>(op.kind);
    op.as = as;
    const Op copy = op;
    EXPECT_EQ(copy.as, as) << static_cast<int>(op.kind);
  }
  const Op wait = Op::Wait(&queue);
  EXPECT_EQ(wait.wait, &queue);
  const Op acquire = Op::Acquire(&lock);
  EXPECT_EQ(acquire.lock, &lock);
  const Op release = Op::ReleaseL(&lock);
  EXPECT_EQ(release.lock, &lock);
}

// Through the kernel's executors: a thread with no address space touches the
// page its op names, waits on the queue, and takes and drops the lock.
TEST(OpLayoutTest, ExecutorsReadTheSlotTheirKindFills) {
  Kernel kernel(TestMachine());
  AddressSpace* as = MakeAnonAs(kernel, "as", 4);
  WaitQueue queue;
  queue.AddPendingSignal();  // the Wait completes at once
  MemoryLock lock("l");
  Op touch = Op::Touch(2, /*write=*/true, 0);
  touch.as = as;
  ScriptProgram program({touch, Op::Wait(&queue), Op::Acquire(&lock), Op::Compute(kMsec),
                         Op::ReleaseL(&lock)});
  Thread* t = kernel.Spawn("t", nullptr, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_TRUE(as->page_table().at(2).resident);
  EXPECT_EQ(as->page_table().resident_count(), 1);
  EXPECT_FALSE(queue.ConsumeSignal());  // the Wait consumed the signal
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.holder(), nullptr);
  EXPECT_EQ(t->times().user, kMsec);
}

}  // namespace
}  // namespace tmh
