// Tests for the physical-memory structures: the free list (a one-node
// FramePool, with rescue), frame table, page table, and residency bitmap.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/vm/frame_pool.h"
#include "src/vm/frame_table.h"
#include "src/vm/page_table.h"
#include "src/vm/residency_bitmap.h"

namespace tmh {
namespace {

TEST(FreeListTest, PopFromEmptyReturnsNoFrame) {
  FramePool list(8, 1);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopHead(0), kNoFrame);
}

TEST(FreeListTest, HeadPushesPopInLifoOrder) {
  FramePool list(8, 1);
  list.PushHead(1);
  list.PushHead(2);
  list.PushHead(3);
  EXPECT_EQ(list.PopHead(0), 3);
  EXPECT_EQ(list.PopHead(0), 2);
  EXPECT_EQ(list.PopHead(0), 1);
}

TEST(FreeListTest, TailPushesPopInFifoOrder) {
  FramePool list(8, 1);
  list.PushTail(1);
  list.PushTail(2);
  list.PushTail(3);
  EXPECT_EQ(list.PopHead(0), 1);
  EXPECT_EQ(list.PopHead(0), 2);
  EXPECT_EQ(list.PopHead(0), 3);
}

TEST(FreeListTest, TailInsertMaximizesRescueWindow) {
  // A released page (tail) outlives a daemon-stolen page (head) on the list.
  FramePool list(8, 1);
  list.PushHead(0);  // stolen
  list.PushTail(1);  // released
  EXPECT_EQ(list.PopHead(0), 0);  // the stolen page is reallocated first
  EXPECT_TRUE(list.Contains(1));
}

TEST(FreeListTest, RemoveFromMiddle) {
  FramePool list(8, 1);
  list.PushTail(1);
  list.PushTail(2);
  list.PushTail(3);
  list.Remove(2);
  EXPECT_FALSE(list.Contains(2));
  EXPECT_EQ(list.size(), 2);
  EXPECT_EQ(list.PopHead(0), 1);
  EXPECT_EQ(list.PopHead(0), 3);
}

TEST(FreeListTest, RemoveHeadAndTail) {
  FramePool list(8, 1);
  list.PushTail(1);
  list.PushTail(2);
  list.PushTail(3);
  list.Remove(1);
  list.Remove(3);
  EXPECT_EQ(list.size(), 1);
  EXPECT_EQ(list.PopHead(0), 2);
  EXPECT_TRUE(list.empty());
}

TEST(FreeListTest, ContainsReflectsMembership) {
  FramePool list(8, 1);
  EXPECT_FALSE(list.Contains(3));
  list.PushTail(3);
  EXPECT_TRUE(list.Contains(3));
  list.PopHead(0);
  EXPECT_FALSE(list.Contains(3));
  EXPECT_FALSE(list.Contains(-1));
  EXPECT_FALSE(list.Contains(100));
}

TEST(FreeListTest, CountersTrackOperations) {
  FramePool list(8, 1);
  list.PushHead(0);
  list.PushTail(1);
  list.PushTail(2);
  list.Remove(1);
  EXPECT_EQ(list.total_head_pushes(), 1u);
  EXPECT_EQ(list.total_tail_pushes(), 2u);
  EXPECT_EQ(list.total_rescues(), 1u);
}

// Property sweep: random push/pop/remove sequences keep the intrusive list
// equal, element for element, to a reference deque.
class FreeListPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FreeListPropertyTest, MatchesReferenceModel) {
  const int kFrames = 32;
  FramePool list(kFrames, 1);
  std::vector<FrameId> model;  // front = head
  Rng rng(GetParam());
  std::vector<bool> linked(kFrames, false);

  for (int step = 0; step < 2000; ++step) {
    const uint64_t op = rng.NextBelow(4);
    const auto f = static_cast<FrameId>(rng.NextBelow(kFrames));
    switch (op) {
      case 0:
        if (!linked[f]) {
          list.PushHead(f);
          model.insert(model.begin(), f);
          linked[f] = true;
        }
        break;
      case 1:
        if (!linked[f]) {
          list.PushTail(f);
          model.push_back(f);
          linked[f] = true;
        }
        break;
      case 2: {
        const FrameId got = list.PopHead(0);
        if (model.empty()) {
          ASSERT_EQ(got, kNoFrame);
        } else {
          ASSERT_EQ(got, model.front());
          linked[model.front()] = false;
          model.erase(model.begin());
        }
        break;
      }
      case 3:
        if (linked[f]) {
          list.Remove(f);
          model.erase(std::find(model.begin(), model.end(), f));
          linked[f] = false;
        }
        break;
    }
    ASSERT_EQ(list.size(), static_cast<int64_t>(model.size()));
    ASSERT_EQ(list.ToVector(), model);
    for (FrameId i = 0; i < kFrames; ++i) {
      ASSERT_EQ(list.Contains(i), linked[static_cast<size_t>(i)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeListPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(FrameTableTest, ResetIdentityClearsEverything) {
  FrameTable frames(4);
  frames.set_owner(2, 1);
  frames.set_vpage(2, 99);
  frames.set_mapped(2, true);
  frames.set_dirty(2, true);
  frames.set_referenced(2, true);
  frames.set_contents_valid(2, true);
  frames.set_io_busy(2, true);
  frames.set_freed_by(2, FreedBy::kReleaser);
  frames.ResetIdentity(2);
  const Frame f = frames.at(2);
  EXPECT_EQ(f.owner, kNoAs);
  EXPECT_EQ(f.vpage, kNoVPage);
  EXPECT_FALSE(f.mapped);
  EXPECT_FALSE(f.dirty);
  EXPECT_FALSE(f.referenced);
  EXPECT_FALSE(f.contents_valid);
  EXPECT_FALSE(f.io_busy);
  EXPECT_EQ(f.freed_by, FreedBy::kNone);
}

TEST(PageTableTest, ResidentCountMaintained) {
  PageTable pt(10);
  EXPECT_EQ(pt.resident_count(), 0);
  pt.IncrementResident();
  pt.IncrementResident();
  EXPECT_EQ(pt.resident_count(), 2);
  pt.DecrementResident();
  EXPECT_EQ(pt.resident_count(), 1);
}

TEST(PageTableTest, FreshPteIsEmpty) {
  PageTable pt(4);
  const Pte& pte = pt.at(3);
  EXPECT_EQ(pte.frame, kNoFrame);
  EXPECT_FALSE(pte.resident);
  EXPECT_FALSE(pte.valid);
  EXPECT_EQ(pte.invalid_reason, InvalidReason::kNone);
  EXPECT_FALSE(pte.ever_materialized);
}

TEST(ResidencyBitmapTest, SetClearTest) {
  ResidencyBitmap bitmap(200);
  EXPECT_FALSE(bitmap.Test(100));
  bitmap.Set(100);
  EXPECT_TRUE(bitmap.Test(100));
  bitmap.Clear(100);
  EXPECT_FALSE(bitmap.Test(100));
}

TEST(ResidencyBitmapTest, SetAllThenClearRange) {
  ResidencyBitmap bitmap(130);
  bitmap.SetAll();
  EXPECT_TRUE(bitmap.Test(0));
  EXPECT_TRUE(bitmap.Test(129));
  bitmap.ClearRange(10, 20);
  EXPECT_TRUE(bitmap.Test(9));
  EXPECT_FALSE(bitmap.Test(10));
  EXPECT_FALSE(bitmap.Test(29));
  EXPECT_TRUE(bitmap.Test(30));
}

TEST(ResidencyBitmapTest, PopCountCountsSetBits) {
  ResidencyBitmap bitmap(100);
  EXPECT_EQ(bitmap.PopCount(), 0);
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(99);
  EXPECT_EQ(bitmap.PopCount(), 4);
}

TEST(ResidencyBitmapTest, HeaderWordsRoundTrip) {
  ResidencyBitmap bitmap(10);
  EXPECT_EQ(bitmap.current_usage(), 0);
  EXPECT_EQ(bitmap.upper_limit(), 0);
  bitmap.SetHeader(42, 4096);
  EXPECT_EQ(bitmap.current_usage(), 42);
  EXPECT_EQ(bitmap.upper_limit(), 4096);
}

TEST(ResidencyBitmapTest, SetRangeMatchesBitwiseSets) {
  // Exercise every head/tail alignment class against the one-bit reference.
  for (const auto& [first, count] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 64}, {0, 130}, {3, 5}, {60, 8}, {63, 1}, {64, 64}, {5, 194}, {190, 9}}) {
    ResidencyBitmap wordwise(199);
    ResidencyBitmap reference(199);
    wordwise.SetRange(first, count);
    for (int64_t p = first; p < first + count; ++p) {
      reference.Set(p);
    }
    for (VPage p = 0; p < 199; ++p) {
      EXPECT_EQ(wordwise.Test(p), reference.Test(p)) << "range [" << first << ", +" << count
                                                     << ") page " << p;
    }
    EXPECT_EQ(wordwise.PopCount(), count);
  }
}

TEST(ResidencyBitmapTest, ClearRangeMatchesBitwiseClears) {
  for (const auto& [first, count] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 64}, {0, 130}, {3, 5}, {60, 8}, {63, 1}, {64, 64}, {5, 194}, {190, 9}}) {
    ResidencyBitmap wordwise(199);
    ResidencyBitmap reference(199);
    wordwise.SetAll();
    reference.SetAll();
    wordwise.ClearRange(first, count);
    for (int64_t p = first; p < first + count; ++p) {
      reference.Clear(p);
    }
    for (VPage p = 0; p < 199; ++p) {
      EXPECT_EQ(wordwise.Test(p), reference.Test(p)) << "range [" << first << ", +" << count
                                                     << ") page " << p;
    }
    EXPECT_EQ(wordwise.PopCount(), reference.PopCount());
  }
}

TEST(ResidencyBitmapTest, FindFirstResidentScansWordWise) {
  ResidencyBitmap bitmap(512);
  EXPECT_EQ(bitmap.FindFirstResident(0, 512), kNoVPage);
  bitmap.Set(200);
  EXPECT_EQ(bitmap.FindFirstResident(0, 512), 200);
  EXPECT_EQ(bitmap.FindFirstResident(0, 200), kNoVPage);   // excludes the hit
  EXPECT_EQ(bitmap.FindFirstResident(200, 1), 200);
  EXPECT_EQ(bitmap.FindFirstResident(201, 311), kNoVPage);  // starts past it
  bitmap.Set(63);  // word-boundary bit, set after 200 but earlier in the scan
  EXPECT_EQ(bitmap.FindFirstResident(0, 512), 63);
  EXPECT_EQ(bitmap.FindFirstResident(64, 448), 200);
}

TEST(ResidencyBitmapTest, CountRangeMatchesMaskedPopCount) {
  ResidencyBitmap bitmap(300);
  for (VPage p : {0, 1, 63, 64, 65, 128, 250, 299}) {
    bitmap.Set(p);
  }
  EXPECT_EQ(bitmap.CountRange(0, 300), 8);
  EXPECT_EQ(bitmap.CountRange(0, 64), 3);    // 0, 1, 63
  EXPECT_EQ(bitmap.CountRange(64, 2), 2);    // 64, 65
  EXPECT_EQ(bitmap.CountRange(66, 62), 0);   // [66, 128): stops short of 128
  EXPECT_EQ(bitmap.CountRange(66, 63), 1);   // [66, 129): includes 128
  EXPECT_EQ(bitmap.CountRange(129, 120), 0);
  EXPECT_EQ(bitmap.CountRange(299, 1), 1);
}

TEST(ResidencyBitmapTest, WordBoundaryBitsIndependent) {
  ResidencyBitmap bitmap(256);
  for (VPage p : {62, 63, 64, 65, 127, 128, 191, 192}) {
    bitmap.Set(p);
  }
  EXPECT_FALSE(bitmap.Test(61));
  EXPECT_TRUE(bitmap.Test(62));
  EXPECT_TRUE(bitmap.Test(64));
  EXPECT_FALSE(bitmap.Test(66));
  EXPECT_EQ(bitmap.PopCount(), 8);
}

}  // namespace
}  // namespace tmh
