// Boot-state differential tests for the per-frame metadata.
//
// A booted machine's FramePool is built from all-zero link arrays (links are
// stored relative to each frame's ascending neighbour) plus O(nodes) end-link
// fix-ups, and its FrameTable is all-zero storage with identities stored plus
// one. These tests hold both to what they replace: the all-free pool must be
// indistinguishable from an empty pool filled by ascending PushTail, through
// a long seeded mix of every pool operation, and a fresh table must read as
// "no identity, all planes clear" on every frame.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/vm/frame_pool.h"
#include "src/vm/frame_table.h"

namespace tmh {
namespace {

struct Shape {
  int64_t frames;
  int nodes;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.frames << " frames / " << shape.nodes << " nodes";
}

// 3/8 leaves trailing nodes with no frames; 4096/64 is the node cap.
constexpr Shape kShapes[] = {{1, 1}, {10, 4}, {3, 8}, {48, 6}, {1000, 7}, {4096, 64}};

void ExpectSamePools(const FramePool& booted, const FramePool& filled, int64_t frames) {
  ASSERT_EQ(booted.num_nodes(), filled.num_nodes());
  EXPECT_EQ(booted.size(), filled.size());
  EXPECT_EQ(booted.ToVector(), filled.ToVector());
  for (int node = 0; node < booted.num_nodes(); ++node) {
    EXPECT_EQ(booted.node_size(node), filled.node_size(node)) << "node " << node;
    EXPECT_EQ(booted.NodeToVector(node), filled.NodeToVector(node)) << "node " << node;
  }
  for (FrameId f = -1; f <= static_cast<FrameId>(frames); ++f) {
    EXPECT_EQ(booted.Contains(f), filled.Contains(f)) << "frame " << f;
  }
  EXPECT_EQ(booted.total_head_pushes(), filled.total_head_pushes());
  EXPECT_EQ(booted.total_tail_pushes(), filled.total_tail_pushes());
  EXPECT_EQ(booted.total_rescues(), filled.total_rescues());
}

class FramePoolBootOrderTest : public ::testing::TestWithParam<Shape> {};

TEST_P(FramePoolBootOrderTest, AllFreeEqualsAscendingTailPushesThroughOpMix) {
  const Shape shape = GetParam();
  FramePool booted(shape.frames, shape.nodes, FramePool::AllFree{});
  FramePool filled(shape.frames, shape.nodes);
  for (FrameId f = 0; f < shape.frames; ++f) {
    filled.PushTail(f);
  }
  ExpectSamePools(booted, filled, shape.frames);
  for (int node = 0; node < booted.num_nodes(); ++node) {
    if (booted.node_size(node) > 0) {
      EXPECT_EQ(booted.head(node), booted.NodeBegin(node)) << "node " << node;
    } else {
      EXPECT_EQ(booted.head(node), kNoFrame) << "node " << node;
    }
  }

  // One seeded mix drives both pools. Frames popped off are held outside and
  // pushed back at either end; Remove takes a linked frame out of mid-list.
  std::mt19937_64 rng(static_cast<uint64_t>(shape.frames) * 131 +
                      static_cast<uint64_t>(shape.nodes));
  std::vector<FrameId> held;
  const auto below = [&rng](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  for (int op = 1; op <= 20'000; ++op) {
    switch (below(7)) {
      case 0: {
        const int home = static_cast<int>(below(static_cast<uint64_t>(booted.num_nodes())));
        const FrameId f = booted.PopHead(home);
        ASSERT_EQ(f, filled.PopHead(home)) << "op " << op;
        if (f != kNoFrame) held.push_back(f);
        break;
      }
      case 1: {
        const int node = static_cast<int>(below(static_cast<uint64_t>(booted.num_nodes())));
        const FrameId f = booted.PopHeadFromNode(node);
        ASSERT_EQ(f, filled.PopHeadFromNode(node)) << "op " << op;
        if (f != kNoFrame) held.push_back(f);
        break;
      }
      case 2:
      case 3:
      case 4:
      case 5: {
        if (held.empty()) break;
        const auto i = static_cast<size_t>(below(held.size()));
        const FrameId f = held[i];
        held[i] = held.back();
        held.pop_back();
        if (below(2) == 0) {
          booted.PushHead(f);
          filled.PushHead(f);
        } else {
          booted.PushTail(f);
          filled.PushTail(f);
        }
        break;
      }
      case 6: {
        if (booted.empty()) break;
        // The first linked frame at or after a random start, wrapping.
        FrameId f = static_cast<FrameId>(below(static_cast<uint64_t>(shape.frames)));
        while (!booted.Contains(f)) {
          f = static_cast<FrameId>((f + 1) % shape.frames);
        }
        ASSERT_TRUE(filled.Contains(f)) << "op " << op;
        booted.Remove(f);
        filled.Remove(f);
        held.push_back(f);
        break;
      }
    }
    if (op % 256 == 0) {
      ExpectSamePools(booted, filled, shape.frames);
      if (HasFailure()) FAIL() << "pools diverged by op " << op;
    }
  }
  ExpectSamePools(booted, filled, shape.frames);
  EXPECT_EQ(booted.size() + static_cast<int64_t>(held.size()), shape.frames);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FramePoolBootOrderTest, ::testing::ValuesIn(kShapes),
                         [](const ::testing::TestParamInfo<Shape>& shape) {
                           return std::to_string(shape.param.frames) + "frames" +
                                  std::to_string(shape.param.nodes) + "nodes";
                         });

// Each node's high-water mark starts at NodeBegin on a booted pool and at
// NodeEnd on an empty one. Pops and removes raise it to one past the frame;
// pushes never lower it. On the booted pool every frame at or above its
// node's mark is still linked, which is what lets the daemon's clock pass
// stop loading there.
class FramePoolHighWaterTest : public ::testing::TestWithParam<Shape> {};

TEST_P(FramePoolHighWaterTest, MarkFollowsPopsAndRemovesNotPushes) {
  const Shape shape = GetParam();
  FramePool booted(shape.frames, shape.nodes, FramePool::AllFree{});
  const FramePool empty(shape.frames, shape.nodes);
  std::vector<FrameId> want;  // the reference mark of each node
  for (int node = 0; node < booted.num_nodes(); ++node) {
    want.push_back(booted.NodeBegin(node));
    EXPECT_EQ(booted.high_water(node), booted.NodeBegin(node)) << "node " << node;
    EXPECT_EQ(empty.high_water(node), empty.NodeEnd(node)) << "node " << node;
  }
  const auto took = [&](FrameId f) {
    auto& mark = want[static_cast<size_t>(booted.NodeOf(f))];
    mark = std::max(mark, f + 1);
  };
  const auto expect_marks = [&](int op) {
    for (int node = 0; node < booted.num_nodes(); ++node) {
      ASSERT_EQ(booted.high_water(node), want[static_cast<size_t>(node)])
          << "node " << node << " after op " << op;
      for (FrameId f = booted.high_water(node); f < booted.NodeEnd(node); ++f) {
        ASSERT_TRUE(booted.Contains(f)) << "frame " << f << " after op " << op;
      }
    }
  };

  std::mt19937_64 rng(static_cast<uint64_t>(shape.frames) * 137 +
                      static_cast<uint64_t>(shape.nodes));
  std::vector<FrameId> held;
  const auto below = [&rng](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  for (int op = 1; op <= 5'000; ++op) {
    switch (below(5)) {
      case 0: {
        const FrameId f =
            booted.PopHead(static_cast<int>(below(static_cast<uint64_t>(booted.num_nodes()))));
        if (f != kNoFrame) {
          took(f);
          held.push_back(f);
        }
        break;
      }
      case 1: {
        const FrameId f = booted.PopHeadFromNode(
            static_cast<int>(below(static_cast<uint64_t>(booted.num_nodes()))));
        if (f != kNoFrame) {
          took(f);
          held.push_back(f);
        }
        break;
      }
      case 2:
      case 3: {
        if (held.empty()) break;
        const auto i = static_cast<size_t>(below(held.size()));
        const FrameId f = held[i];
        held[i] = held.back();
        held.pop_back();
        if (below(2) == 0) {
          booted.PushHead(f);
        } else {
          booted.PushTail(f);
        }
        break;
      }
      case 4: {
        if (booted.empty()) break;
        FrameId f = static_cast<FrameId>(below(static_cast<uint64_t>(shape.frames)));
        while (!booted.Contains(f)) {
          f = static_cast<FrameId>((f + 1) % shape.frames);
        }
        booted.Remove(f);
        took(f);
        held.push_back(f);
        break;
      }
    }
    expect_marks(op);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FramePoolHighWaterTest, ::testing::ValuesIn(kShapes),
                         [](const ::testing::TestParamInfo<Shape>& shape) {
                           return std::to_string(shape.param.frames) + "frames" +
                                  std::to_string(shape.param.nodes) + "nodes";
                         });

// A fresh table reads as "no identity, nothing set" on every frame. 1000
// frames keep every array on the heap; 2^20 frames put the identity arrays
// (and freed_by) on the mmap path.
TEST(FrameTableBootTest, FreshTableHasNoIdentityAndClearPlanes) {
  for (const int64_t frames : {int64_t{1000}, int64_t{1} << 20}) {
    const FrameTable table(frames);
    int64_t mismatches = 0;
    for (FrameId f = 0; f < frames; ++f) {
      const Frame fr = table.at(f);
      mismatches += static_cast<int64_t>(
          fr.owner != kNoAs || fr.vpage != kNoVPage || fr.freed_by != FreedBy::kNone ||
          fr.mapped || fr.dirty || fr.referenced || fr.contents_valid || fr.io_busy);
    }
    EXPECT_EQ(mismatches, 0) << frames << " frames";
    for (size_t w = 0; w < table.num_words(); ++w) {
      ASSERT_EQ(table.mapped_words()[w] | table.dirty_words()[w] |
                    table.referenced_words()[w] | table.io_busy_words()[w],
                0u)
          << "word " << w << " of " << frames << " frames";
    }
    EXPECT_TRUE(table.IsPage(static_cast<FrameId>(frames - 1), kNoAs, kNoVPage));
  }
}

// Owner 0 and vpage 0 are the values the +1 encoding stores as 1; kNoAs and
// kNoVPage the ones it stores as 0; the largest vpage wraps the encoding.
TEST(FrameTableBootTest, IdentityRoundTripsThroughSetAndReset) {
  FrameTable table(8);
  table.set_owner(3, 0);
  table.set_vpage(3, 0);
  EXPECT_EQ(table.owner(3), 0);
  EXPECT_EQ(table.vpage(3), 0);
  EXPECT_TRUE(table.IsPage(3, 0, 0));
  EXPECT_FALSE(table.IsPage(3, kNoAs, kNoVPage));
  EXPECT_FALSE(table.IsPage(3, 0, 1));
  EXPECT_TRUE(table.IsPage(2, kNoAs, kNoVPage));  // a neighbour stays unowned

  table.ResetIdentity(3);
  EXPECT_EQ(table.owner(3), kNoAs);
  EXPECT_EQ(table.vpage(3), kNoVPage);
  EXPECT_TRUE(table.IsPage(3, kNoAs, kNoVPage));
  EXPECT_FALSE(table.IsPage(3, 0, 0));

  const AsId max_as = std::numeric_limits<AsId>::max();
  const VPage max_vpage = std::numeric_limits<VPage>::max();
  table.set_owner(5, max_as);
  table.set_vpage(5, max_vpage);
  EXPECT_EQ(table.owner(5), max_as);
  EXPECT_EQ(table.vpage(5), max_vpage);
  table.set_owner(5, kNoAs);
  table.set_vpage(5, kNoVPage);
  EXPECT_TRUE(table.IsPage(5, kNoAs, kNoVPage));
}

}  // namespace
}  // namespace tmh
