// FloatArena: the mmap-backed storage substrate behind the residency
// backing stores. These tests pin the contract the simulation relies
// on — zero-filled buffers, slot recycling through the free lists, page
// alignment, and Buffer move semantics.
#include "pim/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace wavepim::pim {
namespace {

TEST(FloatArena, BuffersArriveZeroFilledAndPageAligned) {
  auto& arena = FloatArena::instance();
  auto buf = arena.allocate(1024);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 1024u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], 0.0f) << "word " << i;
  }
  if (buf.from_arena()) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096u, 0u);
  }
}

TEST(FloatArena, RecyclesSlotsAndClearsThemForReuse) {
  auto& arena = FloatArena::instance();
  if (!arena.mapped()) {
    GTEST_SKIP() << "no mmap reservation on this platform";
  }
  const auto before = arena.stats();
  float* first = nullptr;
  {
    auto buf = arena.allocate(2048);
    ASSERT_TRUE(buf.from_arena());
    first = buf.data();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = 1.5f;  // dirty the slot so reuse must clear it
    }
  }
  auto again = arena.allocate(2048);
  ASSERT_TRUE(again.from_arena());
  EXPECT_EQ(again.data(), first) << "same-size slot should be recycled";
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_EQ(again[i], 0.0f) << "recycled word " << i << " not cleared";
  }
  const auto after = arena.stats();
  EXPECT_GT(after.recycled, before.recycled);
}

TEST(FloatArena, BufferMoveTransfersOwnership) {
  auto& arena = FloatArena::instance();
  auto a = arena.allocate(256);
  float* data = a.data();
  a[3] = 7.0f;

  FloatArena::Buffer b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), 256u);
  EXPECT_EQ(b[3], 7.0f);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);

  FloatArena::Buffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), data);
  EXPECT_EQ(b.data(), nullptr);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace wavepim::pim
