#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "util/rng.h"

namespace blameit::util {

/// Reaches into a table to start it near the epoch wraparound, which would
/// otherwise take 2^32 clears.
struct FlatTableTestPeer {
  template <typename V>
  static void set_epoch(FlatTable<V>& table, std::uint32_t epoch) {
    table.epoch_ = epoch;
  }
};

namespace {

constexpr std::uint32_t kAbsent = FlatTable<int>::kAbsent;

TEST(FlatTable, FindOnEmptyTableIsAbsent) {
  const FlatTable<int> table;
  EXPECT_EQ(table.find(0), kAbsent);
  EXPECT_EQ(table.find(42), kAbsent);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.values().empty());
}

TEST(FlatTable, InsertThenFind) {
  FlatTable<int> table;
  const auto [a, a_new] = table.insert(7);
  EXPECT_TRUE(a_new);
  EXPECT_EQ(a, 0u);
  table[a] = 70;
  const auto [b, b_new] = table.insert(9);
  EXPECT_TRUE(b_new);
  EXPECT_EQ(b, 1u);
  table[b] = 90;

  const auto [again, again_new] = table.insert(7);
  EXPECT_FALSE(again_new);
  EXPECT_EQ(again, a);
  EXPECT_EQ(table[again], 70);

  const FlatTable<int>& view = table;
  EXPECT_EQ(view.find(7), a);
  EXPECT_EQ(view.find(9), b);
  EXPECT_EQ(view[view.find(9)], 90);
  EXPECT_EQ(view.find(8), kAbsent);  // absent key in a non-empty table
  EXPECT_EQ(view.size(), 2u);
  ASSERT_EQ(view.values().size(), 2u);
  EXPECT_EQ(view.values()[0], 70);  // insertion order
  EXPECT_EQ(view.values()[1], 90);
}

TEST(FlatTable, GrowKeepsEveryPosition) {
  // Far past the first 64-slot array, with keys that share their low bits
  // so probe chains collide: every key keeps the position it was given.
  FlatTable<std::uint64_t> table;
  constexpr std::uint64_t kKeys = 5000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t key = i << 32;
    const auto [pos, added] = table.insert(key);
    ASSERT_TRUE(added);
    ASSERT_EQ(pos, i);
    table[pos] = key;
  }
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint32_t pos = table.find(i << 32);
    ASSERT_EQ(pos, i);
    EXPECT_EQ(table[pos], i << 32);
  }
  EXPECT_EQ(table.find((kKeys << 32) + 1), kAbsent);
}

TEST(FlatTable, ClearForgetsKeysAndIsReusable) {
  FlatTable<int> table;
  for (std::uint64_t k = 0; k < 200; ++k) table[table.insert(k).first] = 1;
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(table.find(k), kAbsent) << k;
  }
  // A reused table hands out positions from 0 again, with fresh values.
  const auto [pos, added] = table.insert(150);
  EXPECT_TRUE(added);
  EXPECT_EQ(pos, 0u);
  EXPECT_EQ(table[pos], 0);
  EXPECT_EQ(table.find(3), kAbsent);
}

TEST(FlatTable, ReserveAllocatesOnceAndKeepsKeys) {
  FlatTable<std::uint64_t> table;
  EXPECT_EQ(table.memory_bytes(), 0u);
  table.reserve(0);
  EXPECT_EQ(table.memory_bytes(), 0u);
  table.reserve(1);  // a one-key table needs two slots, not a 64-slot grow
  EXPECT_EQ(table.memory_bytes(), sizeof(std::uint64_t) + 2 * 16);
  for (std::uint64_t k = 0; k < 10; ++k) table[table.insert(k).first] = k;

  // Reserving on a filled table rehashes the live keys in place.
  table.reserve(1000);
  const std::size_t reserved = table.memory_bytes();
  EXPECT_EQ(reserved, 1000 * sizeof(std::uint64_t) + 2048 * 16);
  for (std::uint64_t k = 0; k < 10; ++k) ASSERT_EQ(table.find(k), k);
  for (std::uint64_t k = 10; k < 1000; ++k) {
    const auto [pos, added] = table.insert(k << 20);
    ASSERT_TRUE(added);
    table[pos] = k;
  }
  EXPECT_EQ(table.memory_bytes(), reserved);  // no insert allocated
  for (std::uint64_t k = 10; k < 1000; ++k) {
    ASSERT_EQ(table[table.find(k << 20)], k);
  }
  table.reserve(500);  // never shrinks
  EXPECT_EQ(table.memory_bytes(), reserved);
}

TEST(FlatTable, EpochWraparoundResetsStaleSlots) {
  // Slots of earlier fills stay stamped with their fill's epoch. When the
  // 32-bit epoch wraps back to 1, every slot must be reset, or the keys of
  // the fill stamped 1 would read as present again.
  FlatTable<int> table;
  for (std::uint64_t k = 0; k < 20; ++k) table[table.insert(k).first] = 1;
  table.clear();
  FlatTableTestPeer::set_epoch(table, ~std::uint32_t{0} - 1);
  for (std::uint64_t k = 100; k < 120; ++k) table[table.insert(k).first] = 2;
  table.clear();  // epoch 2^32 - 1
  for (std::uint64_t k = 200; k < 220; ++k) table[table.insert(k).first] = 3;
  table.clear();  // wraps: epoch 1 again
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_EQ(table.find(k), kAbsent) << k;
  }
  const auto [pos, added] = table.insert(5);
  EXPECT_TRUE(added);
  EXPECT_EQ(pos, 0u);
  EXPECT_EQ(table[pos], 0);
  EXPECT_EQ(table.find(6), kAbsent);
}

TEST(FlatTable, MatchesOrderedMapOverRandomFills) {
  Rng rng{17};
  FlatTable<std::uint64_t> table;
  for (int fill = 0; fill < 50; ++fill) {
    std::map<std::uint64_t, std::uint32_t> want;  // key -> position
    const auto n = rng.uniform_int(0, 3000);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng() % 4096 * 0x10000;
      const auto [pos, added] = table.insert(key);
      const auto [it, fresh] = want.try_emplace(key, pos);
      ASSERT_EQ(added, fresh);
      ASSERT_EQ(pos, it->second);
      table[pos] = key;
    }
    ASSERT_EQ(table.size(), want.size());
    for (const auto& [key, pos] : want) {
      ASSERT_EQ(table.find(key), pos);
      ASSERT_EQ(table[pos], key);
    }
    table.clear();
  }
}

}  // namespace
}  // namespace blameit::util
