//===- tests/core/FreeListCacheTest.cpp - LRU free-list cache tests -------===//

#include "core/FreeListCache.h"

#include "support/Random.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

#include <set>

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

std::vector<SuperblockId> insertOk(FreeListCache &C, SuperblockId Id,
                                   uint32_t Size) {
  std::vector<SuperblockId> Evicted;
  EXPECT_TRUE(C.insert(Id, Size, 1.7, Evicted));
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
  return Evicted;
}

} // namespace

TEST(FreeListCacheTest, EmptyState) {
  FreeListCache C(1000, false);
  EXPECT_EQ(C.capacity(), 1000u);
  EXPECT_EQ(C.occupiedBytes(), 0u);
  EXPECT_EQ(C.residentCount(), 0u);
  EXPECT_FALSE(C.contains(3));
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
}

TEST(FreeListCacheTest, InsertAndContains) {
  FreeListCache C(1000, false);
  insertOk(C, 5, 300);
  EXPECT_TRUE(C.contains(5));
  EXPECT_EQ(C.occupiedBytes(), 300u);
  EXPECT_EQ(C.residentCount(), 1u);
}

TEST(FreeListCacheTest, LruEvictionOrder) {
  FreeListCache C(300, false);
  insertOk(C, 0, 100);
  insertOk(C, 1, 100);
  insertOk(C, 2, 100);
  C.touch(0); // 0 becomes MRU; LRU order is now 1, 2, 0.
  const auto Evicted = insertOk(C, 3, 100);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0], 1u); // Least recently used, NOT oldest-inserted.
  EXPECT_TRUE(C.contains(0));
}

TEST(FreeListCacheTest, RepeatedTouchKeepsBlockAlive) {
  FreeListCache C(300, false);
  insertOk(C, 0, 100);
  insertOk(C, 1, 100);
  insertOk(C, 2, 100);
  for (SuperblockId Fresh = 3; Fresh < 10; ++Fresh) {
    C.touch(0);
    insertOk(C, Fresh, 100);
    EXPECT_TRUE(C.contains(0)) << "touched block evicted";
  }
}

TEST(FreeListCacheTest, CoalescingMakesSpaceReusable) {
  FreeListCache C(300, false);
  insertOk(C, 0, 100);
  insertOk(C, 1, 100);
  insertOk(C, 2, 100);
  // Evicting 0 then 1 (adjacent) must coalesce into one 200-byte hole.
  auto Evicted = insertOk(C, 3, 200); // Needs both victims.
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_TRUE(C.contains(3));
  EXPECT_TRUE(C.contains(2));
}

TEST(FreeListCacheTest, FragmentationStallDetected) {
  FreeListCache C(300, false);
  insertOk(C, 0, 100); // [0,100)
  insertOk(C, 1, 100); // [100,200)
  insertOk(C, 2, 100); // [200,300)
  // Free the outer two by LRU pressure in a controlled way: touch 1 so
  // 0 then 2 are the LRU victims for a 150-byte insert. After evicting 0
  // there are 100 free at the bottom; not enough; evict 2: free = 200
  // in TWO non-adjacent holes of 100 -- a fragmentation stall for 150.
  C.touch(1);
  std::vector<SuperblockId> Evicted;
  ASSERT_TRUE(C.insert(3, 150, 1.7, Evicted));
  EXPECT_GE(C.stats().FragmentationStalls, 1u);
  // Without compaction it must evict block 1 as well to fit.
  EXPECT_EQ(Evicted.size(), 3u);
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
}

TEST(FreeListCacheTest, CompactionAvoidsExtraEvictions) {
  FreeListCache C(300, true);
  insertOk(C, 0, 100);
  insertOk(C, 1, 100);
  insertOk(C, 2, 100);
  C.touch(1);
  std::vector<SuperblockId> Evicted;
  ASSERT_TRUE(C.insert(3, 150, 2.0, Evicted));
  // Compaction slides block 1 down and fits the new block: only the two
  // LRU victims go, block 1 survives.
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_TRUE(C.contains(1));
  EXPECT_GE(C.stats().Compactions, 1u);
  EXPECT_GT(C.stats().BytesMoved, 0u);
  EXPECT_GT(C.stats().LinkFixups, 0u);
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
}

TEST(FreeListCacheTest, TooBigRejected) {
  FreeListCache C(100, false);
  std::vector<SuperblockId> Evicted;
  EXPECT_FALSE(C.insert(0, 101, 1.7, Evicted));
  EXPECT_TRUE(Evicted.empty());
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
}

TEST(FreeListCacheTest, ExactCapacityFits) {
  FreeListCache C(100, false);
  insertOk(C, 0, 100);
  EXPECT_EQ(C.occupiedBytes(), 100u);
}

TEST(FreeListCacheTest, FragmentationStatBetweenZeroAndOne) {
  FreeListCache C(1000, false);
  Rng R(3);
  for (SuperblockId Id = 0; Id < 300; ++Id) {
    if (C.contains(Id)) {
      C.touch(Id);
      continue;
    }
    std::vector<SuperblockId> Evicted;
    ASSERT_TRUE(C.insert(Id, static_cast<uint32_t>(R.nextRange(20, 200)),
                         1.7, Evicted));
  }
  const double F = C.stats().meanFragmentation();
  EXPECT_GE(F, 0.0);
  EXPECT_LE(F, 1.0);
  EXPECT_GT(C.stats().Inserts, 0u);
}

TEST(FreeListCacheTest, RandomChurnKeepsInvariants) {
  for (const bool Compaction : {false, true}) {
    Rng R(Compaction ? 11u : 12u);
    FreeListCache C(4096, Compaction);
    std::set<SuperblockId> Resident;
    for (int Step = 0; Step < 4000; ++Step) {
      const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(200));
      if (C.contains(Id)) {
        C.touch(Id);
        continue;
      }
      std::vector<SuperblockId> Evicted;
      const uint32_t Size = static_cast<uint32_t>(R.nextRange(16, 900));
      ASSERT_TRUE(C.insert(Id, Size, 1.7, Evicted));
      Resident.insert(Id);
      for (SuperblockId V : Evicted) {
        ASSERT_TRUE(Resident.count(V));
        Resident.erase(V);
      }
      if (Step % 64 == 0) {
        ASSERT_TRUE(auditsClean(check::auditFreeList(C))) << "step " << Step;
      }
      ASSERT_EQ(C.residentCount(), Resident.size());
      ASSERT_LE(C.occupiedBytes(), C.capacity());
    }
    // LRU with variable sizes on a free list must hit fragmentation
    // stalls; with compaction enabled, compactions must have occurred.
    EXPECT_GT(C.stats().FragmentationStalls, 0u);
    if (Compaction) {
      EXPECT_GT(C.stats().Compactions, 0u);
    }
  }
}

TEST(FreeListCacheTest, CompactionPreservesResidency) {
  FreeListCache C(2048, true);
  Rng R(13);
  std::set<SuperblockId> Resident;
  for (int Step = 0; Step < 2000; ++Step) {
    const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(100));
    if (C.contains(Id)) {
      C.touch(Id);
      continue;
    }
    std::vector<SuperblockId> Evicted;
    ASSERT_TRUE(C.insert(Id, static_cast<uint32_t>(R.nextRange(30, 500)),
                         1.7, Evicted));
    Resident.insert(Id);
    for (SuperblockId V : Evicted)
      Resident.erase(V);
    for (SuperblockId Live : Resident)
      ASSERT_TRUE(C.contains(Live));
  }
  EXPECT_TRUE(auditsClean(check::auditFreeList(C)));
}
