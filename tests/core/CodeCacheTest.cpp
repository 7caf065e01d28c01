//===- tests/core/CodeCacheTest.cpp - Placement engine tests ---------------===//

#include "core/CodeCache.h"

#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

/// Inserts \p Id of \p Size at \p Quantum, returning the victims.
std::vector<CodeCache::Resident> insert(CodeCache &C, SuperblockId Id,
                                        uint32_t Size, uint64_t Quantum) {
  std::vector<CodeCache::Resident> Evicted;
  const CodeCache::PrepareOutcome Prep =
      C.prepareInsert(Size, Quantum, Evicted);
  EXPECT_TRUE(Prep.CanInsert);
  C.commitInsert(Id, Size);
  return Evicted;
}

std::vector<SuperblockId> residentIds(const CodeCache &C) {
  std::vector<SuperblockId> Ids;
  C.forEachResident(
      [&](const CodeCache::Resident &R) { Ids.push_back(R.Id); });
  return Ids;
}

} // namespace

TEST(CodeCacheTest, EmptyCacheState) {
  CodeCache C(1000);
  EXPECT_EQ(C.capacity(), 1000u);
  EXPECT_EQ(C.occupiedBytes(), 0u);
  EXPECT_EQ(C.residentCount(), 0u);
  EXPECT_TRUE(C.empty());
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, SequentialPlacement) {
  CodeCache C(1000);
  insert(C, 0, 100, 1);
  insert(C, 1, 200, 1);
  EXPECT_EQ(C.startOf(0), 0u);
  EXPECT_EQ(C.startOf(1), 100u);
  EXPECT_EQ(C.occupiedBytes(), 300u);
  EXPECT_EQ(C.sizeOf(1), 200u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, FineQuantumEvictsMinimum) {
  CodeCache C(300);
  insert(C, 0, 100, 1);
  insert(C, 1, 100, 1);
  insert(C, 2, 100, 1);
  // Cache full; a fourth 100-byte block should evict exactly block 0.
  const auto Evicted = insert(C, 3, 100, 1);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_TRUE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, FifoOrderPreserved) {
  CodeCache C(300);
  insert(C, 5, 100, 1);
  insert(C, 9, 100, 1);
  insert(C, 2, 100, 1);
  EXPECT_EQ(residentIds(C), (std::vector<SuperblockId>{5, 9, 2}));
  insert(C, 7, 100, 1); // Evicts 5.
  EXPECT_EQ(residentIds(C), (std::vector<SuperblockId>{9, 2, 7}));
}

TEST(CodeCacheTest, FlushQuantumEvictsEverything) {
  CodeCache C(300);
  insert(C, 0, 100, 300);
  insert(C, 1, 100, 300);
  insert(C, 2, 100, 300);
  const auto Evicted = insert(C, 3, 50, 300);
  EXPECT_EQ(Evicted.size(), 3u); // Whole-cache flush.
  EXPECT_EQ(C.residentCount(), 1u);
  EXPECT_TRUE(C.contains(3));
  EXPECT_EQ(C.startOf(3), 0u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, TwoUnitQuantumFlushesHalf) {
  CodeCache C(400);
  // Unit 0 = [0, 200), unit 1 = [200, 400).
  insert(C, 0, 100, 200);
  insert(C, 1, 100, 200);
  insert(C, 2, 100, 200);
  insert(C, 3, 100, 200);
  // Cache full. Inserting evicts unit 0 entirely (blocks 0 and 1).
  const auto Evicted = insert(C, 4, 100, 200);
  ASSERT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_EQ(Evicted[1].Id, 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_EQ(C.startOf(4), 0u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, UnitFlushLeavesRoomForSeveralInserts) {
  CodeCache C(400);
  for (SuperblockId Id = 0; Id < 4; ++Id)
    insert(C, Id, 100, 200);
  // One unit flush (2 blocks out) leaves room for two 100-byte inserts:
  // the second one must not evict.
  auto Evicted = insert(C, 4, 100, 200);
  EXPECT_EQ(Evicted.size(), 2u);
  Evicted = insert(C, 5, 100, 200);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, StraddlingBlockEvictedWithItsUnit) {
  CodeCache C(100);
  // Quantum 50: units [0,50) and [50,100).
  insert(C, 0, 30, 50); // [0, 30)  - unit 0.
  insert(C, 1, 30, 50); // [30, 60) - straddles into unit 1.
  insert(C, 2, 30, 50); // [60, 90) - unit 1.
  // Insert 30 more: tail waste 10, wrap; flushing unit 0 must take the
  // straddler (block 1) with it.
  const auto Evicted = insert(C, 3, 30, 50);
  ASSERT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_EQ(Evicted[1].Id, 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_EQ(C.startOf(3), 0u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, WrapWasteReported) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  auto P1 = C.prepareInsert(60, 1, Evicted);
  EXPECT_EQ(P1.WastedBytes, 0u);
  C.commitInsert(0, 60);
  // 40 bytes free at the tail; a 50-byte block wraps, wasting them.
  auto P2 = C.prepareInsert(50, 1, Evicted);
  EXPECT_EQ(P2.WastedBytes, 40u);
  C.commitInsert(1, 50);
  EXPECT_EQ(C.startOf(1), 0u);
  EXPECT_FALSE(C.contains(0)); // Evicted to make room at offset 0.
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, ExactFitNoWaste) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  auto P = C.prepareInsert(100, 1, Evicted);
  EXPECT_TRUE(P.CanInsert);
  EXPECT_EQ(P.WastedBytes, 0u);
  C.commitInsert(0, 100);
  EXPECT_EQ(C.occupiedBytes(), 100u);
  // Next insert wraps cleanly to offset 0 after evicting block 0.
  auto P2 = C.prepareInsert(10, 1, Evicted);
  EXPECT_TRUE(P2.CanInsert);
  EXPECT_EQ(P2.WastedBytes, 0u);
  EXPECT_EQ(Evicted.size(), 1u);
  C.commitInsert(1, 10);
  EXPECT_EQ(C.startOf(1), 0u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, TooBigBlockRejected) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(101, 1, Evicted);
  EXPECT_FALSE(P.CanInsert);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, CapacitySizedBlockAccepted) {
  CodeCache C(100);
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(100, 1, Evicted);
  EXPECT_TRUE(P.CanInsert);
  C.commitInsert(0, 100);
  EXPECT_TRUE(C.contains(0));
}

TEST(CodeCacheTest, BlockLargerThanUnitSpansUnits) {
  CodeCache C(100);
  // Quantum 25, but a 60-byte block must still be placeable.
  insert(C, 0, 60, 25);
  insert(C, 1, 30, 25);
  // Inserting another 60 forces flushing multiple units.
  const auto Evicted = insert(C, 2, 60, 25);
  EXPECT_GE(Evicted.size(), 1u);
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, UnitsFlushedCounted) {
  CodeCache C(400);
  for (SuperblockId Id = 0; Id < 4; ++Id)
    insert(C, Id, 100, 100); // 4 units, one block each.
  std::vector<CodeCache::Resident> Evicted;
  const auto P = C.prepareInsert(200, 100, Evicted);
  EXPECT_TRUE(P.CanInsert);
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(P.UnitsFlushed, 2u);
  C.commitInsert(9, 200);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, FlushAllEmptiesAndResets) {
  CodeCache C(300);
  insert(C, 0, 120, 1);
  insert(C, 1, 120, 1);
  std::vector<CodeCache::Resident> Evicted;
  C.flushAll(Evicted);
  EXPECT_EQ(Evicted.size(), 2u);
  EXPECT_EQ(Evicted[0].Id, 0u);
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(C.occupiedBytes(), 0u);
  // Placement restarts at 0.
  insert(C, 2, 10, 1);
  EXPECT_EQ(C.startOf(2), 0u);
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, ReinsertionAfterEviction) {
  CodeCache C(200);
  insert(C, 0, 100, 1);
  insert(C, 1, 100, 1);
  insert(C, 2, 100, 1); // Evicts 0.
  EXPECT_FALSE(C.contains(0));
  insert(C, 0, 100, 1); // Reinsert 0; evicts 1.
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(auditsClean(check::auditCache(C)));
}

TEST(CodeCacheTest, UnitOfStatic) {
  EXPECT_EQ(CodeCache::unitOf(0, 100), 0u);
  EXPECT_EQ(CodeCache::unitOf(99, 100), 0u);
  EXPECT_EQ(CodeCache::unitOf(100, 100), 1u);
  EXPECT_EQ(CodeCache::unitOf(12345, 1), 12345u);
}

TEST(CodeCacheTest, FrontIsOldest) {
  CodeCache C(300);
  insert(C, 3, 100, 1);
  insert(C, 8, 100, 1);
  EXPECT_EQ(C.front().Id, 3u);
}
