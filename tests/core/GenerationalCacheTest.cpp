//===- tests/core/GenerationalCacheTest.cpp - Generational cache tests ---===//

#include "core/GenerationalCache.h"

#include "support/Random.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

SuperblockRecord rec(SuperblockId Id, uint32_t Size) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  return R;
}

GenerationalConfig smallConfig() {
  GenerationalConfig C;
  C.CapacityBytes = 1000;
  C.TenuredFraction = 0.5;
  C.PromoteAfterInserts = 2;
  return C;
}

} // namespace

TEST(GenerationalCacheTest, FirstInsertGoesToNursery) {
  GenerationalCache M(smallConfig());
  EXPECT_EQ(M.access(rec(0, 100)), AccessKind::Miss);
  EXPECT_TRUE(M.nursery().contains(0));
  EXPECT_FALSE(M.tenured().contains(0));
  EXPECT_EQ(M.promotions(), 0u);
  EXPECT_TRUE(auditsClean(check::auditGenerational(M)));
}

TEST(GenerationalCacheTest, HitInEitherGeneration) {
  GenerationalCache M(smallConfig());
  M.access(rec(0, 100));
  EXPECT_EQ(M.access(rec(0, 100)), AccessKind::Hit);
  EXPECT_EQ(M.stats().Hits, 1u);
}

TEST(GenerationalCacheTest, ReinsertionPromotesToTenured) {
  GenerationalCache M(smallConfig());
  // Fill the nursery (500 bytes) to force block 0 out, then re-miss it:
  // the second insert reaches PromoteAfterInserts = 2 -> tenured.
  M.access(rec(0, 200));
  M.access(rec(1, 200));
  M.access(rec(2, 200)); // Nursery FIFO evicts 0 (8-unit grain, 62-byte
                         // quantum: evicts from the front).
  EXPECT_FALSE(M.nursery().contains(0));
  M.access(rec(0, 200)); // Second regeneration: promoted.
  EXPECT_TRUE(M.tenured().contains(0));
  EXPECT_FALSE(M.nursery().contains(0));
  EXPECT_EQ(M.promotions(), 1u);
  EXPECT_TRUE(auditsClean(check::auditGenerational(M)));
}

TEST(GenerationalCacheTest, TenuredBlocksSurviveNurseryChurn) {
  GenerationalConfig C = smallConfig();
  GenerationalCache M(C);
  // Tenure block 0.
  M.access(rec(0, 200));
  M.access(rec(1, 200));
  M.access(rec(2, 200));
  M.access(rec(0, 200));
  ASSERT_TRUE(M.tenured().contains(0));
  // Churn many fresh blocks through the nursery; block 0 must survive.
  for (SuperblockId Id = 10; Id < 40; ++Id)
    M.access(rec(Id, 150));
  EXPECT_TRUE(M.tenured().contains(0));
}

TEST(GenerationalCacheTest, MissOverheadUsesEquation3) {
  GenerationalCache M(smallConfig());
  M.access(rec(0, 230));
  EXPECT_NEAR(M.stats().MissOverhead, 19264.0, 0.01);
}

TEST(GenerationalCacheTest, TooBigForBothGenerations) {
  GenerationalConfig C = smallConfig();
  GenerationalCache M(C);
  EXPECT_EQ(M.access(rec(0, 900)), AccessKind::MissTooBig);
  EXPECT_FALSE(M.nursery().contains(0));
  EXPECT_FALSE(M.tenured().contains(0));
}

TEST(GenerationalCacheTest, OversizedForTenuredFallsBackToNursery) {
  GenerationalConfig C;
  C.CapacityBytes = 1000;
  C.TenuredFraction = 0.2; // Tenured holds only 200 bytes.
  C.PromoteAfterInserts = 1; // Everything wants tenure immediately.
  GenerationalCache M(C);
  EXPECT_EQ(M.access(rec(0, 500)), AccessKind::Miss);
  EXPECT_TRUE(M.nursery().contains(0)); // Too big for tenured.
  EXPECT_TRUE(auditsClean(check::auditGenerational(M)));
}

TEST(GenerationalCacheTest, ZeroTenuredFractionDegenerates) {
  GenerationalConfig C = smallConfig();
  C.TenuredFraction = 0.0;
  GenerationalCache M(C);
  for (int Round = 0; Round < 4; ++Round)
    for (SuperblockId Id = 0; Id < 12; ++Id)
      M.access(rec(Id, 150));
  EXPECT_TRUE(auditsClean(check::auditGenerational(M)));
  EXPECT_GT(M.stats().Misses, 12u);
}

TEST(GenerationalCacheTest, RandomChurnKeepsInvariants) {
  GenerationalConfig C;
  C.CapacityBytes = 4096;
  C.PromoteAfterInserts = 3;
  GenerationalCache M(C);
  Rng R(21);
  std::vector<uint32_t> Sizes(150);
  for (auto &S : Sizes)
    S = static_cast<uint32_t>(R.nextRange(30, 600));
  for (int Step = 0; Step < 8000; ++Step) {
    const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(150));
    M.access(rec(Id, Sizes[Id]));
    if (Step % 256 == 0) {
      ASSERT_TRUE(auditsClean(check::auditGenerational(M))) << "step " << Step;
    }
  }
  const CacheStats &S = M.stats();
  EXPECT_EQ(S.Hits + S.Misses, S.Accesses);
  EXPECT_GT(M.promotions(), 0u);
  EXPECT_GT(M.nurseryEvictions(), 0u);
}
