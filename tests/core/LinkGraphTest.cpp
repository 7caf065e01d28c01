//===- tests/core/LinkGraphTest.cpp - Chaining state tests -----------------===//

#include "core/LinkGraph.h"

#include "support/Random.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

/// Test fixture managing a cache + link graph pair with convenience
/// insert/evict helpers mirroring the CacheEngine's call order.
class LinkGraphFixture : public ::testing::Test {
protected:
  CodeCache Cache{1000};
  LinkGraph Links;
  CacheStats Stats;
  uint64_t Quantum = 1000; // Single unit by default.

  std::vector<uint32_t> insertBlock(SuperblockId Id, uint32_t Size,
                                    std::vector<SuperblockId> Edges) {
    std::vector<CodeCache::Resident> Evicted;
    std::vector<uint32_t> Dangling;
    EXPECT_TRUE(Cache.prepareInsert(Size, Quantum, Evicted).CanInsert);
    if (!Evicted.empty())
      Links.onEvict(Cache, Evicted, Dangling);
    Cache.commitInsert(Id, Size);
    Links.onInsert(Cache, Quantum, Id, Edges, Stats);
    EXPECT_TRUE(auditsClean(check::auditLinks(Links, Cache)));
    return Dangling;
  }
};

} // namespace

TEST_F(LinkGraphFixture, ForwardEdgeMaterializesWhenTargetArrives) {
  insertBlock(0, 100, {1}); // Target absent: edge pending.
  EXPECT_FALSE(Links.hasLink(0, 1));
  EXPECT_EQ(Links.numLinks(), 0u);
  insertBlock(1, 100, {});
  EXPECT_TRUE(Links.hasLink(0, 1));
  EXPECT_EQ(Links.numLinks(), 1u);
  EXPECT_EQ(Stats.LinksCreated, 1u);
}

TEST_F(LinkGraphFixture, BackwardEdgeMaterializesImmediately) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0});
  EXPECT_TRUE(Links.hasLink(1, 0));
  EXPECT_EQ(Links.outDegree(1), 1u);
  EXPECT_EQ(Links.inDegree(0), 1u);
}

TEST_F(LinkGraphFixture, SelfLinkCountsAsIntraUnit) {
  insertBlock(0, 100, {0});
  EXPECT_TRUE(Links.hasLink(0, 0));
  EXPECT_EQ(Stats.SelfLinksCreated, 1u);
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
}

TEST_F(LinkGraphFixture, IntraVsInterUnitClassification) {
  Quantum = 250; // Units of 250 bytes.
  insertBlock(0, 100, {});  // [0,100)   unit 0.
  insertBlock(1, 100, {0}); // [100,200) unit 0: intra.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
  insertBlock(2, 100, {0}); // [200,300) unit 0 start? 200/250 = 0: intra.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 0u);
  insertBlock(3, 100, {0}); // [300,400) unit 1: inter.
  EXPECT_EQ(Stats.InterUnitLinksCreated, 1u);
  EXPECT_EQ(Stats.LinksCreated, 3u);
}

TEST_F(LinkGraphFixture, FineQuantumMakesAllNonSelfLinksInter) {
  Quantum = 1;
  insertBlock(0, 50, {});
  insertBlock(1, 50, {0, 1}); // One link to 0 (inter), one self (intra).
  EXPECT_EQ(Stats.LinksCreated, 2u);
  EXPECT_EQ(Stats.InterUnitLinksCreated, 1u);
  EXPECT_EQ(Stats.SelfLinksCreated, 1u);
}

TEST_F(LinkGraphFixture, ParallelEdgesKeepMultiplicity) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0, 0}); // Two exits to the same target.
  EXPECT_EQ(Links.outDegree(1), 2u);
  EXPECT_EQ(Links.inDegree(0), 2u);
  EXPECT_EQ(Links.numLinks(), 2u);
}

TEST_F(LinkGraphFixture, EvictionReportsDanglingIncomingLinks) {
  insertBlock(0, 400, {});
  insertBlock(1, 300, {0});
  insertBlock(2, 300, {0});
  EXPECT_EQ(Links.inDegree(0), 2u);
  // Insert a 400-byte block with fine quantum: evicts block 0 only.
  Quantum = 1;
  const auto Dangling = insertBlock(3, 400, {});
  ASSERT_EQ(Dangling.size(), 1u);
  EXPECT_EQ(Dangling[0], 2u); // Two survivor links dangled.
  EXPECT_EQ(Links.outDegree(1), 0u);
  EXPECT_EQ(Links.outDegree(2), 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
}

TEST_F(LinkGraphFixture, LinksAmongVictimsAreFree) {
  Quantum = 1000; // Whole-cache flush.
  insertBlock(0, 300, {1});
  insertBlock(1, 300, {0});
  insertBlock(2, 300, {});
  EXPECT_EQ(Links.numLinks(), 2u);
  // A 500-byte insert flushes everything: no dangling links (all
  // endpoints die together).
  const auto Dangling = insertBlock(3, 500, {});
  ASSERT_EQ(Dangling.size(), 3u);
  EXPECT_EQ(Dangling[0], 0u);
  EXPECT_EQ(Dangling[1], 0u);
  EXPECT_EQ(Dangling[2], 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
}

TEST_F(LinkGraphFixture, ReinsertionRematerializesWants) {
  insertBlock(0, 400, {});
  insertBlock(1, 300, {0});
  Quantum = 1;
  insertBlock(2, 400, {}); // Evicts 0; link 1->0 dangles and is removed.
  EXPECT_FALSE(Links.hasLink(1, 0));
  // Reinsert 0 (evicts 1's neighbor as needed): the want from block 1
  // must rematerialize if block 1 survived.
  std::vector<CodeCache::Resident> Evicted;
  std::vector<uint32_t> Dangling;
  ASSERT_TRUE(Cache.prepareInsert(200, 1, Evicted).CanInsert);
  if (!Evicted.empty())
    Links.onEvict(Cache, Evicted, Dangling);
  Cache.commitInsert(0, 200);
  Links.onInsert(Cache, 1, 0, std::vector<SuperblockId>{}, Stats);
  if (Cache.contains(1)) {
    EXPECT_TRUE(Links.hasLink(1, 0));
  }
  EXPECT_TRUE(auditsClean(check::auditLinks(Links, Cache)));
}

TEST_F(LinkGraphFixture, BackPointerMemoryAccounting) {
  insertBlock(0, 100, {});
  insertBlock(1, 100, {0});
  insertBlock(2, 100, {0, 1});
  EXPECT_EQ(Links.numLinks(), 3u);
  EXPECT_EQ(Links.backPointerBytes(), 3 * LinkGraph::BytesPerBackPointer);
}

TEST_F(LinkGraphFixture, DegreeQueriesOnUnknownIds) {
  EXPECT_EQ(Links.outDegree(999), 0u);
  EXPECT_EQ(Links.inDegree(999), 0u);
  EXPECT_FALSE(Links.hasLink(999, 1000));
}

TEST_F(LinkGraphFixture, EvictedSourceDropsItsWants) {
  // Block 0 wants absent block 7. When 0 is evicted, the want must go
  // away: block 7's later insertion must not create a dangling link.
  insertBlock(0, 600, {7});
  Quantum = 1;
  insertBlock(1, 600, {}); // Evicts 0.
  EXPECT_FALSE(Cache.contains(0));
  insertBlock(7, 100, {});
  EXPECT_EQ(Links.inDegree(7), 0u);
  EXPECT_EQ(Links.numLinks(), 0u);
  EXPECT_TRUE(auditsClean(check::auditLinks(Links, Cache)));
}

TEST(LinkGraphRandomTest, InvariantsUnderRandomChurn) {
  for (uint64_t Seed : {1ULL, 2ULL, 3ULL}) {
    Rng R(Seed);
    CodeCache Cache(2000);
    LinkGraph Links;
    CacheStats Stats;
    for (int Step = 0; Step < 1500; ++Step) {
      const SuperblockId Id = static_cast<SuperblockId>(R.nextBelow(60));
      if (Cache.contains(Id))
        continue;
      const uint32_t Size = static_cast<uint32_t>(R.nextRange(20, 400));
      const uint64_t Quantum = 1ULL << R.nextBelow(12);
      std::vector<SuperblockId> Edges;
      const uint64_t Degree = R.nextPoisson(1.7);
      for (uint64_t E = 0; E < Degree; ++E)
        Edges.push_back(static_cast<SuperblockId>(R.nextBelow(60)));

      std::vector<CodeCache::Resident> Evicted;
      std::vector<uint32_t> Dangling;
      if (!Cache.prepareInsert(Size, Quantum, Evicted).CanInsert)
        continue;
      if (!Evicted.empty())
        Links.onEvict(Cache, Evicted, Dangling);
      Cache.commitInsert(Id, Size);
      Links.onInsert(Cache, Quantum, Id, Edges, Stats);

      ASSERT_TRUE(auditsClean(check::auditCache(Cache))) << "seed " << Seed;
      ASSERT_TRUE(auditsClean(check::auditLinks(Links, Cache)))
          << "seed " << Seed << " step " << Step;
    }
    EXPECT_GT(Stats.LinksCreated, 0u);
  }
}
