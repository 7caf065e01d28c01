//===- tests/sharing/SharedContentIndexTest.cpp - Content index tests -----===//
//
// The SharedContentIndex on its own (register / lookup / link / release
// semantics) and wired into CacheEngine: shared hits that link a resident
// identical copy, representative registration on insert, and the
// force-drain of every link when a representative is evicted — including
// one index spanning several engines, the partitioned-tenancy shape.
//
//===----------------------------------------------------------------------===//

#include "core/CacheEngine.h"
#include "core/SharedContentIndex.h"

#include "gtest/gtest.h"

#include <vector>

using namespace ccsim;

namespace {

/// An edge-free dispatch record carrying a content key; share tests never
/// need out-edges, which sidesteps the span-lifetime trap entirely.
SuperblockRecord srec(SuperblockId Id, uint32_t Size, uint64_t Key,
                      TenantId Tenant = 0) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  R.Tenant = Tenant;
  R.ContentKey = Key;
  return R;
}

CacheEngine makeEngine(SharedContentIndex *Index,
                       uint64_t CapacityBytes = 1 << 16) {
  CacheEngineConfig Config;
  Config.CapacityBytes = CapacityBytes;
  Config.ContentIndex = Index;
  return CacheEngine(Config, makePolicy(GranularitySpec::units(8)));
}

} // namespace

TEST(SharedContentIndexTest, RegisterLookupAndLinkDeduplication) {
  SharedContentIndex Idx;
  Idx.registerRepresentative(7, 0, 256, 3);

  const SharedContentIndex::Entry *E = Idx.lookup(7);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Representative, 0u);
  EXPECT_EQ(E->SizeBytes, 256u);
  EXPECT_EQ(E->Owner, 3u);
  EXPECT_EQ(E->RefCount, 1u); // The representative's own residency.
  EXPECT_TRUE(Idx.isRepresentative(0));
  EXPECT_EQ(Idx.lookup(9), nullptr);

  EXPECT_TRUE(Idx.link(7, 1, 10));
  EXPECT_FALSE(Idx.link(7, 1, 10)); // Relinking the same pair is not new.
  EXPECT_TRUE(Idx.link(7, 2, 20));
  EXPECT_EQ(Idx.lookup(7)->RefCount, 3u); // 1 + two live links.
  EXPECT_EQ(Idx.lookup(7)->Links.size(), 2u);
  EXPECT_EQ(Idx.liveLinkCount(), 2u);
  EXPECT_EQ(Idx.entryCount(), 1u);
}

TEST(SharedContentIndexTest, ReleaseDrainsLinksChronologically) {
  SharedContentIndex Idx;
  Idx.registerRepresentative(7, 0, 256, 0);
  Idx.link(7, 1, 10);
  Idx.link(7, 2, 20);

  std::vector<SharedContentIndex::Link> Released;
  EXPECT_FALSE(Idx.releaseRepresentative(10, Released)); // An alias.
  EXPECT_TRUE(Released.empty());

  EXPECT_TRUE(Idx.releaseRepresentative(0, Released));
  ASSERT_EQ(Released.size(), 2u);
  EXPECT_EQ(Released[0].Tenant, 1u); // Creation order.
  EXPECT_EQ(Released[0].Alias, 10u);
  EXPECT_EQ(Released[1].Tenant, 2u);
  EXPECT_EQ(Released[1].Alias, 20u);

  EXPECT_EQ(Idx.entryCount(), 0u);
  EXPECT_EQ(Idx.liveLinkCount(), 0u);
  EXPECT_FALSE(Idx.isRepresentative(0));
  EXPECT_EQ(Idx.lookup(7), nullptr);
}

TEST(SharedContentIndexTest, ForEachEntryWalksInKeyOrder) {
  SharedContentIndex Idx;
  Idx.registerRepresentative(5, 0, 64, 0);
  Idx.registerRepresentative(2, 1, 64, 0);
  Idx.registerRepresentative(9, 2, 64, 0);

  std::vector<uint64_t> Keys;
  Idx.forEachEntry([&](uint64_t Key, const SharedContentIndex::Entry &) {
    Keys.push_back(Key);
  });
  EXPECT_EQ(Keys, (std::vector<uint64_t>{2, 5, 9}));

  Idx.clear();
  EXPECT_EQ(Idx.entryCount(), 0u);
  EXPECT_EQ(Idx.liveLinkCount(), 0u);
}

TEST(SharedContentIndexTest, EngineLinksIdenticalContentInsteadOfCopying) {
  SharedContentIndex Idx;
  CacheEngine E = makeEngine(&Idx);
  EXPECT_TRUE(E.stats().SharingActive);

  // The first tenant installs the copy and becomes its representative.
  EXPECT_EQ(E.access(srec(0, 256, 77, 0)), AccessKind::Miss);
  EXPECT_TRUE(Idx.isRepresentative(0));

  // A second tenant's identical content resolves as a shared hit: no
  // regeneration, no insert, one new link.
  EXPECT_EQ(E.access(srec(1, 256, 77, 1)), AccessKind::SharedHit);
  EXPECT_TRUE(E.lastAccessShareLinked());
  const CacheStats &S = E.stats();
  EXPECT_EQ(S.Accesses, 2u);
  EXPECT_EQ(S.Hits, 1u); // The shared hit counts as a hit.
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Inserts, 1u); // One copy resident, not two.
  EXPECT_EQ(S.SharedInstalls, 1u);
  EXPECT_EQ(S.SharedBytesSaved, 256u);
  EXPECT_FALSE(E.cache().contains(1));

  // Re-dispatching the alias stays a shared hit but is not a new install.
  EXPECT_EQ(E.access(srec(1, 256, 77, 1)), AccessKind::SharedHit);
  EXPECT_FALSE(E.lastAccessShareLinked());
  EXPECT_EQ(E.stats().SharedInstalls, 1u);
  EXPECT_EQ(E.stats().Hits + E.stats().Misses, E.stats().Accesses);
}

TEST(SharedContentIndexTest, EvictingRepresentativeDrainsEveryLink) {
  SharedContentIndex Idx;
  CacheEngine E = makeEngine(&Idx);

  EXPECT_EQ(E.access(srec(0, 256, 77, 0)), AccessKind::Miss);
  EXPECT_EQ(E.access(srec(1, 256, 77, 1)), AccessKind::SharedHit);
  EXPECT_EQ(E.access(srec(2, 256, 77, 2)), AccessKind::SharedHit);
  EXPECT_EQ(E.stats().SharedInstalls, 2u);

  // Before the eviction the representative's live links are visible, in
  // creation order; an alias is not a representative and has none.
  const std::span<const SharedContentIndex::Link> Live = Idx.linksOf(0);
  ASSERT_EQ(Live.size(), 2u);
  EXPECT_EQ(Live[0].Tenant, 1u);
  EXPECT_EQ(Live[0].Alias, 1u);
  EXPECT_EQ(Live[1].Tenant, 2u);
  EXPECT_EQ(Live[1].Alias, 2u);
  EXPECT_TRUE(Idx.linksOf(1).empty());
  const size_t Drained = Live.size();

  const double UnlinkBefore = E.stats().UnlinkOverhead;
  E.flushEntireCache();

  // Both linking tenants lost their copy; each drain is one Eq. 4
  // single-link unlink (the records carry no edges, so nothing else is
  // charged).
  EXPECT_TRUE(Idx.linksOf(0).empty());
  EXPECT_EQ(E.stats().UnshareUnlinks, Drained);
  double Expected = UnlinkBefore;
  for (size_t I = 0; I < Drained; ++I)
    Expected += E.config().Costs.unlinkingOverhead(1);
  EXPECT_EQ(E.stats().UnlinkOverhead, Expected);
  EXPECT_EQ(Idx.entryCount(), 0u);
  EXPECT_EQ(Idx.liveLinkCount(), 0u);
}

TEST(SharedContentIndexTest, OneIndexSpansSeveralEngines) {
  // The partitioned tenancy shape: each tenant runs its own engine, the
  // index spans the fleet, and global ids are disjoint across engines.
  SharedContentIndex Idx;
  CacheEngine A = makeEngine(&Idx);
  CacheEngine B = makeEngine(&Idx);

  EXPECT_EQ(A.access(srec(0, 256, 55, 0)), AccessKind::Miss);

  // B's cache has nothing, yet identical content resident in A's cache
  // resolves B's miss as a shared hit.
  EXPECT_EQ(B.access(srec(100, 256, 55, 1)), AccessKind::SharedHit);
  EXPECT_FALSE(B.cache().contains(100));
  EXPECT_EQ(B.stats().SharedInstalls, 1u);

  // Conservation across the fleet: installs == unshares + live links.
  uint64_t Installs = A.stats().SharedInstalls + B.stats().SharedInstalls;
  uint64_t Unshares = A.stats().UnshareUnlinks + B.stats().UnshareUnlinks;
  EXPECT_EQ(Installs, Unshares + Idx.liveLinkCount());

  // Tearing down the owning engine drains B's link through A's eviction
  // path and empties the index.
  A.flushEntireCache();
  EXPECT_EQ(A.stats().UnshareUnlinks, 1u);
  EXPECT_EQ(Idx.entryCount(), 0u);
  Installs = A.stats().SharedInstalls + B.stats().SharedInstalls;
  Unshares = A.stats().UnshareUnlinks + B.stats().UnshareUnlinks;
  EXPECT_EQ(Installs, Unshares + Idx.liveLinkCount());
}

TEST(SharedContentIndexTest, DisabledIndexAndZeroKeysStayInert) {
  // No index configured: content keys are ignored and sharing stays off.
  CacheEngine Plain = makeEngine(nullptr);
  EXPECT_FALSE(Plain.stats().SharingActive);
  EXPECT_EQ(Plain.access(srec(0, 256, 77, 0)), AccessKind::Miss);
  EXPECT_EQ(Plain.access(srec(1, 256, 77, 1)), AccessKind::Miss);
  EXPECT_EQ(Plain.stats().SharedInstalls, 0u);

  // Index configured but keyless records (ContentKey 0) never register.
  SharedContentIndex Idx;
  CacheEngine E = makeEngine(&Idx);
  EXPECT_EQ(E.access(srec(0, 256, 0, 0)), AccessKind::Miss);
  EXPECT_EQ(E.access(srec(1, 256, 0, 1)), AccessKind::Miss);
  EXPECT_EQ(Idx.entryCount(), 0u);
  EXPECT_EQ(E.stats().SharedInstalls, 0u);
}
