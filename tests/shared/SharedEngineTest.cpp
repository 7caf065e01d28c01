//===- tests/shared/SharedEngineTest.cpp - Thread-shared engine tests -----===//
//
// The SharedCacheEngine contract on one thread, where every outcome is
// deterministic: Exact mode replicates the plain CacheEngine access for
// access, Concurrent mode settles to the same stats for access-stateless
// policies, the owner's eviction payload tears down exactly the blocks
// that misses made resident, and quiesce() exposes a state the
// structural auditor accepts. The multi-threaded schedules live in
// SharedStressTest.cpp; this file pins the semantics those runs rely on.
//
//===----------------------------------------------------------------------===//

#include "core/SharedCacheEngine.h"

#include "check/CacheAuditor.h"
#include "telemetry/MetricsRegistry.h"

#include "gtest/gtest.h"

#include <set>
#include <vector>

using namespace ccsim;

namespace {

SuperblockRecord rec(SuperblockId Id, uint32_t Size,
                     const std::vector<SuperblockId> &Edges = {}) {
  SuperblockRecord R;
  R.Id = Id;
  R.SizeBytes = Size;
  R.OutEdges = std::span<const SuperblockId>(Edges);
  return R;
}

/// A deterministic access stream that overflows the cache several times:
/// a working set walked round-robin with a hot block revisited between
/// strides.
std::vector<SuperblockId> strideStream(SuperblockId Blocks, size_t Rounds) {
  std::vector<SuperblockId> Ids;
  for (size_t Round = 0; Round < Rounds; ++Round)
    for (SuperblockId Id = 0; Id < Blocks; ++Id) {
      Ids.push_back(Id);
      if (Id % 7 == 0)
        Ids.push_back(0); // Hot block between strides.
    }
  return Ids;
}

void expectStatsEqual(const CacheStats &A, const CacheStats &B) {
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.ColdMisses, B.ColdMisses);
  EXPECT_EQ(A.CapacityMisses, B.CapacityMisses);
  EXPECT_EQ(A.TooBigMisses, B.TooBigMisses);
  EXPECT_EQ(A.Inserts, B.Inserts);
  EXPECT_EQ(A.InsertedBytes, B.InsertedBytes);
  EXPECT_EQ(A.EvictionInvocations, B.EvictionInvocations);
  EXPECT_EQ(A.EvictedBlocks, B.EvictedBlocks);
  EXPECT_EQ(A.EvictedBytes, B.EvictedBytes);
  EXPECT_EQ(A.LinksCreated, B.LinksCreated);
  EXPECT_EQ(A.LinksDestroyed, B.LinksDestroyed);
  EXPECT_EQ(A.UnlinkedLinks, B.UnlinkedLinks);
  EXPECT_EQ(A.UnlinkOperations, B.UnlinkOperations);
  EXPECT_DOUBLE_EQ(A.MissOverhead, B.MissOverhead);
  EXPECT_DOUBLE_EQ(A.EvictionOverhead, B.EvictionOverhead);
  EXPECT_DOUBLE_EQ(A.UnlinkOverhead, B.UnlinkOverhead);
  EXPECT_EQ(A.BackPointerBytesPeak, B.BackPointerBytesPeak);
}

} // namespace

TEST(SharedEngineTest, PreferredModePicksExactForOneGuestOrStatefulPolicy) {
  const auto UnitFifo = makePolicy(GranularitySpec::units(8));
  const auto Fine = makePolicy(GranularitySpec::fine());
  EXPECT_EQ(SharedCacheEngine::preferredMode(1, *UnitFifo),
            ShareMode::Exact);
  EXPECT_EQ(SharedCacheEngine::preferredMode(4, *UnitFifo),
            ShareMode::Concurrent);
  EXPECT_EQ(SharedCacheEngine::preferredMode(8, *Fine),
            ShareMode::Concurrent);

  AdaptiveGranularityPolicy::Options Opts;
  AdaptiveGranularityPolicy Adaptive(Opts);
  EXPECT_FALSE(Adaptive.isAccessStateless());
  EXPECT_EQ(SharedCacheEngine::preferredMode(4, Adaptive), ShareMode::Exact);
}

TEST(SharedEngineTest, ExactModeMatchesPlainEngineStats) {
  const std::vector<SuperblockId> Stream = strideStream(64, 5);

  CacheEngineConfig Plain;
  Plain.CapacityBytes = 1500;
  CacheEngine Reference(Plain, makePolicy(GranularitySpec::units(4)));

  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 1500;
  SharedCacheEngine Shared(SC, makePolicy(GranularitySpec::units(4)),
                           ShareMode::Exact);

  for (SuperblockId Id : Stream) {
    // Keep the edge list alive for both access calls: the record's edge
    // span aliases it.
    const std::vector<SuperblockId> Edges = {(Id + 1) % 64};
    const SuperblockRecord R = rec(Id, 40 + Id % 13, Edges);
    EXPECT_EQ(Shared.access(R), Reference.access(R)) << "at block " << Id;
  }
  expectStatsEqual(Shared.stats(), Reference.stats());
}

TEST(SharedEngineTest, ConcurrentModeSettlesToSerialStats) {
  // One thread driving Concurrent mode is a degenerate schedule; after
  // settle() the stats must be indistinguishable from the serial run for
  // an access-stateless policy.
  const std::vector<SuperblockId> Stream = strideStream(48, 6);

  CacheEngineConfig Plain;
  Plain.CapacityBytes = 1200;
  CacheEngine Reference(Plain, makePolicy(GranularitySpec::units(8)));

  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 1200;
  SharedCacheEngine Shared(SC, makePolicy(GranularitySpec::units(8)),
                           ShareMode::Concurrent);

  for (SuperblockId Id : Stream) {
    const std::vector<SuperblockId> Edges = {(Id + 3) % 48};
    const SuperblockRecord R = rec(Id, 30 + Id % 11, Edges);
    Reference.access(R);
    Shared.access(R);
  }
  Shared.settle(Stream.size());
  expectStatsEqual(Shared.stats(), Reference.stats());

  const ContentionCounters C = Shared.contention();
  EXPECT_EQ(C.FastHits, Reference.stats().Hits);
}

TEST(SharedEngineTest, TooBigBlockMissesWithoutEnteringIndex) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 1000;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::fine()),
                      ShareMode::Concurrent);

  EXPECT_EQ(E.access(rec(5, 100)), AccessKind::Miss);
  // A block larger than the whole cache is a miss that never becomes
  // resident, so no later access may fast-hit it.
  EXPECT_EQ(E.access(rec(6, 2000)), AccessKind::MissTooBig);
  EXPECT_EQ(E.access(rec(6, 2000)), AccessKind::MissTooBig);
  EXPECT_EQ(E.access(rec(5, 100)), AccessKind::Hit);
  E.settle(4);

  E.quiesce([](const SharedCacheEngine &Q) {
    const check::AuditReport Report = check::auditSharedEngine(Q);
    EXPECT_TRUE(Report.clean()) << Report.render();
    EXPECT_FALSE(Q.engineForAudit().cache().contains(6));
    const SharedIndexState Index = Q.indexSnapshot();
    ASSERT_EQ(Index.Entries.size(), 1u);
    EXPECT_EQ(Index.Entries[0].Id, 5u);
  });
  EXPECT_EQ(E.stats().TooBigMisses, 2u);
  EXPECT_EQ(E.contention().FastHits, 1u);
}

TEST(SharedEngineTest, EvictPayloadSeesEachResidentVictimOnce) {
  // The owner's eviction payload is the teardown half of a dispatch
  // table: every victim must be a block that some miss made resident, and
  // each residency is torn down exactly once. Replaying the blocks that
  // missed minus the victims the payload saw must therefore reproduce the
  // resident set at any quiesce point.
  std::set<SuperblockId> Live;
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 600;
  SC.Engine.OnEvictPayload =
      [&Live](std::span<const CodeCache::Resident> Victims) {
        for (const CodeCache::Resident &V : Victims)
          EXPECT_EQ(Live.erase(V.Id), 1u) << "victim not resident " << V.Id;
      };
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(4)),
                      ShareMode::Concurrent);

  const std::vector<SuperblockId> Stream = strideStream(50, 4);
  for (SuperblockId Id : Stream) {
    if (E.access(rec(Id, 40 + Id % 17)) == AccessKind::Miss) {
      EXPECT_TRUE(Live.insert(Id).second) << "double insert " << Id;
    }
  }
  E.settle(Stream.size());
  EXPECT_GT(E.stats().EvictedBlocks, 0u);

  E.quiesce([&Live](const SharedCacheEngine &Q) {
    std::set<SuperblockId> Resident;
    for (SuperblockId Id = 0; Id < 50; ++Id)
      if (Q.engineForAudit().cache().contains(Id))
        Resident.insert(Id);
    EXPECT_EQ(Live, Resident);
  });
}

TEST(SharedEngineTest, QuiesceExposesAuditCleanStateAndSortedIndex) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 900;
  SC.Shards = 8;
  SC.Fences = 4;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(8)),
                      ShareMode::Concurrent);

  const std::vector<SuperblockId> Stream = strideStream(40, 4);
  for (SuperblockId Id : Stream)
    E.access(rec(Id, 25 + Id % 9, {(Id + 1) % 40}));

  E.quiesce([](const SharedCacheEngine &Q) {
    const check::AuditReport Report = check::auditSharedEngine(Q);
    EXPECT_TRUE(Report.clean()) << Report.render();

    const SharedIndexState Index = Q.indexSnapshot();
    EXPECT_EQ(Index.Shards, Q.shardCount());
    EXPECT_EQ(Index.Fences, Q.fenceCount());
    for (size_t I = 1; I < Index.Entries.size(); ++I)
      EXPECT_LT(Index.Entries[I - 1].Id, Index.Entries[I].Id);
    size_t Resident = 0;
    for (SuperblockId Id = 0; Id < 40; ++Id)
      Resident += Q.engineForAudit().cache().contains(Id) ? 1 : 0;
    EXPECT_EQ(Index.Entries.size(), Resident);
  });

  EXPECT_EQ(E.contention().QuiescePoints, 1u);
}

TEST(SharedEngineTest, PublishContentionEmitsSharedMetrics) {
  SharedEngineConfig SC;
  SC.Engine.CapacityBytes = 800;
  SharedCacheEngine E(SC, makePolicy(GranularitySpec::units(8)),
                      ShareMode::Concurrent);
  for (SuperblockId Id = 0; Id < 60; ++Id)
    E.access(rec(Id, 30));
  E.settle(60);

  telemetry::MetricsRegistry Metrics;
  const telemetry::MetricLabels Labels = {{"policy", "8-unit"}};
  E.publishContention(Metrics, Labels);
  EXPECT_GT(Metrics.size(), 0u);
  EXPECT_TRUE(Metrics.has("shared.fast_hits", Labels));
  EXPECT_TRUE(Metrics.has("shared.install_races", Labels));
  EXPECT_TRUE(Metrics.has("shared.quiesce_points", Labels));
  EXPECT_EQ(Metrics.counterValue("shared.fast_hits", Labels),
            E.contention().FastHits);
}
