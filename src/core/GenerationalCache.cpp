//===- core/GenerationalCache.cpp - Lifetime-segregated code caches ------===//

#include "core/GenerationalCache.h"
#include "support/Contracts.h"

#include <algorithm>

using namespace ccsim;

GenerationalCache::GenerationalCache(const GenerationalConfig &Config)
    : Config(Config),
      Nursery(std::max<uint64_t>(
          1, Config.CapacityBytes -
                 static_cast<uint64_t>(Config.TenuredFraction *
                                       static_cast<double>(
                                           Config.CapacityBytes)))),
      Tenured(std::max<uint64_t>(
          1, static_cast<uint64_t>(Config.TenuredFraction *
                                   static_cast<double>(
                                       Config.CapacityBytes)))) {
  CCSIM_REQUIRE(Config.TenuredFraction >= 0.0 && Config.TenuredFraction < 1.0,
                "tenured fraction %g must be in [0, 1)",
                Config.TenuredFraction);
  CCSIM_REQUIRE(Config.PromoteAfterInserts >= 1,
                "promotion threshold must be at least one insert");
}

uint32_t GenerationalCache::bumpInsertCount(SuperblockId Id) {
  if (Id >= InsertCount.size())
    InsertCount.resize(std::max<size_t>(Id + 1, InsertCount.size() * 2), 0);
  return ++InsertCount[Id];
}

void GenerationalCache::chargeEvictions(uint64_t Bytes,
                                        size_t Blocks,
                                        uint64_t Units) {
  ++Stats.EvictionInvocations;
  Stats.EvictedBlocks += Blocks;
  Stats.EvictedBytes += Bytes;
  Stats.UnitsFlushed += Units;
  Stats.EvictionOverhead += Config.Costs.evictionOverhead(Bytes);
}

AccessKind GenerationalCache::access(const SuperblockRecord &Rec) {
  CCSIM_ASSERT(Rec.Id != InvalidSuperblockId, "invalid superblock id");
  CCSIM_ASSERT(Rec.SizeBytes > 0,
               "superblock %u must have a positive size", Rec.Id);
  ++Stats.Accesses;

  if (Nursery.contains(Rec.Id) || Tenured.contains(Rec.Id)) {
    ++Stats.Hits;
    return AccessKind::Hit;
  }

  ++Stats.Misses;
  const uint32_t Inserts = bumpInsertCount(Rec.Id);
  if (Inserts > 1)
    ++Stats.CapacityMisses;
  else
    ++Stats.ColdMisses;
  Stats.MissOverhead += Config.Costs.missOverhead(Rec.SizeBytes);

  // Long-lived blocks go to the tenured generation; everything else to
  // the nursery. Blocks too large for their generation fall back to the
  // other; blocks too large for both stay uncached.
  const bool WantTenured = Inserts >= Config.PromoteAfterInserts &&
                           Rec.SizeBytes <= Tenured.capacity();
  CodeCache *Target = WantTenured ? &Tenured : &Nursery;
  if (Rec.SizeBytes > Target->capacity())
    Target = WantTenured ? &Nursery : &Tenured;
  if (Rec.SizeBytes > Target->capacity()) {
    ++Stats.TooBigMisses;
    return AccessKind::MissTooBig;
  }
  if (WantTenured && Target == &Tenured)
    ++Promotions;

  const unsigned Units =
      Target == &Tenured ? Config.TenuredUnits : Config.NurseryUnits;
  const uint64_t Quantum = std::clamp<uint64_t>(
      Target->capacity() / std::max(1u, Units), 1, Target->capacity());

  EvictedScratch.clear();
  const CodeCache::PrepareOutcome Prep =
      Target->prepareInsert(Rec.SizeBytes, Quantum, EvictedScratch);
  CCSIM_ASSERT(Prep.CanInsert, "capacity was checked above");
  Stats.WastedBytes += Prep.WastedBytes;
  if (!EvictedScratch.empty()) {
    uint64_t Bytes = 0;
    for (const CodeCache::Resident &V : EvictedScratch)
      Bytes += V.Size;
    chargeEvictions(Bytes, EvictedScratch.size(), Prep.UnitsFlushed);
    if (Target == &Tenured)
      TenuredEvictions += EvictedScratch.size();
    else
      NurseryEvictions += EvictedScratch.size();
  }
  Target->commitInsert(Rec.Id, Rec.SizeBytes);
  ++Stats.Inserts;
  Stats.InsertedBytes += Rec.SizeBytes;
  return AccessKind::Miss;
}
