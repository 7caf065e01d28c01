//===- core/LinkGraph.cpp - Superblock chaining and back-pointer table ---===//

#include "core/LinkGraph.h"
#include "support/Contracts.h"

#include <algorithm>

using namespace ccsim;

void LinkGraph::growTables(SuperblockId Id) {
  if (Id < StaticEdges.size())
    return;
  const size_t NewSize = std::max<size_t>(Id + 1, StaticEdges.size() * 2);
  StaticEdges.resize(NewSize);
  OutLinks.resize(NewSize);
  InLinks.resize(NewSize);
  Wants.resize(NewSize);
  EvictEpoch.resize(NewSize, 0);
}

void LinkGraph::eraseOne(std::vector<SuperblockId> &List,
                         SuperblockId Value) {
  for (size_t I = 0; I < List.size(); ++I) {
    if (List[I] != Value)
      continue;
    List[I] = List.back();
    List.pop_back();
    return;
  }
  CCSIM_ASSERT(false, "expected link list entry %u not found", Value);
}

void LinkGraph::eraseAll(std::vector<SuperblockId> &List,
                         SuperblockId Value) {
  List.erase(std::remove(List.begin(), List.end(), Value), List.end());
}

void LinkGraph::materialize(const CodeCache &Cache, uint64_t Quantum,
                            SuperblockId From, SuperblockId To,
                            CacheStats &Stats) {
  OutLinks[From].push_back(To);
  InLinks[To].push_back(From);
  ++LinkCount;
  ++Stats.LinksCreated;
  if (From == To) {
    ++Stats.SelfLinksCreated;
    return; // A self-loop can never cross a unit boundary.
  }
  const uint64_t FromUnit = CodeCache::unitOf(Cache.startOf(From), Quantum);
  const uint64_t ToUnit = CodeCache::unitOf(Cache.startOf(To), Quantum);
  if (FromUnit != ToUnit)
    ++Stats.InterUnitLinksCreated;
}

void LinkGraph::onInsert(const CodeCache &Cache, uint64_t Quantum,
                         SuperblockId Id,
                         std::span<const SuperblockId> Edges,
                         CacheStats &Stats) {
  CCSIM_ASSERT(Cache.contains(Id),
               "block %u must be committed before onInsert", Id);
  growTables(Id);
  CCSIM_ASSERT(StaticEdges[Id].empty() && OutLinks[Id].empty() &&
                   InLinks[Id].empty(),
               "stale link state for inserted block %u", Id);

  StaticEdges[Id].assign(Edges.begin(), Edges.end());
  for (SuperblockId Target : Edges) {
    growTables(Target);
    if (Cache.contains(Target))
      materialize(Cache, Quantum, Id, Target, Stats);
    else
      Wants[Target].push_back(Id);
  }

  // Sources that were waiting for this block can now chain to it.
  for (SuperblockId Source : Wants[Id]) {
    CCSIM_ASSERT(Cache.contains(Source),
                 "wants entry from non-resident block %u", Source);
    materialize(Cache, Quantum, Source, Id, Stats);
  }
  Wants[Id].clear();
}

void LinkGraph::onEvict(const CodeCache &Cache,
                        std::span<const CodeCache::Resident> Victims,
                        std::vector<uint32_t> &DanglingCounts) {
  ++CurrentEpoch;
  for (const CodeCache::Resident &V : Victims) {
    growTables(V.Id);
    CCSIM_ASSERT(!Cache.contains(V.Id),
                 "victim %u must be removed from the cache before onEvict",
                 V.Id);
    EvictEpoch[V.Id] = CurrentEpoch;
  }

  for (const CodeCache::Resident &V : Victims) {
    const SuperblockId Id = V.Id;
    uint32_t Dangling = 0;

    // Incoming links from survivors dangle: the back-pointer table finds
    // them and they are removed; the survivor's edge goes back to the
    // wants index so it rematerializes if this block returns.
    for (SuperblockId Source : InLinks[Id]) {
      if (EvictEpoch[Source] == CurrentEpoch)
        continue; // Link among victims; destroyed for free.
      ++Dangling;
      eraseOne(OutLinks[Source], Id);
      --LinkCount;
      Wants[Id].push_back(Source);
    }

    // Outbound links all die with this block; clean the back-pointer
    // entries at surviving targets.
    for (SuperblockId Target : OutLinks[Id]) {
      --LinkCount;
      if (EvictEpoch[Target] == CurrentEpoch)
        continue; // Target dying too; its lists are cleared wholesale.
      eraseOne(InLinks[Target], Id);
    }

    // Unmaterialized static edges left wants entries behind; drop them.
    for (SuperblockId Target : StaticEdges[Id]) {
      if (Cache.contains(Target) || EvictEpoch[Target] == CurrentEpoch)
        continue; // Edge was materialized; handled above.
      eraseOne(Wants[Target], Id);
    }

    StaticEdges[Id].clear();
    OutLinks[Id].clear();
    InLinks[Id].clear();
    DanglingCounts.push_back(Dangling);
  }
}

size_t LinkGraph::outDegree(SuperblockId Id) const {
  if (Id >= OutLinks.size())
    return 0;
  return OutLinks[Id].size();
}

size_t LinkGraph::inDegree(SuperblockId Id) const {
  if (Id >= InLinks.size())
    return 0;
  return InLinks[Id].size();
}

bool LinkGraph::hasLink(SuperblockId From, SuperblockId To) const {
  if (From >= OutLinks.size())
    return false;
  return std::find(OutLinks[From].begin(), OutLinks[From].end(), To) !=
         OutLinks[From].end();
}
