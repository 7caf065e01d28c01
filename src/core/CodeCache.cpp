//===- core/CodeCache.cpp - Circular-buffer code cache placement ---------===//

#include "core/CodeCache.h"

#include <algorithm>

using namespace ccsim;

CodeCache::CodeCache(uint64_t CapacityBytes) : Capacity(CapacityBytes) {
  CCSIM_REQUIRE(Capacity > 0, "cache capacity must be positive");
}

void CodeCache::growTables(SuperblockId Id) {
  if (Id < ResidentFlag.size())
    return;
  const size_t NewSize = std::max<size_t>(Id + 1, ResidentFlag.size() * 2);
  ResidentFlag.resize(NewSize, 0);
  StartById.resize(NewSize, 0);
  SizeById.resize(NewSize, 0);
}

uint64_t CodeCache::contiguousFreeAtTail() const {
  if (Fifo.empty())
    return Capacity - Tail;
  const uint64_t Head = Fifo.front().Start;
  if (Head >= Tail) {
    // Either the occupied region wraps (free = [Tail, Head)) or the cache
    // is exactly full (Head == Tail with residents).
    return Head - Tail;
  }
  // Occupied region is [Head, Tail); free space runs to the buffer end.
  return Capacity - Tail;
}

CodeCache::Resident CodeCache::evictFront() {
  CCSIM_ASSERT(!Fifo.empty(), "evicting from an empty cache");
  Resident Victim = Fifo.front();
  Fifo.pop_front();
  Occupied -= Victim.Size;
  ResidentFlag[Victim.Id] = 0;
  if (Fifo.empty())
    Tail = 0; // Empty cache: restart placement at the origin.
  return Victim;
}

CodeCache::PrepareOutcome
CodeCache::prepareInsert(uint32_t SizeBytes, uint64_t Quantum,
                         std::vector<Resident> &EvictedOut) {
  CCSIM_ASSERT(SizeBytes > 0, "cannot cache an empty superblock");
  CCSIM_ASSERT(Quantum > 0, "quantum must be positive");
  PrepareOutcome Out;
  if (SizeBytes > Capacity)
    return Out; // Cannot ever fit; CanInsert stays false.
  Out.CanInsert = true;

  uint64_t LastEvictedUnit = ~0ULL;
  bool EvictedAny = false;
  auto NoteEvicted = [&](const Resident &Victim) {
    EvictedOut.push_back(Victim);
    const uint64_t Unit = unitOf(Victim.Start, Quantum);
    if (!EvictedAny || Unit != LastEvictedUnit)
      ++Out.UnitsFlushed;
    LastEvictedUnit = Unit;
    EvictedAny = true;
  };

  for (;;) {
    if (Fifo.empty()) {
      Tail = 0;
      return Out;
    }
    if (contiguousFreeAtTail() >= SizeBytes)
      return Out;

    if (Fifo.front().Start < Tail) {
      // Free space is capped by the buffer end while the FIFO head sits
      // behind the write position: wrap, wasting the tail bytes (code
      // cannot span the wrap point).
      Out.WastedBytes += Capacity - Tail;
      Tail = 0;
      continue;
    }

    // The FIFO head is ahead of the write position: reclaim from it.
    // First evict until the incoming block fits ...
    while (!Fifo.empty() && Fifo.front().Start >= Tail &&
           contiguousFreeAtTail() < SizeBytes)
      NoteEvicted(evictFront());

    // ... then finish clearing the unit of the last victim, so that whole
    // units are always flushed together (no-op for the 1-byte quantum of
    // fine-grained FIFO, since distinct blocks have distinct starts).
    if (EvictedAny && Quantum > 1)
      while (!Fifo.empty() && Fifo.front().Start >= Tail &&
             unitOf(Fifo.front().Start, Quantum) == LastEvictedUnit)
        NoteEvicted(evictFront());
    // Loop: re-check fit (the head may have wrapped to low offsets, in
    // which case the free region now runs to the buffer end).
  }
}

uint64_t CodeCache::commitInsert(SuperblockId Id, uint32_t SizeBytes) {
  CCSIM_ASSERT(!contains(Id), "block %u already resident", Id);
  CCSIM_ASSERT(SizeBytes > 0, "cannot cache an empty superblock");
  CCSIM_ASSERT(contiguousFreeAtTail() >= SizeBytes,
               "commitInsert of %u bytes without a successful prepareInsert",
               SizeBytes);
  growTables(Id);
  const uint64_t Start = Tail;
  Fifo.push_back(Resident{Id, Start, SizeBytes});
  Tail += SizeBytes;
  if (Tail == Capacity)
    Tail = 0; // Exact fit against the end: next write wraps cleanly.
  Occupied += SizeBytes;
  ResidentFlag[Id] = 1;
  StartById[Id] = Start;
  SizeById[Id] = SizeBytes;
  return Start;
}

void CodeCache::flushAll(std::vector<Resident> &EvictedOut) {
  while (!Fifo.empty())
    EvictedOut.push_back(evictFront());
  Tail = 0;
}
