//===- core/FreeListCache.cpp - LRU free-list cache (Section 3.3 study) --===//

#include "core/FreeListCache.h"
#include "support/Contracts.h"

#include <algorithm>
#include <cmath>

using namespace ccsim;

FreeListCache::FreeListCache(uint64_t CapacityBytes, bool EnableCompaction)
    : Capacity(CapacityBytes), EnableCompaction(EnableCompaction) {
  CCSIM_REQUIRE(Capacity > 0, "cache capacity must be positive");
  FreeList.push_back(Hole{0, Capacity});
}

void FreeListCache::growSlots(SuperblockId Id) {
  if (Id < Slots.size())
    return;
  Slots.resize(std::max<size_t>(Id + 1, Slots.size() * 2));
}

void FreeListCache::touch(SuperblockId Id) {
  CCSIM_ASSERT(contains(Id), "touching non-resident block %u", Id);
  Slot &S = Slots[Id];
  LruList.splice(LruList.end(), LruList, S.LruPos); // Move to MRU end.
}

int64_t FreeListCache::findHole(uint32_t SizeBytes) const {
  for (size_t I = 0; I < FreeList.size(); ++I)
    if (FreeList[I].Size >= SizeBytes)
      return static_cast<int64_t>(I);
  return -1;
}

void FreeListCache::release(uint64_t Start, uint64_t Size) {
  // Insert keeping address order, then coalesce with neighbors.
  const auto Pos = std::lower_bound(
      FreeList.begin(), FreeList.end(), Start,
      [](const Hole &H, uint64_t S) { return H.Start < S; });
  const size_t Index =
      static_cast<size_t>(std::distance(FreeList.begin(), Pos));
  FreeList.insert(Pos, Hole{Start, Size});

  // Coalesce with successor first (indices stay valid), then predecessor.
  if (Index + 1 < FreeList.size() &&
      FreeList[Index].Start + FreeList[Index].Size ==
          FreeList[Index + 1].Start) {
    FreeList[Index].Size += FreeList[Index + 1].Size;
    FreeList.erase(FreeList.begin() + static_cast<int64_t>(Index) + 1);
  }
  if (Index > 0 && FreeList[Index - 1].Start + FreeList[Index - 1].Size ==
                       FreeList[Index].Start) {
    FreeList[Index - 1].Size += FreeList[Index].Size;
    FreeList.erase(FreeList.begin() + static_cast<int64_t>(Index));
  }
}

void FreeListCache::evictLru(std::vector<SuperblockId> &EvictedOut) {
  CCSIM_ASSERT(!LruList.empty(), "no LRU victim available");
  const SuperblockId Victim = LruList.front();
  LruList.pop_front();
  Slot &S = Slots[Victim];
  release(S.Start, S.Size);
  Occupied -= S.Size;
  S.Resident = false;
  ++Stats.Evictions;
  EvictedOut.push_back(Victim);
}

void FreeListCache::compact(double ResidentLinks) {
  ++Stats.Compactions;
  // Slide every allocation down in address order. In a real system this
  // copies the code and patches every link into and out of each moved
  // block; we charge bytes moved plus ResidentLinks fixups per moved
  // block (Section 3.3: "compaction would require adjusting all the
  // link pointers").
  std::vector<SuperblockId> ByAddress;
  ByAddress.reserve(LruList.size());
  for (SuperblockId Id : LruList)
    ByAddress.push_back(Id);
  std::sort(ByAddress.begin(), ByAddress.end(),
            [this](SuperblockId A, SuperblockId B) {
              return Slots[A].Start < Slots[B].Start;
            });
  uint64_t Cursor = 0;
  for (SuperblockId Id : ByAddress) {
    Slot &S = Slots[Id];
    if (S.Start != Cursor) {
      Stats.BytesMoved += S.Size;
      Stats.LinkFixups += static_cast<uint64_t>(std::llround(ResidentLinks));
      S.Start = Cursor;
    }
    Cursor += S.Size;
  }
  FreeList.clear();
  if (Cursor < Capacity)
    FreeList.push_back(Hole{Cursor, Capacity - Cursor});
}

uint64_t FreeListCache::largestHole() const {
  uint64_t Largest = 0;
  for (const Hole &H : FreeList)
    Largest = std::max(Largest, H.Size);
  return Largest;
}

bool FreeListCache::insert(SuperblockId Id, uint32_t SizeBytes,
                           double ResidentLinks,
                           std::vector<SuperblockId> &EvictedOut) {
  CCSIM_ASSERT(SizeBytes > 0, "cannot cache an empty superblock");
  CCSIM_ASSERT(!contains(Id), "block %u already resident", Id);
  if (SizeBytes > Capacity)
    return false;
  growSlots(Id);
  ++Stats.Inserts;

  // Fragmentation sampling before this insert does any work.
  if (freeBytes() > 0) {
    Stats.FreeSpaceSamples +=
        static_cast<double>(freeBytes()) / static_cast<double>(Capacity);
    Stats.LargestHoleSamples += static_cast<double>(largestHole()) /
                                static_cast<double>(Capacity);
  }

  bool CountedEvictionCall = false;
  for (;;) {
    const int64_t HoleIndex = findHole(SizeBytes);
    if (HoleIndex >= 0) {
      Hole &H = FreeList[static_cast<size_t>(HoleIndex)];
      Slot &S = Slots[Id];
      S.Resident = true;
      S.Start = H.Start;
      S.Size = SizeBytes;
      S.LruPos = LruList.insert(LruList.end(), Id);
      Occupied += SizeBytes;
      if (H.Size == SizeBytes)
        FreeList.erase(FreeList.begin() + HoleIndex);
      else {
        H.Start += SizeBytes;
        H.Size -= SizeBytes;
      }
      return true;
    }

    // No hole fits. Distinguish capacity pressure from fragmentation.
    if (freeBytes() >= SizeBytes) {
      ++Stats.FragmentationStalls;
      if (EnableCompaction) {
        compact(ResidentLinks);
        continue; // The single maximal hole now fits.
      }
    }
    if (!CountedEvictionCall) {
      ++Stats.EvictionCalls;
      CountedEvictionCall = true;
    }
    evictLru(EvictedOut);
  }
}
