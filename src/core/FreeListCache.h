//===- core/FreeListCache.h - LRU free-list cache (Section 3.3 study) ----===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alternative the paper dismisses in Section 3.3: an LRU-managed
/// code cache over a free-list allocator. Because cached superblocks are
/// variable-sized, evicting by recency leaves variable-sized holes; a new
/// superblock may not fit any hole even when total free space suffices
/// (external fragmentation), and fixing that requires compaction — which
/// "would require adjusting all the link pointers".
///
/// This class implements exactly that design so the trade-off can be
/// measured rather than asserted: address-ordered first-fit allocation
/// with coalescing, true LRU victim selection, and optional compaction
/// whose cost (bytes moved, link pointers to fix) is accounted.
///
/// The circular-buffer FIFO cache (CodeCache) and this class share no
/// code on purpose: the comparison bench pits the two implementations
/// against each other on identical traces.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_FREELISTCACHE_H
#define CCSIM_CORE_FREELISTCACHE_H

#include "core/Superblock.h"
#include "support/Contracts.h"

#include <cstdint>
#include <list>
#include <vector>

namespace ccsim {

/// Counters specific to the free-list/LRU design.
struct FreeListStats {
  uint64_t Inserts = 0;
  uint64_t Evictions = 0;       ///< Victim blocks removed.
  uint64_t EvictionCalls = 0;   ///< Insertions that needed eviction.
  uint64_t FragmentationStalls = 0; ///< Total free space sufficed but no
                                    ///< single hole fit.
  uint64_t Compactions = 0;
  uint64_t BytesMoved = 0;      ///< Compaction copy traffic.
  uint64_t LinkFixups = 0;      ///< Resident links whose pointers had to
                                ///< be rewritten by compaction.
  double FreeSpaceSamples = 0;  ///< Summed free fraction (per insert).
  double LargestHoleSamples = 0; ///< Summed largest-hole fraction of
                                 ///< free space (per insert).

  /// Mean external fragmentation: 1 - largestHole/freeSpace, averaged
  /// over inserts that had any free space.
  double meanFragmentation() const {
    if (Inserts == 0 || FreeSpaceSamples == 0.0)
      return 0.0;
    return 1.0 - LargestHoleSamples / FreeSpaceSamples;
  }
};

/// An LRU code cache over an address-ordered first-fit free list.
class FreeListCache {
public:
  /// \param CapacityBytes arena size.
  /// \param EnableCompaction when true, a fragmentation stall triggers
  ///        compaction instead of extra evictions.
  FreeListCache(uint64_t CapacityBytes, bool EnableCompaction);

  uint64_t capacity() const { return Capacity; }
  uint64_t occupiedBytes() const { return Occupied; }
  size_t residentCount() const { return LruList.size(); }

  bool contains(SuperblockId Id) const {
    return Id < Slots.size() && Slots[Id].Resident;
  }

  /// Marks \p Id most-recently-used. Must be resident.
  void touch(SuperblockId Id);

  /// Inserts \p Id (evicting LRU victims as needed and compacting on
  /// fragmentation stalls when enabled). Victims are appended to
  /// \p EvictedOut. Returns false only if SizeBytes > capacity.
  /// \p ResidentLinks is the number of link pointers per resident block
  /// that compaction must rewrite when it moves blocks (the Section 3.3
  /// cost; pass the workload's mean degree).
  bool insert(SuperblockId Id, uint32_t SizeBytes, double ResidentLinks,
              std::vector<SuperblockId> &EvictedOut);

  const FreeListStats &stats() const { return Stats; }

  /// Byte offset of resident \p Id. Must be resident.
  uint64_t startOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return Slots[Id].Start;
  }

  /// Size in bytes of resident \p Id. Must be resident.
  uint32_t sizeOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return Slots[Id].Size;
  }

  /// Auditor introspection: size of the dense per-id slot table.
  size_t idTableSize() const { return Slots.size(); }

  /// Visits free extents in free-list (address) order.
  template <typename Fn> void forEachFreeExtent(Fn Visit) const {
    for (const Hole &H : FreeList)
      Visit(H.Start, H.Size);
  }

  /// Visits resident ids from least to most recently used.
  template <typename Fn> void forEachLru(Fn Visit) const {
    for (SuperblockId Id : LruList)
      Visit(Id);
  }

  /// Auditor introspection: the id stored at resident \p Id's LRU list
  /// position (it must be \p Id itself).
  SuperblockId lruEntryOf(SuperblockId Id) const {
    CCSIM_ASSERT(contains(Id), "block %u is not resident", Id);
    return *Slots[Id].LruPos;
  }

private:
  struct Hole {
    uint64_t Start;
    uint64_t Size;
  };

  struct Slot {
    bool Resident = false;
    uint64_t Start = 0;
    uint32_t Size = 0;
    std::list<SuperblockId>::iterator LruPos;
  };

  uint64_t Capacity;
  bool EnableCompaction;
  uint64_t Occupied = 0;
  std::vector<Hole> FreeList; ///< Address-ordered, coalesced.
  std::vector<Slot> Slots;    ///< By id.
  std::list<SuperblockId> LruList; ///< Front = least recently used.
  FreeListStats Stats;

  void growSlots(SuperblockId Id);

  /// First-fit search. Returns the free-list index or -1.
  int64_t findHole(uint32_t SizeBytes) const;

  /// Returns the freed range to the free list, coalescing neighbors.
  void release(uint64_t Start, uint64_t Size);

  /// Evicts the least-recently-used block.
  void evictLru(std::vector<SuperblockId> &EvictedOut);

  /// Slides all allocations to the bottom of the arena, leaving one
  /// maximal hole; charges bytes moved and link fixups.
  void compact(double ResidentLinks);

  uint64_t freeBytes() const { return Capacity - Occupied; }
  uint64_t largestHole() const;
};

} // namespace ccsim

#endif // CCSIM_CORE_FREELISTCACHE_H
