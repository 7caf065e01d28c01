//===- core/SharedContentIndex.h - Cross-tenant content sharing ----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed registry of resident superblocks, the core of the
/// ShareJIT-style cross-tenant sharing study (DESIGN.md section 19). A
/// content key identifies "the same translated code" regardless of which
/// tenant produced it; the first tenant to install a block under a key
/// becomes its *representative*, and later tenants that miss on identical
/// content *link* the representative instead of installing a duplicate.
///
/// The refcount of an entry is 1 (the representative's own residency) plus
/// one per live link. Eviction of the representative force-drains every
/// link — each drained link is an unshare unlink charged through the
/// Eq. 4 cost machinery, because the linking tenant's dispatch glue must
/// be unpatched exactly like a chained branch.
///
/// One index instance may span several CacheEngine instances (the
/// static-partition and unit-quota tenancy modes run one engine per
/// tenant); global superblock ids are unique across engines, so
/// representative lookups are unambiguous.
///
/// Deterministic by construction: both maps are ordered, so audits and
/// snapshots never depend on hash iteration order.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_SHAREDCONTENTINDEX_H
#define CCSIM_CORE_SHAREDCONTENTINDEX_H

#include "core/Superblock.h"

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

namespace ccsim {

/// FNV-1a accumulator for content keys. Fold in the trace name, local id,
/// size, and edge list; identical folds yield identical keys.
class ContentKeyBuilder {
public:
  ContentKeyBuilder &mix(uint64_t Value) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xffU;
      Hash *= 0x100000001b3ULL;
    }
    return *this;
  }

  ContentKeyBuilder &mix(std::string_view Text) {
    for (const char C : Text) {
      Hash ^= static_cast<uint8_t>(C);
      Hash *= 0x100000001b3ULL;
    }
    return *this;
  }

  /// Finished key. Never returns 0 (0 means "no content key" on a
  /// SuperblockRecord), so the degenerate hash is nudged.
  uint64_t key() const { return Hash == 0 ? 1 : Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

/// Key for a generator-tagged block: every block carrying the same
/// nonzero ContentTag is "the same code" across tenants by construction.
inline uint64_t contentKeyForTag(uint64_t Tag) {
  return ContentKeyBuilder().mix(0x5461676765644b65ULL).mix(Tag).key();
}

/// Fallback key for untagged blocks: trace name + local id + size + static
/// edges. Two tenants replaying the *same* benchmark trace share every
/// block; distinct benchmarks never collide (the name is folded in).
inline uint64_t contentKeyForBlock(std::string_view TraceName,
                                   SuperblockId LocalId, uint32_t SizeBytes,
                                   std::span<const SuperblockId> Edges) {
  ContentKeyBuilder B;
  B.mix(TraceName).mix(LocalId).mix(SizeBytes);
  for (const SuperblockId E : Edges)
    B.mix(E);
  return B.key();
}

/// Content key -> one resident representative plus its live links.
class SharedContentIndex {
public:
  /// One live share link: \p Tenant resolves its alias superblock
  /// \p Alias to the entry's representative instead of owning a copy.
  struct Link {
    TenantId Tenant = 0;
    SuperblockId Alias = InvalidSuperblockId;
  };

  struct Entry {
    SuperblockId Representative = InvalidSuperblockId;
    uint32_t SizeBytes = 0;
    TenantId Owner = 0;       ///< Tenant that installed the copy.
    uint32_t RefCount = 0;    ///< 1 (representative) + live links. Kept
                              ///< explicitly so the share.refcount-mismatch
                              ///< audit can catch drift against Links.
    std::vector<Link> Links;  ///< Chronological link order.
  };

  /// Registers \p Rep as the resident representative for \p Key. The
  /// caller guarantees no entry currently holds \p Key (a shared hit
  /// would have linked it instead of installing).
  void registerRepresentative(uint64_t Key, SuperblockId Rep,
                              uint32_t SizeBytes, TenantId Owner);

  /// Entry holding a resident representative for \p Key, or nullptr.
  const Entry *lookup(uint64_t Key) const;

  /// Records that (\p Tenant, \p Alias) resolves to \p Key's
  /// representative. Returns true when this is a new link (the pair was
  /// not yet linked) — the caller counts a shared install exactly then.
  bool link(uint64_t Key, TenantId Tenant, SuperblockId Alias);

  /// Eviction notification for \p Rep. When \p Rep is a representative,
  /// its entry is erased, every live link is force-drained into
  /// \p Released (chronological order), and true is returned; otherwise
  /// the index is untouched and false is returned.
  bool releaseRepresentative(SuperblockId Rep, std::vector<Link> &Released);

  bool isRepresentative(SuperblockId Id) const {
    return KeyOfRep.count(Id) != 0;
  }

  /// Live links of representative \p Rep in chronological order — the
  /// links an eviction of \p Rep would drain. Empty when \p Rep is not a
  /// representative. Valid until the index is next mutated.
  std::span<const Link> linksOf(SuperblockId Rep) const;

  size_t entryCount() const { return ByKey.size(); }
  uint64_t liveLinkCount() const { return LiveLinks; }

  /// Deterministic key-ordered walk, for audits and snapshots.
  template <typename Fn> void forEachEntry(Fn &&Visit) const {
    for (const auto &[Key, E] : ByKey)
      Visit(Key, E);
  }

  void clear();

private:
  std::map<uint64_t, Entry> ByKey;
  std::map<SuperblockId, uint64_t> KeyOfRep; ///< Mirror for evict lookups.
  uint64_t LiveLinks = 0;
};

} // namespace ccsim

#endif // CCSIM_CORE_SHAREDCONTENTINDEX_H
