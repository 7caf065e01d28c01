//===- core/SharedContentIndex.cpp - Cross-tenant content sharing --------===//

#include "core/SharedContentIndex.h"

#include "support/Contracts.h"

#include <algorithm>

using namespace ccsim;

void SharedContentIndex::registerRepresentative(uint64_t Key,
                                                SuperblockId Rep,
                                                uint32_t SizeBytes,
                                                TenantId Owner) {
  CCSIM_ASSERT(Key != 0, "content key 0 means 'unshared'");
  CCSIM_ASSERT(!ByKey.count(Key), "key already has a representative");
  CCSIM_ASSERT(!KeyOfRep.count(Rep), "block already represents a key");
  Entry &E = ByKey[Key];
  E.Representative = Rep;
  E.SizeBytes = SizeBytes;
  E.Owner = Owner;
  E.RefCount = 1;
  KeyOfRep.emplace(Rep, Key);
}

const SharedContentIndex::Entry *
SharedContentIndex::lookup(uint64_t Key) const {
  const auto It = ByKey.find(Key);
  return It == ByKey.end() ? nullptr : &It->second;
}

bool SharedContentIndex::link(uint64_t Key, TenantId Tenant,
                              SuperblockId Alias) {
  const auto It = ByKey.find(Key);
  CCSIM_ASSERT(It != ByKey.end(), "linking a key with no representative");
  Entry &E = It->second;
  const bool Known =
      std::any_of(E.Links.begin(), E.Links.end(), [&](const Link &L) {
        return L.Tenant == Tenant && L.Alias == Alias;
      });
  if (Known)
    return false;
  E.Links.push_back(Link{Tenant, Alias});
  ++E.RefCount;
  ++LiveLinks;
  return true;
}

bool SharedContentIndex::releaseRepresentative(SuperblockId Rep,
                                               std::vector<Link> &Released) {
  const auto RepIt = KeyOfRep.find(Rep);
  if (RepIt == KeyOfRep.end())
    return false;
  const auto It = ByKey.find(RepIt->second);
  CCSIM_ASSERT(It != ByKey.end(), "representative mirror out of sync");
  Entry &E = It->second;
  CCSIM_ASSERT(E.RefCount == 1 + E.Links.size(),
               "refcount drifted from the link set");
  Released.assign(E.Links.begin(), E.Links.end());
  LiveLinks -= E.Links.size();
  ByKey.erase(It);
  KeyOfRep.erase(RepIt);
  return true;
}

std::span<const SharedContentIndex::Link>
SharedContentIndex::linksOf(SuperblockId Rep) const {
  const auto RepIt = KeyOfRep.find(Rep);
  if (RepIt == KeyOfRep.end())
    return {};
  const auto It = ByKey.find(RepIt->second);
  CCSIM_ASSERT(It != ByKey.end(), "representative mirror out of sync");
  return It->second.Links;
}

void SharedContentIndex::clear() {
  ByKey.clear();
  KeyOfRep.clear();
  LiveLinks = 0;
}
