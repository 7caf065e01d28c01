//===- runtime/DispatchTable.h - PC-to-fragment hash table -----------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash table of Figure 1: maps original guest PCs to fragments in
/// the code cache. Open addressing with linear probing and tombstone
/// deletion; probe counts are reported so the instrumentation charges
/// realistic, input-dependent lookup costs.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_RUNTIME_DISPATCHTABLE_H
#define CCSIM_RUNTIME_DISPATCHTABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccsim {

/// Open-addressing map from guest PC to a fragment index.
class DispatchTable {
public:
  static constexpr int32_t NotFound = -1;

  DispatchTable();

  /// Looks up \p PC. Returns the fragment index or NotFound. \p ProbesOut
  /// receives the number of slots inspected.
  int32_t lookup(uint32_t PC, unsigned &ProbesOut) const;

  /// Inserts \p PC -> \p FragmentIndex (PC must not be present).
  /// Returns the number of slots inspected.
  unsigned insert(uint32_t PC, int32_t FragmentIndex);

  /// Removes \p PC (must be present). Returns slots inspected.
  unsigned remove(uint32_t PC);

  size_t size() const { return Live; }

  /// Live entries plus tombstones: the slots a probe may have to pass.
  size_t usedSlots() const { return Used; }

  /// Visits every non-empty slot as (PC, FragmentIndex, IsLive), in slot
  /// order; tombstones have IsLive false. Audit introspection; the table
  /// must not be mutated during the walk.
  template <typename Fn> void forEachUsed(Fn &&Visit) const {
    for (const Slot &S : Slots)
      if (S.State != SlotState::Empty)
        Visit(S.PC, S.Fragment, S.State == SlotState::Live);
  }

private:
  enum class SlotState : uint8_t { Empty, Live, Tombstone };

  struct Slot {
    uint32_t PC = 0;
    int32_t Fragment = NotFound;
    SlotState State = SlotState::Empty;
  };

  std::vector<Slot> Slots;
  size_t Live = 0;
  size_t Used = 0; // Live + tombstones.

  static size_t hashPC(uint32_t PC);
  void grow();
};

} // namespace ccsim

#endif // CCSIM_RUNTIME_DISPATCHTABLE_H
