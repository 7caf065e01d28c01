//===- runtime/DispatchTable.cpp - PC-to-fragment hash table ---------------===//

#include "runtime/DispatchTable.h"
#include "support/Contracts.h"


using namespace ccsim;

DispatchTable::DispatchTable() : Slots(64) {}

size_t DispatchTable::hashPC(uint32_t PC) {
  // Fibonacci hashing; PCs are byte offsets with low-bit structure.
  uint64_t H = PC;
  H *= 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(H >> 32);
}

int32_t DispatchTable::lookup(uint32_t PC, unsigned &ProbesOut) const {
  const size_t Mask = Slots.size() - 1;
  size_t Index = hashPC(PC) & Mask;
  ProbesOut = 0;
  for (;;) {
    ++ProbesOut;
    const Slot &S = Slots[Index];
    if (S.State == SlotState::Empty)
      return NotFound;
    if (S.State == SlotState::Live && S.PC == PC)
      return S.Fragment;
    Index = (Index + 1) & Mask;
  }
}

unsigned DispatchTable::insert(uint32_t PC, int32_t FragmentIndex) {
  CCSIM_ASSERT(FragmentIndex >= 0, "fragment index must be non-negative");
  if ((Used + 1) * 10 >= Slots.size() * 7)
    grow();
  const size_t Mask = Slots.size() - 1;
  size_t Index = hashPC(PC) & Mask;
  unsigned Probes = 0;
  for (;;) {
    ++Probes;
    Slot &S = Slots[Index];
    if (S.State != SlotState::Live) {
      if (S.State == SlotState::Empty)
        ++Used;
      S.PC = PC;
      S.Fragment = FragmentIndex;
      S.State = SlotState::Live;
      ++Live;
      return Probes;
    }
    CCSIM_ASSERT(S.PC != PC, "PC already present in dispatch table");
    Index = (Index + 1) & Mask;
  }
}

unsigned DispatchTable::remove(uint32_t PC) {
  const size_t Mask = Slots.size() - 1;
  size_t Index = hashPC(PC) & Mask;
  unsigned Probes = 0;
  for (;;) {
    ++Probes;
    Slot &S = Slots[Index];
    CCSIM_ASSERT(S.State != SlotState::Empty,
                 "removing a PC that is not present");
    if (S.State == SlotState::Live && S.PC == PC) {
      S.State = SlotState::Tombstone;
      --Live;
      return Probes;
    }
    Index = (Index + 1) & Mask;
  }
}

void DispatchTable::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.size() * 2, Slot());
  Live = 0;
  Used = 0;
  for (const Slot &S : Old)
    if (S.State == SlotState::Live)
      insert(S.PC, S.Fragment);
}
