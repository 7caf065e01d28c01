//===- tests/runtime/DispatchTableTest.cpp - Hash table tests --------------===//

#include "runtime/DispatchTable.h"

#include "support/Random.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

#include <map>

using namespace ccsim;
using ccsim::test::auditsClean;

TEST(DispatchTableTest, LookupMissOnEmpty) {
  DispatchTable T;
  unsigned Probes = 0;
  EXPECT_EQ(T.lookup(100, Probes), DispatchTable::NotFound);
  EXPECT_GE(Probes, 1u);
  EXPECT_EQ(T.size(), 0u);
}

TEST(DispatchTableTest, InsertThenLookup) {
  DispatchTable T;
  T.insert(100, 7);
  unsigned Probes = 0;
  EXPECT_EQ(T.lookup(100, Probes), 7);
  EXPECT_EQ(T.size(), 1u);
  EXPECT_TRUE(auditsClean(check::auditDispatchTable(T)));
}

TEST(DispatchTableTest, RemoveMakesLookupMiss) {
  DispatchTable T;
  T.insert(100, 7);
  T.remove(100);
  unsigned Probes = 0;
  EXPECT_EQ(T.lookup(100, Probes), DispatchTable::NotFound);
  EXPECT_EQ(T.size(), 0u);
  EXPECT_TRUE(auditsClean(check::auditDispatchTable(T)));
}

TEST(DispatchTableTest, TombstoneDoesNotBreakProbeChains) {
  DispatchTable T;
  // Insert many entries, remove half, and verify the rest stay findable.
  for (uint32_t PC = 0; PC < 200; ++PC)
    T.insert(PC * 3, static_cast<int32_t>(PC));
  for (uint32_t PC = 0; PC < 200; PC += 2)
    T.remove(PC * 3);
  unsigned Probes = 0;
  for (uint32_t PC = 1; PC < 200; PC += 2)
    EXPECT_EQ(T.lookup(PC * 3, Probes), static_cast<int32_t>(PC));
  for (uint32_t PC = 0; PC < 200; PC += 2)
    EXPECT_EQ(T.lookup(PC * 3, Probes), DispatchTable::NotFound);
  EXPECT_EQ(T.size(), 100u);
  EXPECT_TRUE(auditsClean(check::auditDispatchTable(T)));
}

TEST(DispatchTableTest, GrowthPreservesEntries) {
  DispatchTable T;
  for (uint32_t PC = 0; PC < 5000; ++PC)
    T.insert(PC, static_cast<int32_t>(PC + 1));
  EXPECT_EQ(T.size(), 5000u);
  unsigned Probes = 0;
  for (uint32_t PC = 0; PC < 5000; ++PC)
    ASSERT_EQ(T.lookup(PC, Probes), static_cast<int32_t>(PC + 1));
  EXPECT_TRUE(auditsClean(check::auditDispatchTable(T)));
}

TEST(DispatchTableTest, ReinsertAfterRemove) {
  DispatchTable T;
  T.insert(42, 1);
  T.remove(42);
  T.insert(42, 2);
  unsigned Probes = 0;
  EXPECT_EQ(T.lookup(42, Probes), 2);
  EXPECT_TRUE(auditsClean(check::auditDispatchTable(T)));
}

TEST(DispatchTableTest, RandomChurnAgainstModel) {
  Rng R(99);
  DispatchTable T;
  std::map<uint32_t, int32_t> Model;
  for (int Step = 0; Step < 20000; ++Step) {
    const uint32_t PC = static_cast<uint32_t>(R.nextBelow(800)) * 5;
    const auto It = Model.find(PC);
    if (It == Model.end()) {
      const int32_t Frag = static_cast<int32_t>(R.nextBelow(1 << 20));
      T.insert(PC, Frag);
      Model[PC] = Frag;
    } else {
      T.remove(PC);
      Model.erase(It);
    }
    if (Step % 1024 == 0) {
      ASSERT_TRUE(auditsClean(check::auditDispatchTable(T)));
      ASSERT_EQ(T.size(), Model.size());
    }
  }
  unsigned Probes = 0;
  for (const auto &[PC, Frag] : Model)
    ASSERT_EQ(T.lookup(PC, Probes), Frag);
}
