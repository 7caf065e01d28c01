//===- tests/shared/SharedStressTest.cpp - K-guest schedule stress --------===//
//
// Multi-guest schedules, where results are nondeterministic by design and
// the contract shifts from byte-identity to invariants: every quiesce
// point (and the final state) passes the structural auditor and the
// conservation identities hold on the aggregate counters. Runs for K in
// {2, 4, 8}; under TSan this doubles as the data race gauntlet for the
// whole shared stack. One two-thread schedule is forced rather than
// raced: a guest that misses a block another guest is installing blocks
// on the engine lock, reports how long it waited even when no telemetry
// sink is wired, and then counts the install race as a hit.
//
//===----------------------------------------------------------------------===//

#include "concurrent/SharedEngineRunner.h"

#include "check/CacheAuditor.h"
#include "trace/TraceGenerator.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

using namespace ccsim;

namespace {

Trace stressTrace(uint64_t Seed) {
  const WorkloadModel *Model = findWorkload("gzip");
  CCSIM_REQUIRE(Model, "gzip workload missing");
  return TraceGenerator::generateBenchmark(scaledWorkload(*Model, 0.05),
                                           Seed);
}

} // namespace

class SharedStressTest : public testing::TestWithParam<unsigned> {};

TEST_P(SharedStressTest, GuestsReplayWithCleanQuiesceAudits) {
  const unsigned Guests = GetParam();
  const Trace T = stressTrace(0xbeef);

  std::atomic<unsigned> Violations{0};
  concurrent::SharedRunConfig RC;
  RC.GuestThreads = Guests;
  RC.PressureFactor = 8.0; // Thrashing: evictions race installs hard.
  RC.Audit = AuditLevel::Full;
  RC.QuiesceInterval = 20000;
  RC.OnViolation = [&Violations](const check::AuditReport &Report,
                                 const char *Where) {
    ++Violations;
    ADD_FAILURE() << "audit violation at " << Where << ":\n"
                  << Report.render();
  };

  const concurrent::SharedRunResult R =
      concurrent::runShared(T, GranularitySpec::units(8), RC);

  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(R.Mode, ShareMode::Concurrent);
  EXPECT_EQ(R.GuestThreads, Guests);
  // Interval audits plus the final one all ran.
  EXPECT_GE(R.QuiesceAudits, T.numAccesses() / RC.QuiesceInterval);
  EXPECT_GE(R.Contention.QuiescePoints, R.QuiesceAudits);

  // Conservation: every access of the trace was replayed exactly once and
  // classified exactly once, whatever the interleaving.
  EXPECT_EQ(R.Stats.Accesses, T.numAccesses());
  EXPECT_EQ(R.Stats.Hits + R.Stats.Misses, R.Stats.Accesses);
  EXPECT_EQ(R.Stats.ColdMisses + R.Stats.CapacityMisses, R.Stats.Misses);
  EXPECT_LE(R.Stats.EvictedBytes, R.Stats.InsertedBytes);
}

TEST_P(SharedStressTest, FlushPolicySurvivesWholeCacheTeardownRaces) {
  // FLUSH is the nastiest schedule for the shared engine: every capacity
  // miss tears down the entire resident set while other guests are mid
  // fast-hit on it, so the fence protocol is exercised at its widest.
  const unsigned Guests = GetParam();
  const Trace T = stressTrace(0xcafe);

  std::atomic<unsigned> Violations{0};
  concurrent::SharedRunConfig RC;
  RC.GuestThreads = Guests;
  RC.PressureFactor = 8.0;
  RC.Audit = AuditLevel::Full;
  RC.QuiesceInterval = 50000;
  RC.OnViolation = [&Violations](const check::AuditReport &Report,
                                 const char *Where) {
    ++Violations;
    ADD_FAILURE() << "audit violation at " << Where << ":\n"
                  << Report.render();
  };

  const concurrent::SharedRunResult R =
      concurrent::runShared(T, GranularitySpec::flush(), RC);

  EXPECT_EQ(Violations.load(), 0u);
  EXPECT_EQ(R.Mode, ShareMode::Concurrent);
  EXPECT_EQ(R.Stats.Accesses, T.numAccesses());
  EXPECT_EQ(R.Stats.Hits + R.Stats.Misses, R.Stats.Accesses);
  EXPECT_EQ(R.Stats.ColdMisses + R.Stats.CapacityMisses, R.Stats.Misses);
}

INSTANTIATE_TEST_SUITE_P(Guests, SharedStressTest,
                         testing::Values(2u, 4u, 8u),
                         [](const testing::TestParamInfo<unsigned> &Info) {
                           return std::string("K").append(
                               std::to_string(Info.param));
                         });

TEST(SharedLockWaitTest, EngineLockWaitIsMeasuredWithoutTelemetry) {
  // Guest A misses block X; making room for X evicts, and A's eviction
  // payload holds EngineMu for a while. Guest B accesses X only once A is
  // inside the payload: X is not indexed yet, so B takes the slow path,
  // loses the fast try_lock and blocks. When B gets the lock, A has made
  // X resident, so B's access is the losing half of an install race: a
  // hit, counted once.
  std::atomic<bool> Armed{false};
  std::atomic<bool> InsidePayload{false};
  SharedEngineConfig Config;
  Config.Engine = CacheEngineConfig(256, /*EnableChaining=*/true);
  Config.Engine.OnEvictPayload =
      [&](std::span<const CodeCache::Resident>) {
        if (!Armed.load())
          return;
        InsidePayload.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      };
  SharedCacheEngine Engine(Config, makePolicy(GranularitySpec::fine()),
                           ShareMode::Concurrent);

  auto Block = [](SuperblockId Id) {
    SuperblockRecord R;
    R.Id = Id;
    R.SizeBytes = 64;
    return R;
  };
  // Fill the cache exactly; the next miss must evict.
  for (SuperblockId Id = 1; Id <= 4; ++Id)
    ASSERT_EQ(Engine.access(Block(Id)), AccessKind::Miss);
  Armed.store(true);

  const SuperblockRecord X = Block(9);
  AccessKind KindA = AccessKind::Hit;
  AccessKind KindB = AccessKind::Miss;
  std::thread A([&] { KindA = Engine.access(X); });
  while (!InsidePayload.load())
    std::this_thread::yield();
  std::thread B([&] { KindB = Engine.access(X); });
  A.join();
  B.join();

  EXPECT_EQ(KindA, AccessKind::Miss);
  EXPECT_EQ(KindB, AccessKind::Hit);
  const ContentionCounters C = Engine.contention();
  EXPECT_GE(C.EngineLockStalls, 1u);
  EXPECT_GE(C.EngineLockWaitMicros, 1000u);
  EXPECT_EQ(C.InstallRaces, 1u);
  EXPECT_EQ(C.FastHits, 1u);

  Engine.settle(6);
  const CacheStats S = Engine.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 5u);
  Engine.quiesce([](const SharedCacheEngine &Q) {
    EXPECT_TRUE(Q.engineForAudit().cache().contains(9));
    const check::AuditReport Report = check::auditSharedEngine(Q);
    EXPECT_TRUE(Report.clean()) << Report.render();
  });
}
