//===- tests/shared/SharedStressTest.cpp - K-guest schedule stress --------===//
//
// Multi-guest schedules, where results are nondeterministic by design and
// the contract shifts from byte-identity to invariants: every quiesce
// point (and the final state) passes the structural auditor, the
// conservation identities hold on the aggregate counters, and the
// concurrent-installer harness keeps its dispatch table in lockstep with
// residency. Runs for K in {2, 4, 8}; under TSan this doubles as the data
// race gauntlet for the whole shared stack. One two-thread schedule is
// forced rather than raced: a miss that blocks on the engine lock must
// report how long it waited even when no telemetry sink is wired.
//
//===----------------------------------------------------------------------===//

#include "concurrent/SharedEngineRunner.h"

#include "check/CacheAuditor.h"
#include "runtime/ConcurrentInstaller.h"
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

TEST_P(SharedStressTest, ConcurrentInstallerConservesAndStaysConsistent) {
  const unsigned Threads = GetParam();

  InstallerConfig IC;
  IC.CapacityBytes = 128 << 10;
  IC.Threads = Threads;
  IC.Operations = 200000;
  IC.WorkingSet = 4096;
  IC.Seed = 0x5eed + Threads;

  bool FinalAuditClean = false;
  IC.OnFinalQuiesce = [&FinalAuditClean](const SharedCacheEngine &E) {
    const check::AuditReport Report = check::auditSharedEngine(E);
    FinalAuditClean = Report.clean();
    EXPECT_TRUE(Report.clean()) << Report.render();
  };

  const InstallerReport R = runConcurrentInstall(IC);

  EXPECT_TRUE(FinalAuditClean);
  EXPECT_TRUE(R.DispatchConsistent);
  // Operation conservation: every op was a find or a miss; every miss
  // resolved to exactly one of install, lost race, or too-big.
  EXPECT_EQ(R.Finds + R.Misses, IC.Operations);
  EXPECT_EQ(R.Installs + R.InstallRaces + R.TooBig, R.Misses);
  EXPECT_GT(R.Installs, 0u);
  // The dispatch table mirrors residency, so it can never exceed what
  // was ever installed.
  EXPECT_LE(R.DispatchEntries, R.Installs);
}

INSTANTIATE_TEST_SUITE_P(Guests, SharedStressTest,
                         testing::Values(2u, 4u, 8u),
                         [](const testing::TestParamInfo<unsigned> &Info) {
                           return "K" + std::to_string(Info.param);
                         });

TEST(SharedLockWaitTest, EngineLockWaitIsMeasuredWithoutTelemetry) {
  // Guest A installs a block whose install payload holds EngineMu for a
  // while; guest B misses a different block only once A is inside the
  // payload, so B's acquire must lose the fast try_lock and block.
  std::atomic<bool> InsidePayload{false};
  SharedEngineConfig Config;
  Config.Engine = CacheEngineConfig(1 << 16, /*EnableChaining=*/true);
  Config.OnInstallPayload = [&InsidePayload](const SuperblockRecord &) {
    InsidePayload.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  SharedCacheEngine Engine(Config, makePolicy(GranularitySpec::units(8)),
                           ShareMode::Concurrent);

  SuperblockRecord Installed;
  Installed.Id = 1;
  Installed.SizeBytes = 64;
  SuperblockRecord Missed;
  Missed.Id = 2;
  Missed.SizeBytes = 64;

  std::thread A([&] { EXPECT_TRUE(Engine.install(Installed)); });
  while (!InsidePayload.load())
    std::this_thread::yield();
  std::thread B([&] { EXPECT_EQ(Engine.access(Missed), AccessKind::Miss); });
  A.join();
  B.join();

  const ContentionCounters C = Engine.contention();
  EXPECT_GE(C.EngineLockStalls, 1u);
  EXPECT_GE(C.EngineLockWaitMicros, 1000u);
}
