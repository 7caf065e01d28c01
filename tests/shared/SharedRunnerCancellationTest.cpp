//===- tests/shared/SharedRunnerCancellationTest.cpp - runShared stops ----===//
//
// runShared honors the cooperative cancellation contract of sim::run. With
// one guest it throws the identical ReplayCancelled -- same message, same
// TimedOut flag -- on the same trace, for both trace sources. With two
// guests every guest stops at its next poll and the run rethrows
// ReplayCancelled instead of hanging.
//
//===----------------------------------------------------------------------===//

#include "concurrent/SharedEngineRunner.h"

#include "sim/Simulator.h"
#include "support/Cancellation.h"
#include "trace/MappedTrace.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"

#include "gtest/gtest.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

using namespace ccsim;

namespace {

Trace benchTrace() {
  return TraceGenerator::generateBenchmark(
      scaledWorkload(*findWorkload("gzip"), 0.02), 0xca11);
}

/// How a replay ended: the ReplayCancelled it threw, if any.
struct Stop {
  bool Threw = false;
  std::string What;
  bool TimedOut = false;
};

Stop stopOf(const std::function<void()> &Replay) {
  try {
    Replay();
  } catch (const ReplayCancelled &RC) {
    return {true, RC.what(), RC.TimedOut};
  }
  return {};
}

/// A token that asks to stop before the first access: cancelled, or with
/// a deadline already in the past.
void arm(CancelToken &Token, bool Deadline) {
  if (Deadline)
    Token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  else
    Token.requestCancel();
}

class SharedRunnerCancellationTest : public testing::TestWithParam<bool> {};

} // namespace

TEST_P(SharedRunnerCancellationTest, OneGuestThrowsWhatSerialThrows) {
  const bool Deadline = GetParam();
  const Trace T = benchTrace();
  const GranularitySpec Spec = GranularitySpec::units(8);
  CancelToken Token;
  arm(Token, Deadline);

  SimConfig Serial;
  Serial.PressureFactor = 4.0;
  Serial.Cancel = &Token;
  const Stop Want = stopOf([&] { sim::run(T, Spec, Serial); });
  ASSERT_TRUE(Want.Threw);
  EXPECT_EQ(Want.TimedOut, Deadline);

  concurrent::SharedRunConfig RC;
  static_cast<SimConfig &>(RC) = Serial;
  RC.GuestThreads = 1;
  const Stop Owned = stopOf([&] { concurrent::runShared(T, Spec, RC); });
  EXPECT_TRUE(Owned.Threw);
  EXPECT_EQ(Owned.What, Want.What);
  EXPECT_EQ(Owned.TimedOut, Want.TimedOut);

  const std::string Path =
      testing::TempDir() + "shared_cancel_trace_" +
      (Deadline ? "deadline" : "cancel") + ".cct";
  ASSERT_TRUE(writeTrace(T, Path));
  auto Mapped = trace::MappedTrace::open(Path);
  ASSERT_TRUE(Mapped.has_value());
  const Stop FromMap =
      stopOf([&] { concurrent::runShared(*Mapped, Spec, RC); });
  EXPECT_TRUE(FromMap.Threw);
  EXPECT_EQ(FromMap.What, Want.What);
  EXPECT_EQ(FromMap.TimedOut, Want.TimedOut);
  std::remove(Path.c_str());
}

TEST_P(SharedRunnerCancellationTest, TwoGuestsStopWithoutHanging) {
  const bool Deadline = GetParam();
  const Trace T = benchTrace();
  CancelToken Token;
  arm(Token, Deadline);

  concurrent::SharedRunConfig RC;
  RC.GuestThreads = 2;
  RC.PressureFactor = 4.0;
  RC.GrabBlock = 64;
  RC.CancelCheckInterval = 128;
  RC.Cancel = &Token;
  const Stop Got = stopOf(
      [&] { concurrent::runShared(T, GranularitySpec::units(8), RC); });
  ASSERT_TRUE(Got.Threw);
  EXPECT_EQ(Got.TimedOut, Deadline);
  EXPECT_NE(Got.What.find("replay of " + T.Name + " stopped after"),
            std::string::npos)
      << Got.What;
  EXPECT_NE(Got.What.find(Deadline ? "deadline expired" : "cancelled"),
            std::string::npos)
      << Got.What;
}

INSTANTIATE_TEST_SUITE_P(CancelOrDeadline, SharedRunnerCancellationTest,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Deadline" : "Cancel";
                         });
