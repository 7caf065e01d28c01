//===- tests/concurrent/ThreadPoolTest.cpp - Worker pool tests ------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <stdexcept>
#include <vector>

using namespace ccsim;

TEST(ThreadPoolTest, ZeroJobsIsANoop) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool Pool(8);
  constexpr size_t N = 10000;
  std::vector<std::atomic<uint32_t>> Counts(N);
  Pool.parallelFor(N, [&](size_t I) { ++Counts[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Counts[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, OversubscriptionIsSafe) {
  // Far more workers than jobs, and more jobs than chunks can fill.
  ThreadPool Pool(16);
  std::atomic<uint32_t> Sum{0};
  Pool.parallelFor(3, [&](size_t I) { Sum += static_cast<uint32_t>(I); });
  EXPECT_EQ(Sum.load(), 3u);
}

TEST(ThreadPoolTest, DeterministicResultOrdering) {
  // Results land by index, so output never depends on scheduling.
  ThreadPool Pool(8);
  constexpr size_t N = 1000;
  std::vector<size_t> Out(N, 0);
  Pool.parallelFor(N, [&](size_t I) { Out[I] = I * I; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], I * I);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromFailingIndex) {
  ThreadPool Pool(4);
  constexpr size_t Failing = 137;
  try {
    Pool.parallelFor(1000, [&](size_t I) {
      if (I == Failing)
        throw std::runtime_error("cell 137 failed");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "cell 137 failed");
  }
}

TEST(ThreadPoolTest, PoolSurvivesAnException) {
  // A failed region must not wedge the workers for the next one.
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(100, [](size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::atomic<uint32_t> Count{0};
  Pool.parallelFor(100, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1u);
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Seen(4);
  Pool.parallelFor(4, [&](size_t I) { Seen[I] = std::this_thread::get_id(); });
  for (const std::thread::id &Id : Seen)
    EXPECT_EQ(Id, Caller);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool Pool(4);
  std::atomic<uint32_t> Count{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&]() { ++Count; });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 64u);
}

TEST(ThreadPoolTest, DefaultThreadCountIsHardware) {
  ThreadPool Pool;
  EXPECT_EQ(Pool.threadCount(), ThreadPool::hardwareThreads());
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, TransientParallelForHelper) {
  std::vector<int> Out(50, 0);
  parallelFor(3, Out.size(), [&](size_t I) { Out[I] = 1; });
  for (int V : Out)
    EXPECT_EQ(V, 1);
}
