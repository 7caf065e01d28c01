//===- tests/runtime/FuzzTest.cpp - Differential and robustness fuzzing ---===//
//
// Two fuzz families:
//  1. Differential: random guest programs executed under randomized
//     translator configurations must match pure interpretation exactly.
//  2. Robustness: the interpreter and translator must terminate cleanly
//     on arbitrary byte images (decode failures halt the guest).
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramGenerator.h"
#include "runtime/Interpreter.h"
#include "runtime/Translator.h"
#include "support/Random.h"

#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

ProgramSpec randomSpec(Rng &R) {
  ProgramSpec S;
  S.NumFunctions = static_cast<uint32_t>(R.nextRange(2, 24));
  S.MinBlocksPerFunction = static_cast<uint32_t>(R.nextRange(1, 4));
  S.MaxBlocksPerFunction =
      S.MinBlocksPerFunction + static_cast<uint32_t>(R.nextRange(0, 6));
  S.MinAluPerBlock = static_cast<uint32_t>(R.nextRange(1, 6));
  S.MaxAluPerBlock =
      S.MinAluPerBlock + static_cast<uint32_t>(R.nextRange(0, 14));
  S.OuterIterations = static_cast<uint32_t>(R.nextRange(30, 400));
  S.InnerIterations = static_cast<uint32_t>(R.nextRange(1, 10));
  S.TopLevelCalls = static_cast<uint32_t>(R.nextRange(1, 6));
  S.MainPhases = static_cast<uint32_t>(R.nextRange(1, 5));
  S.MeanCallsPerFunction = R.nextDouble() * 0.9;
  S.BranchProb = R.nextDouble() * 0.7;
  S.RareBranchProb = R.nextDouble() * 0.5;
  S.RareMaskBits = static_cast<uint32_t>(R.nextRange(2, 9));
  S.SharedCalleeCount = static_cast<uint32_t>(R.nextRange(0, 4));
  S.PolyTopSites = static_cast<uint32_t>(R.nextRange(0, 3));
  S.PolyPeriodLog2 = static_cast<uint32_t>(R.nextRange(0, 3));
  S.LoadStoreProb = R.nextDouble() * 0.6;
  S.Seed = R.next64();
  return S;
}

} // namespace

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, TranslatedEqualsInterpreted) {
  Rng R(GetParam());
  const Program P = generateProgram(randomSpec(R));

  GuestState Ref(1 << 17);
  Interpreter Interp(P, Ref);
  const uint64_t RefSteps = Interp.run(30'000'000);
  if (!Ref.Halted)
    GTEST_SKIP() << "program exceeded the fuzz budget";

  // Randomized configuration.
  TranslatorConfig Config;
  Config.CacheBytes = 1ULL << R.nextRange(10, 20);
  const auto Sweep = standardGranularitySweep();
  Config.Policy = Sweep[R.nextBelow(Sweep.size())];
  Config.EnableChaining = R.nextBool(0.8);
  Config.UseBasicBlockCache = R.nextBool(0.5);
  Config.BBCacheBytes = 1ULL << R.nextRange(9, 16);
  Config.MaxFragmentGuestInstrs =
      static_cast<uint32_t>(R.nextRange(8, 256));
  Config.HotThreshold = static_cast<uint32_t>(R.nextRange(2, 80));

  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  ASSERT_TRUE(T.guestState().Halted);
  EXPECT_EQ(Stats.GuestInstructions, RefSteps)
      << "config: cache=" << Config.CacheBytes
      << " policy=" << Config.Policy.label()
      << " chain=" << Config.EnableChaining
      << " bb=" << Config.UseBasicBlockCache;
  EXPECT_EQ(T.guestState().digest(), Ref.digest());
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 25));

class GarbageImageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GarbageImageFuzz, InterpreterHaltsOnArbitraryBytes) {
  Rng R(GetParam() * 77 + 5);
  Program P;
  P.Bytes.resize(R.nextRange(1, 4096));
  for (uint8_t &B : P.Bytes)
    B = static_cast<uint8_t>(R.nextBelow(256));
  P.EntryPC = static_cast<uint32_t>(R.nextBelow(P.Bytes.size()));

  GuestState S(1 << 12);
  Interpreter I(P, S);
  // Arbitrary bytes may form valid loops, so bound the run; the guest
  // must either halt or still be running sanely — never crash.
  I.run(200'000);
  SUCCEED();
}

TEST_P(GarbageImageFuzz, TranslatorSurvivesArbitraryBytes) {
  Rng R(GetParam() * 131 + 9);
  Program P;
  P.Bytes.resize(R.nextRange(16, 4096));
  for (uint8_t &B : P.Bytes)
    B = static_cast<uint8_t>(R.nextBelow(256));
  P.EntryPC = static_cast<uint32_t>(R.nextBelow(P.Bytes.size()));

  TranslatorConfig Config;
  Config.CacheBytes = 4096;
  Config.HotThreshold = 3; // Force translation attempts quickly.
  Config.UseBasicBlockCache = (GetParam() % 2) == 0;
  Translator T(P, Config);
  T.run(200'000);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageImageFuzz,
                         ::testing::Range<uint64_t>(1, 13));
