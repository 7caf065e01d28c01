//===- tests/runtime/TranslatorTest.cpp - Mini-DBT tests -------------------===//
//
// The central property: for ANY configuration (policy, cache size,
// chaining on/off), translated execution must leave the guest in exactly
// the same architectural state as pure interpretation.
//
//===----------------------------------------------------------------------===//

#include "runtime/Translator.h"

#include "isa/ProgramGenerator.h"
#include "runtime/Interpreter.h"
#include "runtime/SystemProfiles.h"
#include "support/Regression.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

#include <tuple>

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

ProgramSpec testSpec(uint64_t Seed) {
  ProgramSpec S;
  S.NumFunctions = 10;
  S.OuterIterations = 150;
  S.InnerIterations = 6;
  S.TopLevelCalls = 3;
  S.MeanCallsPerFunction = 0.5;
  S.RareBranchProb = 0.15;
  S.Seed = Seed;
  return S;
}

ProgramSpec longSpec(uint64_t Seed) {
  ProgramSpec S = testSpec(Seed);
  S.OuterIterations = 1200; // Long enough for the hot phase to dominate.
  return S;
}

uint64_t referenceDigest(const Program &P, size_t MemBytes,
                         uint64_t &StepsOut) {
  GuestState S(MemBytes);
  Interpreter I(P, S);
  StepsOut = I.run(1ULL << 40);
  EXPECT_TRUE(S.Halted);
  return S.digest();
}

} // namespace

// (cache KB, granularity index into standard sweep, chaining).
using EqualityParams = std::tuple<int, int, bool>;

class TranslatorEquality : public ::testing::TestWithParam<EqualityParams> {
};

TEST_P(TranslatorEquality, MatchesInterpreterExactly) {
  const Program P = generateProgram(testSpec(77));
  uint64_t RefSteps = 0;
  const uint64_t RefDigest = referenceDigest(P, 1 << 17, RefSteps);

  TranslatorConfig Config;
  Config.CacheBytes =
      static_cast<uint64_t>(std::get<0>(GetParam())) * 1024;
  Config.Policy =
      standardGranularitySweep()[static_cast<size_t>(std::get<1>(GetParam()))];
  Config.EnableChaining = std::get<2>(GetParam());

  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_TRUE(T.guestState().Halted);
  EXPECT_EQ(Stats.GuestInstructions, RefSteps)
      << "guest instruction counts diverged";
  EXPECT_EQ(T.guestState().digest(), RefDigest)
      << "architectural state diverged";
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
  EXPECT_EQ(Stats.InterpretedInstructions + Stats.CacheInstructions,
            Stats.GuestInstructions);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, TranslatorEquality,
    ::testing::Combine(/*CacheKB=*/::testing::Values(2, 8, 64, 1024),
                       /*Granularity=*/::testing::Values(0, 3, 9),
                       /*Chaining=*/::testing::Bool()),
    [](const ::testing::TestParamInfo<EqualityParams> &Info) {
      return "cache" + std::to_string(std::get<0>(Info.param)) + "k_g" +
             std::to_string(std::get<1>(Info.param)) +
             (std::get<2>(Info.param) ? "_chain" : "_nochain");
    });

TEST(TranslatorTest, BuildsFragmentsForHotCode) {
  const Program P = generateProgram(testSpec(5));
  TranslatorConfig Config;
  Config.CacheBytes = 1 << 20;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.FragmentsBuilt, 5u);
  EXPECT_GT(Stats.CacheInstructions, Stats.InterpretedInstructions);
  EXPECT_GT(Stats.LinkedTransfers, 0u);
}

TEST(TranslatorTest, ColdCodeIsNeverTranslated) {
  // A straight-line program executes every block exactly once: nothing
  // reaches the hotness threshold of 50.
  ProgramBuilder B;
  B.setEntryHere();
  for (int I = 0; I < 100; ++I)
    B.emitAddi(4, 4, 1);
  B.emitHalt();
  const Program P = B.finish();
  TranslatorConfig Config;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 30);
  EXPECT_EQ(Stats.FragmentsBuilt, 0u);
  EXPECT_EQ(Stats.CacheInstructions, 0u);
  EXPECT_EQ(Stats.InterpretedInstructions, 101u);
  EXPECT_TRUE(T.guestState().Halted);
}

TEST(TranslatorTest, HotnessThresholdRespected) {
  // A loop executing exactly 49 times stays interpreted; at 50+ it gets a
  // fragment.
  auto MakeLoop = [](int16_t Trips) {
    ProgramBuilder B;
    B.setEntryHere();
    B.emitMovi(1, Trips);
    ProgramBuilder::Label Loop = B.createLabel();
    B.bind(Loop);
    B.emitAddi(2, 2, 1);
    B.emitAddi(1, 1, -1);
    B.emitBnez(1, Loop);
    B.emitHalt();
    return B.finish();
  };
  const Program P49 = MakeLoop(49);
  TranslatorConfig Config;
  Config.HotThreshold = 50;
  {
    Translator T(P49, Config);
    EXPECT_EQ(T.run(1 << 20).FragmentsBuilt, 0u);
  }
  const Program P200 = MakeLoop(200);
  {
    Translator T(P200, Config);
    EXPECT_GE(T.run(1 << 20).FragmentsBuilt, 1u);
  }
}

TEST(TranslatorTest, SmallCacheForcesEvictionsAndStaysCorrect) {
  const Program P = generateProgram(testSpec(31));
  uint64_t RefSteps = 0;
  const uint64_t RefDigest = referenceDigest(P, 1 << 17, RefSteps);

  TranslatorConfig Config;
  Config.CacheBytes = 2048; // Tiny: heavy eviction churn.
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.EvictionInvocations, 10u);
  EXPECT_GT(Stats.EvictedFragments, 10u);
  EXPECT_EQ(T.guestState().digest(), RefDigest);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
}

TEST(TranslatorTest, BudgetStopsExecution) {
  const Program P = generateProgram(testSpec(11));
  TranslatorConfig Config;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(5000);
  EXPECT_FALSE(T.guestState().Halted);
  // The budget is approximate (fragments complete), but close.
  EXPECT_GE(Stats.GuestInstructions, 5000u);
  EXPECT_LT(Stats.GuestInstructions, 5000u + 2000u);
}

TEST(TranslatorTest, ChainingReducesDispatches) {
  const Program P = generateProgram(longSpec(13));
  TranslatorConfig On, Off;
  On.CacheBytes = Off.CacheBytes = 1 << 20;
  Off.EnableChaining = false;
  Translator TOn(P, On), TOff(P, Off);
  const uint64_t DispatchOn = TOn.run(1ULL << 40).Dispatches;
  const uint64_t DispatchOff = TOff.run(1ULL << 40).Dispatches;
  EXPECT_GT(DispatchOff, DispatchOn * 5);
}

TEST(TranslatorTest, ChainingOffMeansNoLinksNoIbl) {
  const Program P = generateProgram(testSpec(17));
  TranslatorConfig Config;
  Config.EnableChaining = false;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_EQ(T.links().numLinks(), 0u);
  EXPECT_EQ(Stats.LinkedTransfers, 0u);
  EXPECT_EQ(Stats.IndirectTransfers, 0u);
  EXPECT_DOUBLE_EQ(Stats.Ops.IblOps, 0.0);
  EXPECT_DOUBLE_EQ(Stats.Ops.UnlinkOps, 0.0);
}

TEST(TranslatorTest, SlowdownWithoutChainingIsLarge) {
  // Table 2's qualitative claim: disabling chaining is catastrophic.
  const Program P = generateProgram(longSpec(19));
  TranslatorConfig On, Off;
  Off.EnableChaining = false;
  Translator TOn(P, On), TOff(P, Off);
  const double OpsOn = TOn.run(1ULL << 40).Ops.total();
  const double OpsOff = TOff.run(1ULL << 40).Ops.total();
  EXPECT_GT(OpsOff / OpsOn, 4.0);
}

TEST(TranslatorTest, ProtectionTogglesDominateDispatchCost) {
  // The paper: "The cost ... is caused by the memory protection changes".
  const Program P = generateProgram(testSpec(23));
  TranslatorConfig Config;
  Config.EnableChaining = false;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.Ops.ProtectionOps, Stats.Ops.DispatchOps);
}

TEST(TranslatorTest, UnprotectedTranslatorIsFasterButStillSlow) {
  // "In systems where this is not necessary, the slowdown is reduced,
  // but is still significant."
  const Program P = generateProgram(longSpec(29));
  TranslatorConfig On, Off, OffNoProt;
  Off.EnableChaining = false;
  OffNoProt.EnableChaining = false;
  OffNoProt.Weights.ProtectTranslator = false;
  Translator TOn(P, On), TOff(P, Off), TNoProt(P, OffNoProt);
  const double OpsOn = TOn.run(1ULL << 40).Ops.total();
  const double OpsOff = TOff.run(1ULL << 40).Ops.total();
  const double OpsNoProt = TNoProt.run(1ULL << 40).Ops.total();
  EXPECT_LT(OpsNoProt, OpsOff);        // Reduced...
  EXPECT_GT(OpsNoProt / OpsOn, 1.1);   // ...but still significant.
  EXPECT_GT(OpsOff / OpsNoProt, 2.0);  // Protection is the dominant cost.
}

TEST(TranslatorTest, EvictionSamplesFollowEquation2Shape) {
  const Program P = generateProgram(fig9ProgramSpec());
  TranslatorConfig Config;
  Config.CacheBytes = 24 * 1024;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(8000000);
  ASSERT_GT(Stats.Ops.EvictionSamples.size(), 500u);
  // Fit and compare against the paper's coefficients loosely (the bench
  // does the precise comparison).
  RegressionAccumulator Acc;
  for (const auto &S : Stats.Ops.EvictionSamples)
    Acc.add(S.X, S.Ops);
  const LinearFit Fit = Acc.fit();
  EXPECT_NEAR(Fit.Slope, 2.77, 0.5);
  EXPECT_NEAR(Fit.Intercept, 3055.0, 400.0);
  EXPECT_GT(Fit.R2, 0.8);
}

TEST(TranslatorTest, IndirectInlineCachePolymorphismCausesMisses) {
  // Two alternating call sites to one function defeat the exit-stub
  // inline cache.
  ProgramSpec S;
  S.NumFunctions = 3;
  S.OuterIterations = 400;
  S.InnerIterations = 2;
  S.TopLevelCalls = 0;
  S.PolyTopSites = 2;
  S.PolyPeriodLog2 = 0;
  S.MeanCallsPerFunction = 0.0;
  S.Seed = 3;
  const Program P = generateProgram(S);
  TranslatorConfig Config;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.IblMisses, 300u);
}

TEST(TranslatorTest, FragmentsRespectLengthCap) {
  ProgramSpec S = testSpec(37);
  const Program P = generateProgram(S);
  TranslatorConfig Config;
  Config.MaxFragmentGuestInstrs = 16;
  Translator T(P, Config);
  T.run(1ULL << 40);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
  // With a 16-instruction cap, fragment byte sizes stay small.
  T.cache().forEachResident([&](const CodeCache::Resident &R) {
    EXPECT_LE(R.Size, 16u * 7u + 10u * Config.StubBytesPerExit);
  });
}

TEST(TranslatorTest, DeterministicRuns) {
  const Program P = generateProgram(testSpec(41));
  TranslatorConfig Config;
  Config.CacheBytes = 8192;
  Translator A(P, Config), B(P, Config);
  const TranslatorStats &SA = A.run(1ULL << 40);
  const TranslatorStats &SB = B.run(1ULL << 40);
  EXPECT_EQ(SA.GuestInstructions, SB.GuestInstructions);
  EXPECT_EQ(SA.FragmentsBuilt, SB.FragmentsBuilt);
  EXPECT_EQ(SA.EvictionInvocations, SB.EvictionInvocations);
  EXPECT_DOUBLE_EQ(SA.Ops.total(), SB.Ops.total());
}

TEST(TranslatorTest, ChainStatsTrackLinkCreation) {
  const Program P = generateProgram(testSpec(43));
  TranslatorConfig Config;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.ChainStats.LinksCreated, 0u);
}

TEST(TranslatorTraceExportTest, ExportedTraceIsValid) {
  const Program P = generateProgram(testSpec(47));
  TranslatorConfig Config;
  Config.RecordTrace = true;
  Translator T(P, Config);
  T.run(1ULL << 40);
  const Trace Exported = T.exportTrace();
  EXPECT_TRUE(Exported.validate());
  EXPECT_GT(Exported.numSuperblocks(), 0u);
  EXPECT_GT(Exported.numAccesses(), Exported.numSuperblocks());
}

TEST(TranslatorTraceExportTest, AccessCountMatchesFragmentEntries) {
  const Program P = generateProgram(testSpec(53));
  TranslatorConfig Config;
  Config.RecordTrace = true;
  Config.CacheBytes = 1 << 20;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  const Trace Exported = T.exportTrace();
  // Every fragment execution plus every recording run is one access.
  const uint64_t Expected = Stats.FragmentsBuilt + Stats.LinkedTransfers +
                            Stats.IndirectTransfers +
                            /*dispatch entries into the cache=*/0;
  // Dispatch entries that land on an existing fragment also enter it;
  // bound the relationship instead of reconstructing it exactly.
  EXPECT_GE(Exported.numAccesses(), Expected);
  EXPECT_GT(Stats.CacheInstructions, 0u);
}

TEST(TranslatorTraceExportTest, ExportedTraceDrivesIdenticalBlocks) {
  const Program P = generateProgram(testSpec(59));
  TranslatorConfig Config;
  Config.RecordTrace = true;
  Translator T(P, Config);
  T.run(1ULL << 40);
  const Trace Exported = T.exportTrace();
  // Block count equals the number of distinct fragments ever built
  // (stable ids are densified; with a large cache nothing is rebuilt).
  EXPECT_EQ(Exported.numSuperblocks(), T.stats().FragmentsBuilt);
  // Sizes are the translated sizes (positive, include stub bytes).
  for (const SuperblockDef &B : Exported.Blocks)
    EXPECT_GT(B.SizeBytes, 10u);
}

TEST(TranslatorTraceExportTest, DeterministicExport) {
  const Program P = generateProgram(testSpec(61));
  TranslatorConfig Config;
  Config.RecordTrace = true;
  Translator A(P, Config), B(P, Config);
  A.run(1ULL << 40);
  B.run(1ULL << 40);
  EXPECT_EQ(A.exportTrace().Accesses, B.exportTrace().Accesses);
}

// Two-tier (basic-block cache) mode: Section 2.2's DynamoRIO design.
class TwoTierEquality : public ::testing::TestWithParam<int> {};

TEST_P(TwoTierEquality, MatchesInterpreterExactly) {
  const Program P = generateProgram(testSpec(67));
  uint64_t RefSteps = 0;
  const uint64_t RefDigest = referenceDigest(P, 1 << 17, RefSteps);

  TranslatorConfig Config;
  Config.UseBasicBlockCache = true;
  Config.CacheBytes = static_cast<uint64_t>(GetParam()) * 1024;
  Config.BBCacheBytes = 4096; // Small: BB evictions happen too.
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_TRUE(T.guestState().Halted);
  EXPECT_EQ(Stats.GuestInstructions, RefSteps);
  EXPECT_EQ(T.guestState().digest(), RefDigest);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
  EXPECT_EQ(Stats.InterpretedInstructions + Stats.CacheInstructions +
                Stats.BBInstructions,
            Stats.GuestInstructions);
  EXPECT_GT(Stats.BBFragmentsBuilt, 0u);
  EXPECT_GT(Stats.BBInstructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, TwoTierEquality,
                         ::testing::Values(2, 16, 512));

TEST(TwoTierTest, BasicBlockCacheCutsInterpretation) {
  // Section 2.2: the BB cache "allows DynamoRIO to avoid the high
  // overhead of interpretation during every execution of a basic block".
  const Program P = generateProgram(testSpec(71));
  TranslatorConfig InterpCold, BBCold;
  BBCold.UseBasicBlockCache = true;
  Translator TA(P, InterpCold), TB(P, BBCold);
  const TranslatorStats &SA = TA.run(1ULL << 40);
  const TranslatorStats &SB = TB.run(1ULL << 40);
  EXPECT_EQ(TA.guestState().digest(), TB.guestState().digest());
  // Far fewer interpreted instructions with a BB cache.
  EXPECT_LT(SB.InterpretedInstructions, SA.InterpretedInstructions / 3);
}

TEST(TwoTierTest, PromotionStillHappensAtThreshold) {
  const Program P = generateProgram(testSpec(73));
  TranslatorConfig Config;
  Config.UseBasicBlockCache = true;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  // Hot code is promoted: superblocks exist and execute the bulk.
  EXPECT_GT(Stats.FragmentsBuilt, 0u);
  EXPECT_GT(Stats.CacheInstructions, Stats.BBInstructions);
}

TEST(TwoTierTest, TinyBBCacheChurnsButStaysCorrect) {
  const Program P = generateProgram(testSpec(79));
  uint64_t RefSteps = 0;
  const uint64_t RefDigest = referenceDigest(P, 1 << 17, RefSteps);
  TranslatorConfig Config;
  Config.UseBasicBlockCache = true;
  Config.BBCacheBytes = 512;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  EXPECT_GT(Stats.BBEvictionInvocations, 10u);
  EXPECT_EQ(T.guestState().digest(), RefDigest);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
}

TEST(TwoTierTest, BBEvictionsUnderEveryMainGranularity) {
  // The BB tier always evicts at quantum 1 (its own engine, fine policy),
  // regardless of the superblock tier's granularity. Under all three main
  // policies both tiers must churn and still match the interpreter.
  const Program P = generateProgram(longSpec(89));
  uint64_t RefSteps = 0;
  const uint64_t RefDigest = referenceDigest(P, 1 << 17, RefSteps);
  for (const GranularitySpec &G :
       {GranularitySpec::flush(), GranularitySpec::units(8),
        GranularitySpec::fine()}) {
    TranslatorConfig Config;
    Config.UseBasicBlockCache = true;
    Config.CacheBytes = 2048;
    Config.BBCacheBytes = 1024;
    Config.Policy = G;
    Translator T(P, Config);
    const TranslatorStats &Stats = T.run(1ULL << 40);
    EXPECT_EQ(T.guestState().digest(), RefDigest) << G.label();
    EXPECT_GT(Stats.EvictionInvocations, 0u) << G.label();
    EXPECT_GT(Stats.BBEvictionInvocations, 0u) << G.label();
    EXPECT_GT(Stats.BBEvictedFragments, 0u) << G.label();
    // The BB engine's quantum is one fragment no matter the main policy.
    EXPECT_EQ(T.basicBlockEngine().currentQuantum(), 1u);
    EXPECT_TRUE(auditsClean(check::auditTranslator(T))) << G.label();
  }
}

TEST(TwoTierTest, BBTierKeepsFigure9SamplesPure) {
  const Program P = generateProgram(testSpec(83));
  TranslatorConfig Config;
  Config.UseBasicBlockCache = true;
  Config.BBCacheBytes = 1024;
  Translator T(P, Config);
  const TranslatorStats &Stats = T.run(1ULL << 40);
  // BB translations/evictions must not pollute the Eq. 2/3 sample logs.
  EXPECT_EQ(Stats.Ops.MissSamples.size(), Stats.FragmentsBuilt);
  EXPECT_EQ(Stats.Ops.EvictionSamples.size(), Stats.EvictionInvocations);
  EXPECT_GT(Stats.Ops.BBTranslateOps, 0.0);
}
