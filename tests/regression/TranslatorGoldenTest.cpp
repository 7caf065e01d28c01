//===- tests/regression/TranslatorGoldenTest.cpp - Pinned DBT statistics --===//
//
// Byte-exact regression pins for the mini-DBT. One fixed program+seed runs
// under the three eviction granularities of the paper (FLUSH, 8-unit FIFO,
// fine-grained FIFO), in one-tier and two-tier (UseBasicBlockCache) modes,
// and every field of TranslatorStats is frozen: the integer counters, the
// OpCounter category totals (hexfloat, so the doubles are compared bit for
// bit -- these are the Table 2 slowdown and Figure 9 regression inputs),
// the per-event sample logs, the link-creation counters, and the final
// guest-state digest.
//
// The pins were produced by this repository (not the paper). They exist so
// refactors of the translator/cache-engine plumbing can prove they are
// behaviorally invisible: any drift in eviction order, cost charging, or
// measurement-jitter consumption fails loudly here.
//
// To regenerate after an intentional behavioral change, run this binary
// with CCSIM_PRINT_GOLDEN=1 and paste the printed table (same commit as
// the change).
//
//===----------------------------------------------------------------------===//

#include "runtime/Translator.h"

#include "isa/ProgramGenerator.h"
#include "../support/AuditAssert.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace ccsim;
using ccsim::test::auditsClean;

namespace {

ProgramSpec goldenSpec() {
  ProgramSpec S;
  S.NumFunctions = 12;
  S.OuterIterations = 400;
  S.InnerIterations = 6;
  S.TopLevelCalls = 3;
  S.MeanCallsPerFunction = 0.5;
  S.RareBranchProb = 0.15;
  S.Seed = 2004;
  return S;
}

struct GoldenConfig {
  const char *Name;
  GranularitySpec Policy;
  bool TwoTier;
};

const GoldenConfig kConfigs[] = {
    {"flush_1tier", GranularitySpec::flush(), false},
    {"units8_1tier", GranularitySpec::units(8), false},
    {"fine_1tier", GranularitySpec::fine(), false},
    {"flush_2tier", GranularitySpec::flush(), true},
    {"units8_2tier", GranularitySpec::units(8), true},
    {"fine_2tier", GranularitySpec::fine(), true},
};

/// Every field of TranslatorStats (plus the guest digest) rendered into
/// one canonical string. Doubles use hexfloat so equality is bitwise.
std::string fingerprint(const Translator &T) {
  const TranslatorStats &S = T.stats();
  std::string Out;
  char Buf[128];
  const auto U = [&](const char *Key, uint64_t Value) {
    std::snprintf(Buf, sizeof(Buf), "%s=%llu;", Key,
                  static_cast<unsigned long long>(Value));
    Out += Buf;
  };
  const auto D = [&](const char *Key, double Value) {
    std::snprintf(Buf, sizeof(Buf), "%s=%a;", Key, Value);
    Out += Buf;
  };
  const auto Samples = [&](const char *Key,
                           const std::vector<OpCounter::Sample> &V) {
    double SumX = 0, SumOps = 0;
    for (const OpCounter::Sample &Entry : V) {
      SumX += Entry.X;
      SumOps += Entry.Ops;
    }
    std::snprintf(Buf, sizeof(Buf), "%s=%zu,%a,%a;", Key, V.size(), SumX,
                  SumOps);
    Out += Buf;
  };

  U("guest", S.GuestInstructions);
  U("interp", S.InterpretedInstructions);
  U("cache", S.CacheInstructions);
  U("disp", S.Dispatches);
  U("link", S.LinkedTransfers);
  U("ind", S.IndirectTransfers);
  U("iblm", S.IblMisses);
  U("frag", S.FragmentsBuilt);
  U("ev", S.EvictionInvocations);
  U("evf", S.EvictedFragments);
  U("evb", S.EvictedBytes);
  U("unl", S.UnlinkedLinks);
  U("bbi", S.BBInstructions);
  U("bbf", S.BBFragmentsBuilt);
  U("bbev", S.BBEvictionInvocations);
  U("bbevf", S.BBEvictedFragments);
  U("bblt", S.BBLinkedTransfers);
  D("o.interp", S.Ops.InterpOps);
  D("o.exec", S.Ops.CacheExecOps);
  D("o.disp", S.Ops.DispatchOps);
  D("o.prot", S.Ops.ProtectionOps);
  D("o.ibl", S.Ops.IblOps);
  D("o.xlate", S.Ops.TranslateOps);
  D("o.evict", S.Ops.EvictOps);
  D("o.unlink", S.Ops.UnlinkOps);
  D("o.bbxlate", S.Ops.BBTranslateOps);
  D("o.bbevict", S.Ops.BBEvictOps);
  Samples("s.ev", S.Ops.EvictionSamples);
  Samples("s.miss", S.Ops.MissSamples);
  Samples("s.unl", S.Ops.UnlinkSamples);
  U("c.created", S.ChainStats.LinksCreated);
  U("c.inter", S.ChainStats.InterUnitLinksCreated);
  U("c.self", S.ChainStats.SelfLinksCreated);
  U("digest", T.guestState().digest());
  return Out;
}

// Generated with goldenSpec() under CacheBytes=2K / BBCacheBytes=1K
// (small enough that all three granularities evict heavily).
const char *kGoldenFingerprints[] = {
    "guest=636519;interp=279110;cache=357409;disp=9140;link=3428;ind=0;iblm=0;"
    "frag=5388;ev=760;evf=5384;evb=1310162;unl=0;bbi=0;bbf=0;bbev=0;bbevf=0;"
    "bblt=0;o.interp=0x1.54b5ep+22;o.exec=0x1.5d084p+18;o.disp=0x1.5527cp+20;"
    "o.prot=0x1.94731p+24;o.ibl=0x0p+0;o.xlate=0x1.8fa299016de7ap+26;"
    "o.evict=0x1.5d1be3edf1246p+22;o.unlink=0x0p+0;o.bbxlate=0x0p+0;"
    "o.bbevict=0x0p+0;s.ev=760,0x1.3fdd2p+20,0x1.5d1be3edf1246p+22;"
    "s.miss=5388,0x1.401d9p+20,0x1.8fa299016de7ap+26;s.unl=0,0x0p+0,0x0p+0;"
    "c.created=6427;c.inter=0;c.self=1189;digest=1351570998331453304;",
    "guest=636519;interp=276967;cache=359552;disp=9120;link=3456;ind=0;iblm=2;"
    "frag=5362;ev=2435;evf=5354;evb=1298523;unl=473;bbi=0;bbf=0;bbev=0;"
    "bbevf=0;bblt=0;o.interp=0x1.52183p+22;o.exec=0x1.5f2p+18;"
    "o.disp=0x1.55728p+20;o.prot=0x1.93908p+24;o.ibl=0x1.ep+5;"
    "o.xlate=0x1.8cb9725046e4dp+26;o.evict=0x1.45cc76ac98123p+23;"
    "o.unlink=0x1.51a46a065dabdp+17;o.bbxlate=0x0p+0;o.bbevict=0x0p+0;"
    "s.ev=2435,0x1.3d05bp+20,0x1.45cc76ac98123p+23;"
    "s.miss=5362,0x1.3d82cp+20,0x1.8cb9725046e4dp+26;"
    "s.unl=389,0x1.d9p+8,0x1.51a46a065dabdp+17;"
    "c.created=7631;c.inter=5451;c.self=1168;digest=1351570998331453304;",
    "guest=636519;interp=276967;cache=359552;disp=9120;link=3456;ind=0;iblm=2;"
    "frag=5362;ev=2740;evf=5354;evb=1298523;unl=480;bbi=0;bbf=0;bbev=0;"
    "bbevf=0;bblt=0;o.interp=0x1.52183p+22;o.exec=0x1.5f2p+18;"
    "o.disp=0x1.55728p+20;o.prot=0x1.93908p+24;o.ibl=0x1.ep+5;"
    "o.xlate=0x1.8c99c3df2a2e1p+26;o.evict=0x1.61bab9071078bp+23;"
    "o.unlink=0x1.56adeccda3a47p+17;o.bbxlate=0x0p+0;o.bbevict=0x0p+0;"
    "s.ev=2740,0x1.3d05bp+20,0x1.61bab9071078bp+23;"
    "s.miss=5362,0x1.3d82cp+20,0x1.8c99c3df2a2e1p+26;"
    "s.unl=396,0x1.ep+8,0x1.56adeccda3a47p+17;"
    "c.created=7652;c.inter=6484;c.self=1168;digest=1351570998331453304;",
    "guest=636519;interp=263343;cache=357704;disp=7743;link=3474;ind=68;"
    "iblm=23;frag=5418;ev=764;evf=5414;evb=1314798;unl=0;bbi=15472;bbf=478;"
    "bbev=259;bbevf=459;bblt=2346;o.interp=0x1.4176bp+22;o.exec=0x1.715p+18;"
    "o.disp=0x1.23d73p+20;o.prot=0x1.56a1acp+24;o.ibl=0x1.644p+11;"
    "o.xlate=0x1.912c0c8e1eacep+26;o.evict=0x1.5e6425290f7f6p+22;"
    "o.unlink=0x0p+0;o.bbxlate=0x1.17fef2cd28d75p+20;"
    "o.bbevict=0x1.07af8ab8a4f91p+17;"
    "s.ev=764,0x1.40feep+20,0x1.5e6425290f7f6p+22;"
    "s.miss=5418,0x1.413f5p+20,0x1.912c0c8e1eacep+26;s.unl=0,0x0p+0,0x0p+0;"
    "c.created=6449;c.inter=0;c.self=1192;digest=1351570998331453304;",
    "guest=636519;interp=260686;cache=360200;disp=7706;link=3512;ind=59;"
    "iblm=22;frag=5388;ev=2421;evf=5380;evb=1301171;unl=479;bbi=15633;"
    "bbf=473;bbev=254;bbevf=454;bblt=2357;o.interp=0x1.3e386p+22;"
    "o.exec=0x1.73e6cp+18;o.disp=0x1.23646p+20;o.prot=0x1.54fe88p+24;"
    "o.ibl=0x1.644p+11;o.xlate=0x1.8d85bf9058e2ep+26;"
    "o.evict=0x1.44eb772dddaedp+23;o.unlink=0x1.54c0f13e2e2f2p+17;"
    "o.bbxlate=0x1.13e2a78de3a84p+20;o.bbevict=0x1.02ca48c5610eap+17;"
    "s.ev=2421,0x1.3dab3p+20,0x1.44eb772dddaedp+23;"
    "s.miss=5388,0x1.3e284p+20,0x1.8d85bf9058e2ep+26;"
    "s.unl=392,0x1.dfp+8,0x1.54c0f13e2e2f2p+17;"
    "c.created=7658;c.inter=5451;c.self=1170;digest=1351570998331453304;",
    "guest=636519;interp=260686;cache=360200;disp=7706;link=3512;ind=59;"
    "iblm=22;frag=5388;ev=2738;evf=5380;evb=1301171;unl=488;bbi=15633;"
    "bbf=473;bbev=254;bbevf=454;bblt=2357;o.interp=0x1.3e386p+22;"
    "o.exec=0x1.73e6cp+18;o.disp=0x1.23646p+20;o.prot=0x1.54fe88p+24;"
    "o.ibl=0x1.644p+11;o.xlate=0x1.8da05575a9502p+26;"
    "o.evict=0x1.61e4a596174f6p+23;o.unlink=0x1.5b4987c901c0fp+17;"
    "o.bbxlate=0x1.13ca37c66a127p+20;o.bbevict=0x1.0277569d9841cp+17;"
    "s.ev=2738,0x1.3dab3p+20,0x1.61e4a596174f6p+23;"
    "s.miss=5388,0x1.3e284p+20,0x1.8da05575a9502p+26;"
    "s.unl=401,0x1.e8p+8,0x1.5b4987c901c0fp+17;"
    "c.created=7679;c.inter=6509;c.self=1170;digest=1351570998331453304;",
};

std::string runConfig(const GoldenConfig &C) {
  const Program P = generateProgram(goldenSpec());
  TranslatorConfig Config;
  Config.CacheBytes = 2 * 1024;
  Config.Policy = C.Policy;
  Config.UseBasicBlockCache = C.TwoTier;
  Config.BBCacheBytes = 1024;
  Translator T(P, Config);
  T.run(1ULL << 40);
  EXPECT_TRUE(T.guestState().Halted);
  EXPECT_TRUE(auditsClean(check::auditTranslator(T)));
  return fingerprint(T);
}

} // namespace

class TranslatorGolden : public ::testing::TestWithParam<size_t> {};

TEST_P(TranslatorGolden, StatsArePinnedByteExact) {
  const size_t I = GetParam();
  const std::string Got = runConfig(kConfigs[I]);
  if (std::getenv("CCSIM_PRINT_GOLDEN")) {
    std::printf("GOLDEN[%zu] %s\n    \"%s\",\n", I, kConfigs[I].Name,
                Got.c_str());
    return;
  }
  EXPECT_EQ(Got, kGoldenFingerprints[I]) << kConfigs[I].Name;
}

INSTANTIATE_TEST_SUITE_P(Configurations, TranslatorGolden,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return kConfigs[Info.param].Name;
                         });
