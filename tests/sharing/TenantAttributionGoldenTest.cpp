//===- tests/sharing/TenantAttributionGoldenTest.cpp - Attribution pins ---===//
//
// Pins every per-tenant counter of MultiTenantSimulator (and the who-
// evicted-whom matrix) for the overlap:3@0.75 suite under 8-unit FIFO at
// pressure 3 (the cache holds a third of the suite's code) with chaining
// on, in every partition mode with sharing on and off. The other
// multi-tenant tests check sums and conservation only; these pins catch a
// change in *which* tenant a charge lands on and in the order a tenant's
// floating-point overheads are accumulated (the doubles are compared bit
// for bit through their hexfloat spelling).
//
//===----------------------------------------------------------------------===//

#include "concurrent/MultiTenantSimulator.h"
#include "workloads/Adversary.h"

#include "gtest/gtest.h"

#include <sstream>
#include <string>

using namespace ccsim;
using namespace ccsim::workloads;

namespace {

const std::vector<Trace> &overlapTraces() {
  static const std::vector<Trace> Traces = [] {
    AdversarySpec Spec = *findAdversarial("overlap");
    Spec.Tenants = 3;
    Spec.OverlapFraction = 0.75;
    return generateTenantOverlapSuite(Spec, 1);
  }();
  return Traces;
}

MultiTenantResult runPinned(PartitionMode Mode, bool ShareCode) {
  TenancyPolicy Policy;
  Policy.Mode = Mode;
  Policy.Granularity = GranularitySpec::units(8);
  Policy.PressureFactor = 3.0;
  Policy.EnableChaining = true;
  Policy.ShareCode = ShareCode;
  MultiTenantSimulator Sim(overlapTraces(), Policy);
  return Sim.run();
}

/// Every TenantResult field, one line per tenant, then the cross matrix.
/// Doubles print as hexfloat, so equal strings mean equal bits.
std::string pin(const MultiTenantResult &R) {
  std::ostringstream Out;
  Out << std::hexfloat;
  for (const TenantResult &T : R.Tenants)
    Out << T.Name << " cap=" << T.CapacityBytes << " max=" << T.MaxCacheBytes
        << " acc=" << T.Accesses << " hit=" << T.Hits << " miss=" << T.Misses
        << " cold=" << T.ColdMisses << " capm=" << T.CapacityMisses
        << " inv=" << T.EvictionInvocationsTriggered
        << " blk=" << T.BlocksEvicted << " byt=" << T.BytesEvicted
        << " lost=" << T.BlocksLostToOthers << " uops=" << T.UnlinkOperations
        << " ulnk=" << T.UnlinkedLinks << " sh=" << T.SharingActive
        << " shi=" << T.SharedInstalls << " shb=" << T.SharedBytesSaved
        << " uns=" << T.UnshareUnlinks << " mov=" << T.MissOverhead
        << " eov=" << T.EvictionOverhead << " uov=" << T.UnlinkOverhead
        << "\n";
  Out << "cross";
  for (uint64_t C : R.CrossEvictedBlocks)
    Out << " " << C;
  Out << "\n";
  return Out.str();
}

} // namespace

TEST(TenantAttributionGoldenTest, SharedModeSharingOn) {
  const MultiTenantResult R = runPinned(PartitionMode::Shared, true);
  // Every tenant both loses shared links and repairs dangling chain
  // links, so batches carrying both kinds of Eq. 4 charge are exercised.
  for (const TenantResult &T : R.Tenants) {
    EXPECT_GT(T.UnshareUnlinks, 0u) << T.Name;
    EXPECT_GT(T.UnlinkOperations, 0u) << T.Name;
  }
  EXPECT_EQ(pin(R),
      "overlap[t0] cap=0 max=49152 acc=3072 hit=2304 miss=768 cold=48 "
      "capm=720 inv=61 blk=757 byt=193792 lost=757 uops=15 ulnk=15 "
      "sh=1 shi=2304 shb=589824 uns=2193 mov=0x1.f1726666666d1p+23 "
      "eov=0x1.2af3aae147adep+20 uov=0x1.a6d7333333235p+19\n"
      "overlap[t1] cap=0 max=49152 acc=3072 hit=1862 miss=1210 "
      "cold=115 capm=1095 inv=0 blk=1149 byt=294144 lost=1149 uops=15 "
      "ulnk=15 sh=1 shi=1862 shb=476672 uns=1806 "
      "mov=0x1.87de73fffff9p+24 eov=0x0p+0 uov=0x1.5cba866666603p+19\n"
      "overlap[t2] cap=0 max=49152 acc=3072 hit=400 miss=2672 "
      "cold=167 capm=2505 inv=125 blk=2558 byt=654848 lost=732 "
      "uops=15 ulnk=15 sh=1 shi=400 shb=102400 uns=387 "
      "mov=0x1.b0acd6666650ap+25 eov=0x1.324d97fffffefp+21 "
      "uov=0x1.33f0333333337p+17\n"
      "cross 0 732 732 0 0 0 757 417 1826\n");
}

TEST(TenantAttributionGoldenTest, SharedModeSharingOff) {
  EXPECT_EQ(pin(runPinned(PartitionMode::Shared, false)),
      "overlap[t0] cap=0 max=49152 acc=3072 hit=0 miss=3072 cold=192 "
      "capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=15 ulnk=15 "
      "sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.ccae0b851eb5fp+22 uov=0x1.6fafffffffffep+12\n"
      "overlap[t1] cap=0 max=49152 acc=3072 hit=0 miss=3072 cold=192 "
      "capm=2880 inv=0 blk=3008 byt=770048 lost=3008 uops=16 ulnk=16 "
      "sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 eov=0x0p+0 "
      "uov=0x1.8833333333331p+12\n"
      "overlap[t2] cap=0 max=49152 acc=3072 hit=0 miss=3072 cold=192 "
      "capm=2880 inv=0 blk=3008 byt=770048 lost=3008 uops=15 ulnk=15 "
      "sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 eov=0x0p+0 "
      "uov=0x1.6fafffffffffep+12\n"
      "cross 3008 3008 3008 0 0 0 0 0 0\n");
}

TEST(TenantAttributionGoldenTest, StaticPartitionSharingOn) {
  EXPECT_EQ(pin(runPinned(PartitionMode::StaticPartition, true)),
      "overlap[t0] cap=16384 max=49152 acc=3072 hit=3024 miss=48 "
      "cold=48 capm=0 inv=0 blk=0 byt=0 lost=0 uops=0 ulnk=0 sh=1 "
      "shi=2304 shb=589824 uns=2256 mov=0x1.f17266666666dp+19 "
      "eov=0x0p+0 uov=0x1.b008666666555p+19\n"
      "overlap[t1] cap=16384 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=16 "
      "ulnk=16 sh=1 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.909987ae14796p+21 uov=0x1.8833333333331p+12\n"
      "overlap[t2] cap=16384 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=15 "
      "ulnk=15 sh=1 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.909987ae14796p+21 uov=0x1.6fafffffffffep+12\n"
      "cross 0 0 0 0 3008 0 0 0 3008\n");
}

TEST(TenantAttributionGoldenTest, StaticPartitionSharingOff) {
  EXPECT_EQ(pin(runPinned(PartitionMode::StaticPartition, false)),
      "overlap[t0] cap=16384 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=15 "
      "ulnk=15 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.909987ae14796p+21 uov=0x1.6fafffffffffep+12\n"
      "overlap[t1] cap=16384 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=16 "
      "ulnk=16 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.909987ae14796p+21 uov=0x1.8833333333331p+12\n"
      "overlap[t2] cap=16384 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=376 blk=3008 byt=770048 lost=0 uops=15 "
      "ulnk=15 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.909987ae14796p+21 uov=0x1.6fafffffffffep+12\n"
      "cross 3008 0 0 0 3008 0 0 0 3008\n");
}

TEST(TenantAttributionGoldenTest, UnitQuotaSharingOn) {
  EXPECT_EQ(pin(runPinned(PartitionMode::UnitQuota, true)),
      "overlap[t0] cap=18432 max=49152 acc=3072 hit=3024 miss=48 "
      "cold=48 capm=0 inv=0 blk=0 byt=0 lost=0 uops=0 ulnk=0 sh=1 "
      "shi=2304 shb=589824 uns=2248 mov=0x1.f17266666666dp+19 "
      "eov=0x0p+0 uov=0x1.ae80333333225p+19\n"
      "overlap[t1] cap=18432 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=125 blk=3000 byt=768000 lost=0 uops=16 "
      "ulnk=16 sh=1 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.324d97fffffefp+21 uov=0x1.8833333333331p+12\n"
      "overlap[t2] cap=18432 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=125 blk=3000 byt=768000 lost=0 uops=15 "
      "ulnk=15 sh=1 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.324d97fffffefp+21 uov=0x1.6fafffffffffep+12\n"
      "cross 0 0 0 0 3000 0 0 0 3000\n");
}

TEST(TenantAttributionGoldenTest, UnitQuotaSharingOff) {
  EXPECT_EQ(pin(runPinned(PartitionMode::UnitQuota, false)),
      "overlap[t0] cap=18432 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=125 blk=3000 byt=768000 lost=0 uops=15 "
      "ulnk=15 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.324d97fffffefp+21 uov=0x1.6fafffffffffep+12\n"
      "overlap[t1] cap=18432 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=125 blk=3000 byt=768000 lost=0 uops=16 "
      "ulnk=16 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.324d97fffffefp+21 uov=0x1.8833333333331p+12\n"
      "overlap[t2] cap=18432 max=49152 acc=3072 hit=0 miss=3072 "
      "cold=192 capm=2880 inv=125 blk=3000 byt=768000 lost=0 uops=15 "
      "ulnk=15 sh=0 shi=0 shb=0 uns=0 mov=0x1.f1726666664bap+25 "
      "eov=0x1.324d97fffffefp+21 uov=0x1.6fafffffffffep+12\n"
      "cross 3000 0 0 0 3000 0 0 0 3000\n");
}
