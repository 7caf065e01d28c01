//===- bench/fig14_overhead_links.cpp - Reproduces Figure 14 --------------===//
//
// Figure 14: relative overhead including cache miss, eviction, AND
// superblock link maintenance (Eq. 4), cache sized at maxCache/10,
// normalized to FLUSH (which pays no unlink costs).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Aggregate.h"

using namespace ccsim;

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Figure 14: relative overhead including link maintenance.");
  Flags.addDouble("pressure", 10.0, "Cache pressure factor.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  benchutil::printHeader(
      "Figure 14: Relative overhead incl. link maintenance, cache = "
      "maxCache/" +
          formatDouble(Flags.getDouble("pressure"), 0),
      "Figure 14: adding link maintenance moves every finer-grained "
      "policy closer to FLUSH (which needs no back-pointer table); the "
      "finest grains shift the most");
  const SweepEngine Engine = benchutil::makeEngine(Flags);

  SimConfig Config;
  Config.PressureFactor = Flags.getDouble("pressure");
  const auto Results = Engine.sweepGranularities(Config);
  const auto WithLinks = relativeOverheadPerBenchmarkMean(Results, true);
  const auto WithoutLinks =
      relativeOverheadPerBenchmarkMean(Results, false);

  Table Out({"Granularity", "Relative (with links)",
             "Relative (Fig.10, no links)", "Shift", "Unlinked links"});
  for (size_t I = 0; I < Results.size(); ++I) {
    Out.beginRow();
    Out.cell(Results[I].PolicyLabel);
    Out.cell(WithLinks[I], 3);
    Out.cell(WithoutLinks[I], 3);
    std::string Shift = "+";
    Shift += formatDouble((WithLinks[I] - WithoutLinks[I]) * 100.0, 2);
    Shift += "pp";
    Out.cell(Shift);
    Out.cell(Results[I].Combined.UnlinkedLinks);
  }
  std::fputs(Out.render().c_str(), stdout);

  std::printf("\nFLUSH shift must be zero; the fine end shifts the most "
              "(paper, Section 5.3: 'the largest changes occurred in the "
              "finer-grained policies')\n");
  return 0;
}
