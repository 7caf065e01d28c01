//===- bench/sweep_onepass.cpp - One-pass vs per-config sweep timing ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// Times the Figure 6/7/8 granularity x pressure lattice (the
// standardGranularitySweep() at the five paper pressures) under both sweep
// backends: dense per-config replay (SweepEngine::runParallel) and the
// one-pass multi-configuration engine (multisweep::runSweepGrid). The two
// must produce bit-identical suite results — the binary exits 2 if they
// ever diverge, so the recorded speedup is always a speedup of *equal*
// work.
//
// Besides the human-readable table the run writes a machine-readable
// BENCH_sweep.json (see --out) so CI and bench/record_bench.sh can track
// the one-pass speedup over time.
//
// Run: ./sweep_onepass --scale=0.2 --out=BENCH_sweep.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "multisweep/MultiConfigEngine.h"
#include "sim/Sweep.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

/// Bit-identity of two suite results: CacheStats compares every counter,
/// doubles included, with ==.
bool suitesEqual(const std::vector<SuiteResult> &A,
                 const std::vector<SuiteResult> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].PolicyLabel != B[I].PolicyLabel ||
        A[I].PressureFactor != B[I].PressureFactor ||
        A[I].Combined != B[I].Combined ||
        A[I].PerBenchmark.size() != B[I].PerBenchmark.size())
      return false;
    for (size_t P = 0; P < A[I].PerBenchmark.size(); ++P) {
      const SimResult &X = A[I].PerBenchmark[P];
      const SimResult &Y = B[I].PerBenchmark[P];
      if (X.BenchmarkName != Y.BenchmarkName ||
          X.PolicyName != Y.PolicyName ||
          X.CapacityBytes != Y.CapacityBytes || X.Stats != Y.Stats)
        return false;
    }
  }
  return true;
}

double elapsedMs(std::chrono::steady_clock::time_point Start,
                 std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags = benchutil::standardFlags(
      "Time the fig6/7/8 sweep lattice under the per-config and one-pass "
      "backends and record the speedup as JSON.");
  Flags.addString("out", "BENCH_sweep.json",
                  "Path for the machine-readable result record.");
  Flags.addString("pressures", "",
                  "Comma-separated pressure axis override (default: the "
                  "paper's 2,4,6,8,10).");
  if (!Flags.parse(Argc, Argv))
    return 1;

  std::vector<double> Pressures = benchutil::pressureAxis();
  if (!Flags.getString("pressures").empty()) {
    Pressures.clear();
    const std::string &Text = Flags.getString("pressures");
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t End = Text.find(',', Pos);
      if (End == std::string::npos)
        End = Text.size();
      Pressures.push_back(std::atof(Text.substr(Pos, End - Pos).c_str()));
      Pos = End + 1;
    }
  }

  benchutil::printHeader("one-pass multi-configuration sweep",
                         "Figures 6-8 lattice (granularity x pressure)");

  const SweepEngine Engine = benchutil::makeEngine(Flags);
  SimConfig Base; // Paper-default costs; pressure comes from the grid.
  const std::vector<SweepJob> Grid =
      makeSweepGrid(standardGranularitySweep(), Pressures, Base);
  std::printf("lattice: %zu configs x %zu benchmarks (scale %.3f, "
              "%u threads)\n\n",
              Grid.size(), Engine.traces().size(), Flags.getDouble("scale"),
              Engine.numThreads());

  const auto PerConfigStart = std::chrono::steady_clock::now();
  const std::vector<SuiteResult> Dense = Engine.runParallel(Grid);
  const auto PerConfigEnd = std::chrono::steady_clock::now();
  const double PerConfigMs = elapsedMs(PerConfigStart, PerConfigEnd);
  std::printf("per-config: %.1f ms\n", PerConfigMs);

  multisweep::MultiSweepOptions Options;
  Options.Mode = multisweep::SweepMode::OnePass;
  Options.Log = [](const std::string &Line) {
    std::fprintf(stderr, "sweep: %s\n", Line.c_str());
  };
  multisweep::OnePassAccounting Accounting;
  const auto OnePassStart = std::chrono::steady_clock::now();
  const std::vector<SuiteResult> OnePass =
      multisweep::runSweepGrid(Engine, Grid, Options, &Accounting);
  const auto OnePassEnd = std::chrono::steady_clock::now();
  const double OnePassMs = elapsedMs(OnePassStart, OnePassEnd);
  std::printf("one-pass:   %.1f ms\n", OnePassMs);

  const bool Equal = suitesEqual(Dense, OnePass);
  const double Speedup = OnePassMs > 0.0 ? PerConfigMs / OnePassMs : 0.0;
  const double AllHitFraction =
      Accounting.DecodedAccesses
          ? static_cast<double>(Accounting.AllResidentShortcuts) /
                static_cast<double>(Accounting.DecodedAccesses)
          : 0.0;
  std::printf("speedup:    %.2fx (%s), all-resident shortcut on %.1f%% of "
              "accesses\n",
              Speedup, Equal ? "results bit-identical" : "RESULTS DIVERGED",
              AllHitFraction * 100.0);

  const std::string OutPath = Flags.getString("out");
  if (std::FILE *Out = std::fopen(OutPath.c_str(), "w")) {
    std::fprintf(Out,
                 "{\n"
                 "  \"bench\": \"sweep_onepass\",\n"
                 "  \"suite\": \"fig6_7_8_lattice\",\n"
                 "  \"scale\": %g,\n"
                 "  \"seed\": %llu,\n"
                 "  \"benchmarks\": %zu,\n"
                 "  \"configs_per_pass\": %zu,\n"
                 "  \"accesses_per_pass\": %llu,\n"
                 "  \"shared_misses\": %llu,\n"
                 "  \"all_hit_fraction\": %.6f,\n"
                 "  \"threads\": %u,\n"
                 "  \"per_config_ms\": %.3f,\n"
                 "  \"one_pass_ms\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"equal\": %s\n"
                 "}\n",
                 Flags.getDouble("scale"),
                 static_cast<unsigned long long>(Flags.getInt("seed")),
                 Engine.traces().size(), Grid.size(),
                 static_cast<unsigned long long>(Accounting.DecodedAccesses),
                 static_cast<unsigned long long>(Accounting.SharedMisses),
                 AllHitFraction, Engine.numThreads(), PerConfigMs, OnePassMs,
                 Speedup, Equal ? "true" : "false");
    std::fclose(Out);
    std::printf("record written to %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  return Equal ? 0 : 2;
}
