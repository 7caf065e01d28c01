//===- bench/BenchCommon.h - Shared experiment-harness helpers -----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure bench binaries: a common flag set
/// (--scale, --seed, pressure controls), engine construction, uniform
/// headers so EXPERIMENTS.md can be assembled from bench output directly,
/// and the host descriptor the recorded BENCH_*.json files carry.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_BENCH_BENCHCOMMON_H
#define CCSIM_BENCH_BENCHCOMMON_H

#include "sim/Sweep.h"
#include "support/Csv.h"
#include "support/Flags.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace ccsim {
namespace benchutil {

/// Flag set shared by figure benches. --scale shrinks the suite for
/// smoke runs; 1.0 reproduces the full Table 1 suite.
inline FlagSet standardFlags(const std::string &Description) {
  FlagSet Flags(Description);
  Flags.addDouble("scale", 1.0,
                  "Suite size multiplier (1.0 = full Table 1 suite).");
  Flags.addInt("seed", static_cast<int64_t>(DefaultSuiteSeed),
               "Suite trace-generation seed.");
  Flags.addString("csv", "", "Optional path to also write the series as CSV.");
  return Flags;
}

/// Saves a label x pressure matrix as CSV when --csv was given.
inline void maybeWriteCsv(const FlagSet &Flags,
                          const std::vector<std::string> &Labels,
                          const std::vector<double> &Pressures,
                          const std::vector<std::vector<double>> &Series) {
  const std::string Path = Flags.getString("csv");
  if (Path.empty())
    return;
  std::vector<std::string> Header = {"granularity"};
  for (double P : Pressures)
    Header.push_back(std::string("n").append(formatDouble(P, 0)));
  CsvWriter Csv(Header);
  for (size_t G = 0; G < Labels.size(); ++G) {
    Csv.beginRow();
    Csv.cell(Labels[G]);
    for (size_t PI = 0; PI < Pressures.size(); ++PI)
      Csv.cell(Series[PI][G], 6);
  }
  if (Csv.writeFile(Path))
    std::printf("csv series written to %s\n", Path.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
}

/// Builds the sweep engine for the parsed flags.
inline SweepEngine makeEngine(const FlagSet &Flags) {
  const double Scale = Flags.getDouble("scale");
  const uint64_t Seed = static_cast<uint64_t>(Flags.getInt("seed"));
  if (Scale >= 0.999)
    return SweepEngine::forTable1(Seed);
  return SweepEngine::forScaledTable1(Scale, Seed);
}

/// Prints the uniform experiment header.
inline void printHeader(const std::string &Title,
                        const std::string &PaperReference) {
  std::printf("== %s ==\n", Title.c_str());
  std::printf("paper reference: %s\n\n", PaperReference.c_str());
}

/// The pressure axis of Figures 7, 11 and 15.
inline std::vector<double> pressureAxis() { return {2, 4, 6, 8, 10}; }

/// The host a record was measured on, as a JSON object: hardware threads,
/// compiler and build type (the last two defined by bench/CMakeLists.txt).
inline std::string hostJson() {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" CCSIM_BENCH_COMPILER
         "\", \"build_type\": \"" CCSIM_BENCH_BUILD_TYPE "\"}";
}

} // namespace benchutil
} // namespace ccsim

#endif // CCSIM_BENCH_BENCHCOMMON_H
