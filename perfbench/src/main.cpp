//===- perfbench/src/main.cpp - ccsim benchmark program -------------------===//
//
// Runs one workload for a fixed time and prints its metrics:
//
//   ccsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scale <f>]
//   ccsim_perfbench --list-metrics
//
// Untraced runs (--trace 0) time the workload's front door and print the
// end-to-end metrics. Traced runs (--trace 1) replay the same inputs
// through every layer with spans around each call and print the per-layer
// metrics; the spans go to .bench_build/perfbench-spans/. The last stdout
// line is always one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/CacheEngine.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace ccsim;
using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 5;
/// Timed rounds per untraced run, at least.
constexpr size_t MinRounds = 3;

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S = Brand;
    const size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out += Ch;
  }
  return Out + "\"";
}

std::string hostJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + jsonString(cpuModel()) +
         ", \"compiler\": " + jsonString(CCSIM_BENCH_COMPILER) +
         ", \"build_type\": " + jsonString(CCSIM_BENCH_BUILD_TYPE) + "}";
}

/// Refuses to time anything but an optimized, non-auditing build.
const char *buildGuard() {
  if (std::strcmp(CCSIM_BENCH_BUILD_TYPE, "Release") != 0)
    return "not a Release build";
#ifdef CCSIM_PARANOID
  return "a CCSIM_PARANOID build";
#endif
  if (defaultAuditLevel() != AuditLevel::Off)
    return "the default audit level is not Off";
  return nullptr;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::string formatNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<MetricValue> &Metrics) {
  std::string Out = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Metrics[I].Name) + ": {\"value\": " +
           formatNumber(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

int listMetrics() {
  std::printf("[\n");
  const std::vector<MetricSpec> &All = metricCatalog();
  for (size_t I = 0; I < All.size(); ++I)
    std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"end_to_end\": %s}%s\n",
                All[I].Name, All[I].Unit, All[I].Better,
                All[I].EndToEnd ? "true" : "false",
                I + 1 < All.size() ? "," : "");
  std::printf("]\n");
  return 0;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: ccsim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>]\n       "
               "ccsim_perfbench --list-metrics\n",
               Why);
  return 2;
}

std::optional<Options> parseArgs(int Argc, char **Argv, bool &List) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--list-metrics") {
      List = true;
      continue;
    }
    if (I + 1 >= Argc)
      return std::nullopt;
    const std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), &End);
    } else if (Arg == "--trace") {
      Opts.Trace = Val == "1";
      if (Val != "0" && Val != "1")
        return std::nullopt;
    } else if (Arg == "--scale") {
      Opts.Scale = std::strtod(Val.c_str(), &End);
    } else {
      return std::nullopt;
    }
    if (End && *End != '\0')
      return std::nullopt;
  }
  if (!List && (!HaveWorkload || Opts.Seconds <= 0 || Opts.Scale <= 0))
    return std::nullopt;
  return Opts;
}

/// Per-job checks every round gets: the CacheStats identities, the Eq. 2-4
/// re-derivation and the job's access count.
void checkRound(const Round &R, Checks &C) {
  for (size_t I = 0; I < R.Stats.size(); ++I) {
    const std::string What = "job " + std::to_string(I);
    checkStats(R.Stats[I], CostModel::paperDefaults(), What, C);
    C.expect(I < R.Expected.size() && R.Stats[I].Accesses == R.Expected[I],
             What + ": replayed access count differs from the trace length");
  }
}

/// Removes the set-up's data directory on every exit path.
struct DataDir {
  std::string Path;
  ~DataDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

int run(const Options &Opts) {
  if (const char *Why = buildGuard()) {
    std::fprintf(stderr, "refusing to time %s\n", Why);
    return 3;
  }
  DataDir Data{".bench_build/perfbench-data/" + Opts.Workload + "-" +
               std::to_string(::getpid())};
  std::filesystem::create_directories(Data.Path);
  std::unique_ptr<Workload> W = makeWorkload(Opts.Workload, Opts, Data.Path);
  if (!W)
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());

  const std::string Host = hostJson();
  std::printf("host: %s\n", Host.c_str());

  Spans S;
  Spans *Traced = Opts.Trace ? &S : nullptr;
  Checks C;
  uint64_t Jobs = 0, FailedJobs = 0;

  std::vector<double> SetupSeconds, GenerateSeconds;
  for (int I = 0; I < SetupRepeats; ++I) {
    const Clock::time_point T0 = Clock::now();
    GenerateSeconds.push_back(W->setup(Traced));
    SetupSeconds.push_back(secondsSince(T0));
  }

  // Warm-up pass: untimed, and the reference for the output checks and the
  // exact simulated metrics.
  const Round Warm = W->round();
  Jobs += Warm.Jobs;
  FailedJobs += Warm.FailedJobs;
  checkRound(Warm, C);
  W->verify(Warm, C);
  const ExactMetrics Exact = exactMetrics(Warm);
  if (W->deterministic())
    std::printf("exact: miss_rate=%s overhead_insns_per_access=%s\n",
                formatNumber(Exact.MissRate).c_str(),
                formatNumber(Exact.OverheadPerAccess).c_str());

  std::vector<MetricValue> Metrics;
  auto Put = [&](const char *Name, double Value) {
    Metrics.push_back(metric(Name, Value));
  };

  if (!Opts.Trace) {
    std::vector<double> AccessRates, JobRates, P50s, P90s, MissRates,
        Overheads;
    size_t TimedJobs = 0;
    const Clock::time_point Start = Clock::now();
    // Whole rounds only, so every round replays the same job mix; stop
    // before a round that would overrun the measuring time.
    double LastRound = 0.0;
    while (AccessRates.size() < MinRounds ||
           secondsSince(Start) + LastRound <= Opts.Seconds) {
      const Round R = W->round();
      Jobs += R.Jobs;
      FailedJobs += R.FailedJobs;
      checkRound(R, C);
      const ExactMetrics E = exactMetrics(R);
      if (W->deterministic())
        C.expect(E.MissRate == Exact.MissRate &&
                     E.OverheadPerAccess == Exact.OverheadPerAccess,
                 "simulated metrics changed between rounds");
      MissRates.push_back(E.MissRate);
      Overheads.push_back(E.OverheadPerAccess);
      LastRound = R.Seconds;
      AccessRates.push_back(static_cast<double>(R.Accesses) / R.Seconds);
      JobRates.push_back(static_cast<double>(R.Jobs) / R.Seconds);
      // Latency percentiles per round, then the median over rounds: the
      // host's speed drifts over seconds, and a percentile over the whole
      // run would mostly measure how much of the run fell in slow spells.
      P50s.push_back(quantile(R.LatencyMs, 0.5));
      P90s.push_back(quantile(R.LatencyMs, 0.9));
      TimedJobs += R.LatencyMs.size();
    }
    Put("setup_s", quantile(SetupSeconds, 0.5));
    Put("accesses_per_s", quantile(AccessRates, 0.5));
    Put("jobs_per_s", quantile(JobRates, 0.5));
    Put("job_latency_p50_ms", quantile(P50s, 0.5));
    Put("job_latency_p90_ms", quantile(P90s, 0.5));
    Put("peak_rss_mb", peakRssMb());
    Put("miss_rate", W->deterministic() ? Exact.MissRate
                                        : quantile(MissRates, 0.5));
    Put("overhead_insns_per_access",
        W->deterministic() ? Exact.OverheadPerAccess
                           : quantile(Overheads, 0.5));
    std::printf("rounds: %zu, jobs timed: %zu\n", AccessRates.size(),
                TimedJobs);
    for (const std::string &Note : W->notes())
      std::printf("note: %s\n", Note.c_str());
  } else {
    Put("trace.generate_s", quantile(GenerateSeconds, 0.5));
    for (const MetricValue &M : runLayerProbes(W->probeInputs(), S, C))
      Metrics.push_back(M);
    for (const char *Layer :
         {"trace", "core", "sim", "multisweep", "shared", "service"})
      Put(("self_s." + std::string(Layer)).c_str(), S.selfSeconds(Layer));
    std::filesystem::create_directories(".bench_build/perfbench-spans");
    const std::string SpanPath = ".bench_build/perfbench-spans/" +
                                 Opts.Workload + "-seed" +
                                 std::to_string(Opts.Seed) + ".json";
    C.expect(S.writeChromeTrace(SpanPath, Host),
             "cannot write spans to " + SpanPath);
    std::printf("spans: %s\n", SpanPath.c_str());
  }

  const uint64_t Failed = FailedJobs + C.failed();
  printResult(Failed == 0, Jobs + C.attempted(), Failed, Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool List = false;
  const std::optional<Options> Opts = parseArgs(Argc, Argv, List);
  if (!Opts)
    return usage("bad arguments");
  if (List)
    return listMetrics();
  try {
    return run(*Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
