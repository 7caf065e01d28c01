//===- perfbench/src/Bench.h - ccsim benchmark internals ------------------===//
//
// Shared declarations of the benchmark program: options, the output-check
// ledger, the span recorder of traced runs, and the workload interface.
//
//===----------------------------------------------------------------------===//

#ifndef CCSIM_PERFBENCH_BENCH_H
#define CCSIM_PERFBENCH_BENCH_H

#include "core/CacheStats.h"
#include "sim/Sweep.h"
#include "trace/Trace.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Accesses a shared-engine guest claims at a time. Much smaller than
/// runShared's default (4096), so the two guests replay nearly the serial
/// order: with 256- or 4096-access chunks the K=2 miss rate swung between
/// about 0.37 and 0.52 from run to run with how the host scheduled them.
constexpr size_t SharedGrabBlock = 16;

/// Command-line options of one benchmark process.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Multiplies every workload's suite size; 1 is the benchmark proper,
  /// smaller values are for the benchmark's own smoke tests.
  double Scale = 1.0;
};

/// Ledger of output checks. A failed check is counted against the checks
/// attempted and reported on stderr; it never aborts the run.
class Checks {
public:
  void expect(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// CacheStats identities (Accesses == Hits + Misses, Misses == Inserts +
/// TooBigMisses) and the Eq. 2-4 totals re-derived from the event counts
/// under the linear cost model.
void checkStats(const ccsim::CacheStats &S, const ccsim::CostModel &Costs,
                const std::string &What, Checks &C);

/// Field-by-field bit equality of two CacheStats.
bool sameStats(const ccsim::CacheStats &A, const ccsim::CacheStats &B);

/// Linear-interpolated quantile of \p Values (copied and sorted), q in
/// [0, 1]. Empty input gives 0.
double quantile(std::vector<double> Values, double Q);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Span recorder of a traced run. Spans carry a name, a start and end, the
/// enclosing span and an id shared by every span of one replay, job or
/// lattice trace. Spans live in memory and are written out at the end.
/// Single-threaded: only the benchmark's main thread opens spans.
class Spans {
public:
  /// Opens a span as a child of the innermost open span; returns its index.
  size_t begin(const char *Name, uint64_t Id);
  /// Closes span \p Index (must be the innermost open span).
  void end(size_t Index);
  /// Seconds covered by span \p Index.
  double seconds(size_t Index) const;

  /// Self time per layer (the text before the first '.' of a span's
  /// name): each span's duration minus the time its direct children
  /// cover.
  double selfSeconds(const std::string &Layer) const;

  /// Writes the spans as a Chrome trace (one complete event per span).
  bool writeChromeTrace(const std::string &Path,
                        const std::string &HostJson) const;

  /// A fresh id for one replay, job or lattice trace.
  uint64_t nextId() { return ++LastId; }

private:
  struct Span {
    const char *Name;
    uint64_t Id;
    int64_t Parent; // Index of the enclosing span, -1 for a root.
    int64_t StartNs;
    int64_t EndNs;
  };
  std::vector<Span> All;
  std::vector<size_t> Open;
  uint64_t LastId = 0;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Spans *S, const char *Name, uint64_t Id)
      : S(S), Index(S ? S->begin(Name, Id) : 0) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double close() {
    if (!S)
      return 0.0;
    if (Open) {
      S->end(Index);
      Open = false;
    }
    return S->seconds(Index);
  }

private:
  Spans *S;
  size_t Index;
  bool Open = true;
};

/// Access-level timings folded into a power-of-two nanosecond histogram;
/// keeps the exact sum so means are not bucket-rounded.
class NsHistogram {
public:
  void add(int64_t Ns);
  uint64_t count() const { return Count; }
  double meanNs() const {
    return Count ? static_cast<double>(SumNs) / static_cast<double>(Count)
                 : 0.0;
  }
  std::string json() const;

private:
  uint64_t Buckets[48] = {};
  uint64_t Count = 0;
  int64_t SumNs = 0;
};

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricValue {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// One metric of the catalog that BENCHMARK.json mirrors.
struct MetricSpec {
  const char *Name;
  const char *Unit;
  const char *Better; // "higher" or "lower"
  bool EndToEnd;
};

const std::vector<MetricSpec> &metricCatalog();

/// \p Name with its catalog unit ("?" when the catalog lacks it, which the
/// self-tests catch).
MetricValue metric(const std::string &Name, double Value);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One timed front-door pass over the workload's whole suite.
struct Round {
  double Seconds = 0.0;
  uint64_t Accesses = 0; ///< Simulated dispatches, summed over configs.
  uint64_t Jobs = 0;
  uint64_t FailedJobs = 0;
  std::vector<double> LatencyMs; ///< Per job.
  /// Per-job stats in canonical job order (deterministic aggregation),
  /// and each job's trace length, parallel to Stats.
  std::vector<ccsim::CacheStats> Stats;
  std::vector<uint64_t> Expected;
};

/// Eq. 1 miss rate and modeled Eq. 2-4 instructions per access over a
/// round, summed in canonical job order so the values repeat bit for bit.
struct ExactMetrics {
  double MissRate = 0.0;
  double OverheadPerAccess = 0.0;
};
ExactMetrics exactMetrics(const Round &R);

/// Inputs the traced run's layer probes replay: the workload's suite
/// (in memory and as .cct files) and its configuration points.
struct ProbeInputs {
  const std::vector<ccsim::Trace> *Traces = nullptr;
  const std::vector<std::string> *Paths = nullptr;
  std::vector<ccsim::SweepJob> Points;       ///< The full point set.
  std::vector<ccsim::SweepJob> SampledPoints; ///< Per-replay probes.
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed: generates the suite, writes it as
  /// .cct files and loads it the way the front door reads it. Spans are
  /// recorded when \p S is set. Repeatable: each call starts afresh.
  /// Returns the seconds spent generating the suite.
  virtual double setup(Spans *S) = 0;

  /// One front-door pass over the suite.
  virtual Round round() = 0;

  /// Workload-specific output checks of one (untimed) round, beyond the
  /// per-job identities every round gets.
  virtual void verify(const Round &R, Checks &C) = 0;

  /// Whether miss_rate/overhead repeat bit for bit (serial replay).
  virtual bool deterministic() const { return true; }

  virtual ProbeInputs probeInputs() const = 0;

  /// Informational lines printed before the result (counters that are
  /// not metrics of this run, or that are absent from it).
  virtual std::vector<std::string> notes() const { return {}; }
};

/// Makes workload \p Name, or null when unknown. \p DataDir is where the
/// set-up writes its .cct files.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Options &Opts,
                                       const std::string &DataDir);

/// Runs every layer probe of a traced run over \p In and returns the
/// per-layer metrics (without the self times, which the caller reads off
/// the spans).
std::vector<MetricValue> runLayerProbes(const ProbeInputs &In, Spans &S,
                                        Checks &C);

} // namespace perfbench

#endif // CCSIM_PERFBENCH_BENCH_H
