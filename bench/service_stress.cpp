//===- bench/service_stress.cpp - Thread-shared engine stress record ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
//
// The scaling record of the thread-shared CacheEngine, in two sections:
//
//   1. Engine scaling: one generated trace (--benchmark, --scale,
//      --pressure; --accesses accesses) replayed through
//      concurrent::runShared -- the path behind replay/audit
//      --guest-threads and ReplayJob::GuestThreads -- at K = 1, 2, 4 ...
//      --threads guests under the 8-unit FIFO policy. Each row replays the
//      same trace six times: five timed runs with auditing off, whose
//      median run gives the accesses/s, the speedup against K = 1 and the
//      contention counters, and a gate run with Audit = Full, whose
//      audits are the ones runShared runs (every mutation at K = 1; ten
//      quiesce points and the end of the run at K > 1). Every run must
//      satisfy the conservation identities, and every K = 1 run must
//      equal a serial sim::run of the trace field for field.
//
//   2. Service scale-out: thousands of shared-replay jobs pushed through a
//      bounded SimService queue faster than the workers drain it, once per
//      backpressure policy. The gate is exact accounting: every submitted
//      job ends in exactly one terminal state and the tallies sum back to
//      the submission count.
//
// Correctness (conservation, audits, K = 1 identity, accounting) is gated
// by bench/record_service.cmake; wall-clock numbers are recorded but never
// gated. Scaling is reported honestly: misses serialize on the engine
// lock by design (the deferred-settlement contract), so the record keeps
// both the rates and the contention counters that explain them.
//
// Run: ./service_stress --accesses=1000000 --out=BENCH_service.json
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "check/AuditReport.h"
#include "concurrent/SharedEngineRunner.h"
#include "service/LoadDriver.h"
#include "trace/TraceGenerator.h"
#include "trace/WorkloadModel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

using namespace ccsim;

namespace {

struct EngineRow {
  concurrent::SharedRunResult Timed; ///< The median timed run.
  double ElapsedMs = 0.0;
  double AccessesPerSec = 0.0;
  double Speedup = 1.0;
  uint64_t QuiesceAudits = 0; ///< Of the gate run.
  uint64_t Violations = 0;
  bool ConservationOk = false;
};

struct LoadRow {
  const char *Policy = "";
  double ElapsedMs = 0.0;
  service::LoadDriverReport Report;
};

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// The conservation identities every replay satisfies, whatever the
/// guest interleaving: each of the \p N accesses replayed once and
/// classified once.
bool conserves(const CacheStats &S, uint64_t N) {
  return S.Accesses == N && S.Hits + S.Misses == S.Accesses &&
         S.ColdMisses + S.CapacityMisses == S.Misses;
}

/// Timed runs per engine row; the row reports the median run.
constexpr int TimedRuns = 5;

unsigned long long ull(uint64_t V) {
  return static_cast<unsigned long long>(V);
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSet Flags("Replay one trace through the thread-shared CacheEngine "
                "at 1..K guest threads and push jobs through the "
                "SimService under sustained load, recording scaling and "
                "contention as JSON.");
  Flags.addString("benchmark", "gzip",
                  "Table 1 benchmark replayed by every row and load job.");
  Flags.addDouble("scale", 1.0, "Workload scale of the engine-row trace.");
  Flags.addInt("accesses", 1000000,
               "Accesses replayed per engine row (0 = the workload's own "
               "length).");
  Flags.addDouble("pressure", 10.0,
                  "Cache pressure factor (cache = maxCache / pressure).");
  Flags.addInt("threads", 8, "Max guest threads (rows double up to this).");
  Flags.addInt("seed", 1, "Trace-generation seed.");
  Flags.addInt("load-jobs", 2000,
               "Shared-replay jobs per sustained-load row.");
  Flags.addInt("load-workers", 2, "Service worker threads under load.");
  Flags.addInt("load-queue", 64, "Service admission-queue capacity.");
  Flags.addInt("load-guests", 2, "Guest threads per load job.");
  Flags.addDouble("load-scale", 0.05,
                  "Workload scale of the load-job trace.");
  Flags.addString("out", "BENCH_service.json",
                  "Path for the machine-readable result record.");
  if (!Flags.parse(Argc, Argv))
    return 1;

  benchutil::printHeader("service stress",
                         "thread-shared engine scaling + service "
                         "scale-out (no paper counterpart)");

  const WorkloadModel *Model = findWorkload(Flags.getString("benchmark"));
  if (!Model) {
    std::fprintf(stderr, "error: unknown benchmark '%s'\n",
                 Flags.getString("benchmark").c_str());
    return 1;
  }
  const uint64_t Seed = static_cast<uint64_t>(Flags.getInt("seed"));

  //===--------------------------------------------------------------------===//
  // Section 1: runShared over 1..K guest threads.
  //===--------------------------------------------------------------------===//

  const double Scale = Flags.getDouble("scale");
  if (Scale <= 0.0 || Flags.getInt("accesses") < 0) {
    std::fprintf(stderr, "error: --scale must be positive and --accesses "
                         "nonnegative\n");
    return 1;
  }
  WorkloadModel RowModel =
      Scale == 1.0 ? *Model : scaledWorkload(*Model, Scale);
  if (Flags.getInt("accesses") > 0)
    RowModel.NumAccesses = static_cast<uint64_t>(Flags.getInt("accesses"));
  const Trace RowTrace = TraceGenerator::generateBenchmark(RowModel, Seed);
  const uint64_t N = RowTrace.numAccesses();
  const GranularitySpec Spec = GranularitySpec::units(8);

  concurrent::SharedRunConfig Timed;
  Timed.PressureFactor = Flags.getDouble("pressure");
  Timed.Audit = AuditLevel::Off;
  if (const std::string Err = Timed.validate(); !Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  const unsigned MaxThreads =
      Flags.getInt("threads") >= 1
          ? static_cast<unsigned>(Flags.getInt("threads"))
          : 1;

  const SimResult Serial = sim::run(RowTrace, Spec, Timed);
  std::vector<EngineRow> Rows;
  bool ConservationOk = true;
  bool AuditClean = true;
  bool K1SerialIdentical = false;
  for (unsigned K = 1; K <= MaxThreads; K *= 2) {
    Timed.GuestThreads = K;
    EngineRow Row;
    Row.ConservationOk = true;
    bool RunsMatchSerial = true;
    std::vector<std::pair<double, concurrent::SharedRunResult>> Runs;
    for (int I = 0; I < TimedRuns; ++I) {
      const auto Start = std::chrono::steady_clock::now();
      concurrent::SharedRunResult R =
          concurrent::runShared(RowTrace, Spec, Timed);
      const double Ms = msSince(Start);
      Row.ConservationOk = Row.ConservationOk && conserves(R.Stats, N);
      RunsMatchSerial = RunsMatchSerial && R.Stats == Serial.Stats;
      Runs.emplace_back(Ms, std::move(R));
    }
    std::sort(Runs.begin(), Runs.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    std::tie(Row.ElapsedMs, Row.Timed) = Runs[Runs.size() / 2];
    Row.AccessesPerSec =
        Row.ElapsedMs > 0.0 ? static_cast<double>(N) / (Row.ElapsedMs / 1e3)
                            : 0.0;
    Row.Speedup = Rows.empty() || Rows.front().AccessesPerSec <= 0.0
                      ? 1.0
                      : Row.AccessesPerSec / Rows.front().AccessesPerSec;

    // Ten quiesce-point audits per gate run at K > 1, plus the final one.
    concurrent::SharedRunConfig Gate = Timed;
    Gate.Audit = AuditLevel::Full;
    Gate.QuiesceInterval = std::max<uint64_t>(1, N / 10);
    std::atomic<uint64_t> Violations{0};
    Gate.OnViolation = [&Violations, K](const check::AuditReport &Report,
                                        const char *Where) {
      if (Violations.fetch_add(1) == 0)
        std::fprintf(stderr, "audit FAILED at %s (%u guests):\n%s", Where, K,
                     Report.render().c_str());
    };
    const concurrent::SharedRunResult Audited =
        concurrent::runShared(RowTrace, Spec, Gate);
    Row.QuiesceAudits = Audited.QuiesceAudits;
    Row.Violations = Violations.load();

    Row.ConservationOk = Row.ConservationOk && conserves(Audited.Stats, N);
    ConservationOk = ConservationOk && Row.ConservationOk;
    AuditClean = AuditClean && Row.Violations == 0 &&
                 (K == 1 || Row.QuiesceAudits >= 1);
    if (K == 1)
      K1SerialIdentical = RunsMatchSerial && Audited.Stats == Serial.Stats;
    Rows.push_back(Row);
  }

  std::printf("trace %s: %llu accesses, capacity %llu B, policy %s\n",
              RowTrace.Name.c_str(), ull(N), ull(Serial.CapacityBytes),
              Serial.PolicyName.c_str());
  Table EngineOut({"Guests", "Mode", "Maccess/s", "Speedup", "Misses",
                   "Fast hits", "Races", "Lock stalls", "Lock wait ms",
                   "Fence stalls", "Gate"});
  for (const EngineRow &Row : Rows) {
    const ContentionCounters &C = Row.Timed.Contention;
    EngineOut.beginRow();
    EngineOut.cell(Row.Timed.GuestThreads);
    EngineOut.cell(shareModeName(Row.Timed.Mode));
    EngineOut.cell(Row.AccessesPerSec / 1e6, 2);
    EngineOut.cell(Row.Speedup, 2);
    EngineOut.cell(Row.Timed.Stats.Misses);
    EngineOut.cell(C.FastHits);
    EngineOut.cell(C.InstallRaces);
    EngineOut.cell(C.EngineLockStalls);
    EngineOut.cell(static_cast<double>(C.EngineLockWaitMicros) / 1e3, 1);
    EngineOut.cell(C.FenceSharedStalls + C.FenceExclusiveStalls);
    EngineOut.cell(Row.ConservationOk && Row.Violations == 0 ? "clean"
                                                             : "FAILED");
  }
  std::fputs(EngineOut.render().c_str(), stdout);

  //===--------------------------------------------------------------------===//
  // Section 2: sustained service load, one row per backpressure policy.
  //===--------------------------------------------------------------------===//

  const WorkloadModel Scaled =
      Flags.getDouble("load-scale") < 0.999
          ? scaledWorkload(*Model, Flags.getDouble("load-scale"))
          : *Model;
  const Trace LoadTrace = TraceGenerator::generateBenchmark(Scaled, Seed);

  const service::BackpressurePolicy Policies[] = {
      service::BackpressurePolicy::ShedOldest,
      service::BackpressurePolicy::Reject,
  };
  std::vector<LoadRow> LoadRows;
  bool AccountedOk = true;
  for (service::BackpressurePolicy Policy : Policies) {
    service::LoadDriverConfig Config;
    Config.TraceData = LoadTrace;
    Config.GuestThreads =
        Flags.getInt("load-guests") >= 1
            ? static_cast<unsigned>(Flags.getInt("load-guests"))
            : 1;
    Config.TotalJobs = static_cast<uint64_t>(Flags.getInt("load-jobs"));
    Config.Workers = static_cast<unsigned>(Flags.getInt("load-workers"));
    Config.QueueCapacity =
        static_cast<size_t>(Flags.getInt("load-queue"));
    Config.Pressure = Policy;

    LoadRow Row;
    Row.Policy = service::backpressurePolicyName(Policy);
    const auto Start = std::chrono::steady_clock::now();
    Row.Report = service::runSustainedLoad(Config);
    Row.ElapsedMs = msSince(Start);
    AccountedOk = AccountedOk && Row.Report.Accounted;
    LoadRows.push_back(Row);
  }

  Table LoadOut({"Backpressure", "Jobs", "Done", "Shed", "Rejected",
                 "Jobs/s", "Accounted"});
  for (const LoadRow &Row : LoadRows) {
    const service::LoadDriverReport &R = Row.Report;
    LoadOut.beginRow();
    LoadOut.cell(Row.Policy);
    LoadOut.cell(R.Submitted);
    LoadOut.cell(R.Done);
    LoadOut.cell(R.Shed);
    LoadOut.cell(R.Rejected);
    LoadOut.cell(Row.ElapsedMs > 0.0
                     ? static_cast<double>(R.Submitted) /
                           (Row.ElapsedMs / 1000.0)
                     : 0.0,
                 0);
    LoadOut.cell(R.Accounted ? "yes" : "NO");
  }
  std::fputs(LoadOut.render().c_str(), stdout);

  const bool AllClean =
      ConservationOk && AuditClean && K1SerialIdentical && AccountedOk;
  std::printf("\n%s: conservation %s, audits %s, K=1 vs serial %s, "
              "accounting %s\n",
              AllClean ? "clean" : "FAILED",
              ConservationOk ? "ok" : "VIOLATED",
              AuditClean ? "clean" : "VIOLATED",
              K1SerialIdentical ? "identical" : "DIVERGED",
              AccountedOk ? "exact" : "VIOLATED");

  //===--------------------------------------------------------------------===//
  // Record
  //===--------------------------------------------------------------------===//

  const std::string OutPath = Flags.getString("out");
  std::FILE *Json = std::fopen(OutPath.c_str(), "w");
  if (!Json) {
    std::fprintf(stderr, "error: could not write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Json,
               "{\n"
               "  \"bench\": \"service_stress\",\n"
               "  \"host\": %s,\n"
               "  \"benchmark\": \"%s\",\n"
               "  \"policy\": \"%s\",\n"
               "  \"pressure\": %g,\n"
               "  \"ops\": %llu,\n"
               "  \"timed_runs\": %d,\n"
               "  \"threads_max\": %u,\n"
               "  \"capacity_bytes\": %llu,\n"
               "  \"seed\": %llu,\n"
               "  \"conservation_ok\": %s,\n"
               "  \"audit_clean\": %s,\n"
               "  \"k1_serial_identical\": %s,\n"
               "  \"accounted_ok\": %s,\n"
               "  \"engine_rows\": [\n",
               benchutil::hostJson().c_str(), RowTrace.Name.c_str(),
               Serial.PolicyName.c_str(), Timed.PressureFactor, ull(N),
               TimedRuns, MaxThreads, ull(Serial.CapacityBytes), ull(Seed),
               ConservationOk ? "true" : "false",
               AuditClean ? "true" : "false",
               K1SerialIdentical ? "true" : "false",
               AccountedOk ? "true" : "false");
  for (size_t I = 0; I < Rows.size(); ++I) {
    const EngineRow &Row = Rows[I];
    const CacheStats &S = Row.Timed.Stats;
    const ContentionCounters &C = Row.Timed.Contention;
    std::fprintf(
        Json,
        "    {\"threads\": %u, \"mode\": \"%s\", \"elapsed_ms\": %.3f, "
        "\"accesses_per_s\": %.0f, \"speedup\": %.3f, "
        "\"accesses\": %llu, \"hits\": %llu, \"misses\": %llu, "
        "\"cold_misses\": %llu, \"capacity_misses\": %llu, "
        "\"evicted_blocks\": %llu, \"fast_hits\": %llu, "
        "\"install_races\": %llu, "
        "\"engine_lock_stalls\": %llu, \"engine_lock_wait_us\": %llu, "
        "\"fence_shared_stalls\": %llu, \"fence_exclusive_stalls\": %llu, "
        "\"quiesce_audits\": %llu}%s\n",
        Row.Timed.GuestThreads, shareModeName(Row.Timed.Mode), Row.ElapsedMs,
        Row.AccessesPerSec, Row.Speedup, ull(S.Accesses), ull(S.Hits),
        ull(S.Misses), ull(S.ColdMisses), ull(S.CapacityMisses),
        ull(S.EvictedBlocks), ull(C.FastHits), ull(C.InstallRaces),
        ull(C.EngineLockStalls), ull(C.EngineLockWaitMicros),
        ull(C.FenceSharedStalls), ull(C.FenceExclusiveStalls),
        ull(Row.QuiesceAudits), I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(Json, "  ],\n  \"load_rows\": [\n");
  for (size_t I = 0; I < LoadRows.size(); ++I) {
    const LoadRow &Row = LoadRows[I];
    const service::LoadDriverReport &R = Row.Report;
    std::fprintf(
        Json,
        "    {\"backpressure\": \"%s\", \"elapsed_ms\": %.3f, "
        "\"submitted\": %llu, \"done\": %llu, \"failed\": %llu, "
        "\"cancelled\": %llu, \"timed_out\": %llu, \"rejected\": %llu, "
        "\"shed\": %llu, \"accesses_replayed\": %llu, "
        "\"accounted\": %s}%s\n",
        Row.Policy, Row.ElapsedMs, ull(R.Submitted), ull(R.Done),
        ull(R.Failed), ull(R.Cancelled), ull(R.TimedOut), ull(R.Rejected),
        ull(R.Shed), ull(R.AccessesReplayed),
        R.Accounted ? "true" : "false", I + 1 < LoadRows.size() ? "," : "");
  }
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("record written to %s\n", OutPath.c_str());
  return AllClean ? 0 : 2;
}
