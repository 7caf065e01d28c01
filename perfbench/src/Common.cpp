//===- perfbench/src/Common.cpp - Checks, spans, histograms, catalog ------===//

#include "Bench.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

using namespace ccsim;

namespace perfbench {

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "check failed: %s\n", What.c_str());
}

static bool closeTo(double Got, double Want) {
  return std::fabs(Got - Want) <= 1e-9 * std::max(1.0, std::fabs(Want));
}

void checkStats(const CacheStats &S, const CostModel &Costs,
                const std::string &What, Checks &C) {
  C.expect(S.Accesses == S.Hits + S.Misses,
           What + ": Accesses != Hits + Misses");
  C.expect(S.Misses == S.Inserts + S.TooBigMisses,
           What + ": Misses != Inserts + TooBigMisses");
  // Eq. 3 charges every miss. Inserted misses account for InsertedBytes;
  // a too-big miss (larger than the whole cache) is charged for its own
  // bytes, which CacheStats does not keep, so only a lower bound holds.
  const double Miss = Costs.MissPerByte * static_cast<double>(S.InsertedBytes) +
                      Costs.MissBase * static_cast<double>(S.Misses);
  const double Evict =
      Costs.EvictionPerByte * static_cast<double>(S.EvictedBytes) +
      Costs.EvictionBase * static_cast<double>(S.EvictionInvocations);
  const double Unlink =
      Costs.UnlinkPerLink * static_cast<double>(S.UnlinkedLinks) +
      Costs.UnlinkBase * static_cast<double>(S.UnlinkOperations) +
      Costs.unlinkingOverhead(1) * static_cast<double>(S.UnshareUnlinks);
  if (S.TooBigMisses == 0)
    C.expect(closeTo(S.MissOverhead, Miss), What + ": Eq. 3 total mismatch");
  else
    C.expect(S.MissOverhead - Miss >=
                 Costs.MissPerByte * static_cast<double>(S.TooBigMisses),
             What + ": Eq. 3 total below its too-big-miss lower bound");
  C.expect(closeTo(S.EvictionOverhead, Evict),
           What + ": Eq. 2 total mismatch");
  C.expect(closeTo(S.UnlinkOverhead, Unlink),
           What + ": Eq. 4 total mismatch");
}

bool sameStats(const CacheStats &A, const CacheStats &B) {
  return A.Accesses == B.Accesses && A.Hits == B.Hits &&
         A.Misses == B.Misses && A.ColdMisses == B.ColdMisses &&
         A.CapacityMisses == B.CapacityMisses &&
         A.TooBigMisses == B.TooBigMisses && A.Inserts == B.Inserts &&
         A.InsertedBytes == B.InsertedBytes &&
         A.EvictionInvocations == B.EvictionInvocations &&
         A.EvictedBlocks == B.EvictedBlocks &&
         A.EvictedBytes == B.EvictedBytes &&
         A.UnitsFlushed == B.UnitsFlushed &&
         A.PreemptiveFlushes == B.PreemptiveFlushes &&
         A.WastedBytes == B.WastedBytes && A.LinksCreated == B.LinksCreated &&
         A.InterUnitLinksCreated == B.InterUnitLinksCreated &&
         A.SelfLinksCreated == B.SelfLinksCreated &&
         A.UnlinkedLinks == B.UnlinkedLinks &&
         A.UnlinkOperations == B.UnlinkOperations &&
         A.LinksDestroyed == B.LinksDestroyed &&
         A.SharingActive == B.SharingActive &&
         A.SharedInstalls == B.SharedInstalls &&
         A.SharedBytesSaved == B.SharedBytesSaved &&
         A.UnshareUnlinks == B.UnshareUnlinks &&
         A.MissOverhead == B.MissOverhead &&
         A.EvictionOverhead == B.EvictionOverhead &&
         A.UnlinkOverhead == B.UnlinkOverhead &&
         A.BackPointerBytesPeak == B.BackPointerBytesPeak &&
         A.BackPointerBytesSum == B.BackPointerBytesSum;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

ExactMetrics exactMetrics(const Round &R) {
  uint64_t Accesses = 0, Misses = 0;
  double Overhead = 0.0;
  for (const CacheStats &S : R.Stats) {
    Accesses += S.Accesses;
    Misses += S.Misses;
    Overhead += S.totalOverhead(/*IncludeLinkMaintenance=*/true);
  }
  ExactMetrics M;
  if (Accesses != 0) {
    M.MissRate = static_cast<double>(Misses) / static_cast<double>(Accesses);
    M.OverheadPerAccess = Overhead / static_cast<double>(Accesses);
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

size_t Spans::begin(const char *Name, uint64_t Id) {
  const int64_t Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
  All.push_back({Name, Id, Parent, nowNs(), 0});
  Open.push_back(All.size() - 1);
  return All.size() - 1;
}

void Spans::end(size_t Index) {
  All[Index].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

double Spans::seconds(size_t Index) const {
  const Span &S = All[Index];
  return S.EndNs > S.StartNs ? static_cast<double>(S.EndNs - S.StartNs) * 1e-9
                             : 0.0;
}

double Spans::selfSeconds(const std::string &Layer) const {
  std::vector<int64_t> ChildNs(All.size(), 0);
  for (const Span &S : All)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  int64_t Self = 0;
  for (size_t I = 0; I < All.size(); ++I) {
    const std::string Name = All[I].Name;
    if (Name.compare(0, Layer.size(), Layer) != 0 ||
        Name.size() <= Layer.size() || Name[Layer.size()] != '.')
      continue;
    Self += (All[I].EndNs - All[I].StartNs) - ChildNs[I];
  }
  return static_cast<double>(Self) * 1e-9;
}

bool Spans::writeChromeTrace(const std::string &Path,
                             const std::string &HostJson) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const int64_t Base = All.empty() ? 0 : All.front().StartNs;
  std::fprintf(F, "{\"host\": %s,\n\"traceEvents\": [\n", HostJson.c_str());
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}\n",
                 I ? "," : "", S.Name,
                 static_cast<double>(S.StartNs - Base) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
                 static_cast<unsigned long long>(S.Id), I,
                 static_cast<long long>(S.Parent));
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

void NsHistogram::add(int64_t Ns) {
  const uint64_t V = Ns > 0 ? static_cast<uint64_t>(Ns) : 0;
  const size_t B = std::min<size_t>(std::bit_width(V), 47);
  ++Buckets[B];
  ++Count;
  SumNs += Ns > 0 ? Ns : 0;
}

std::string NsHistogram::json() const {
  std::string Out = "{\"count\":" + std::to_string(Count) +
                    ",\"sum_ns\":" + std::to_string(SumNs) +
                    ",\"log2_buckets\":[";
  size_t Last = 0;
  for (size_t I = 0; I < 48; ++I)
    if (Buckets[I])
      Last = I;
  for (size_t I = 0; I <= Last; ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Buckets[I]);
  }
  return Out + "]}";
}

//===----------------------------------------------------------------------===//
// Catalog (mirrored by BENCHMARK.json; selftest.py keeps them in step)
//===----------------------------------------------------------------------===//

const std::vector<MetricSpec> &metricCatalog() {
  static const std::vector<MetricSpec> Catalog = {
      // End to end.
      {"setup_s", "s", "lower", true},
      {"accesses_per_s", "1/s", "higher", true},
      {"jobs_per_s", "1/s", "higher", true},
      {"job_latency_p50_ms", "ms", "lower", true},
      {"job_latency_p90_ms", "ms", "lower", true},
      {"peak_rss_mb", "MB", "lower", true},
      {"miss_rate", "ratio", "lower", true},
      {"overhead_insns_per_access", "insns", "lower", true},
      // trace
      {"trace.generate_s", "s", "lower", false},
      {"trace.decode_s", "s", "lower", false},
      {"trace.map_s", "s", "lower", false},
      // core
      {"core.make_room_ns", "ns", "lower", false},
      {"core.unlink_ns", "ns", "lower", false},
      {"core.insert_link_ns", "ns", "lower", false},
      {"core.hit_ns", "ns", "lower", false},
      {"core.miss_ns", "ns", "lower", false},
      {"core.hits", "count", "higher", false},
      {"core.misses", "count", "lower", false},
      {"core.eviction_invocations", "count", "lower", false},
      {"core.evicted_blocks", "count", "lower", false},
      {"core.links_created", "count", "lower", false},
      {"core.interunit_links", "count", "lower", false},
      {"core.unlinked_links", "count", "lower", false},
      {"core.backpointer_peak_bytes", "bytes", "lower", false},
      {"core.hit_ratio", "ratio", "higher", false},
      {"core.miss_overhead_insns", "insns", "lower", false},
      {"core.eviction_overhead_insns", "insns", "lower", false},
      {"core.unlink_overhead_insns", "insns", "lower", false},
      // sim
      {"sim.run_s", "s", "lower", false},
      // multisweep
      {"multisweep.plan_s", "s", "lower", false},
      {"multisweep.pass_s", "s", "lower", false},
      {"multisweep.decoded_accesses", "count", "lower", false},
      {"multisweep.all_resident_shortcuts", "count", "higher", false},
      {"multisweep.shared_misses", "count", "lower", false},
      {"multisweep.fallback_points", "count", "lower", false},
      {"multisweep.shortcut_ratio", "ratio", "higher", false},
      {"multisweep.per_config_s", "s", "lower", false},
      // shared
      {"shared.run_s", "s", "lower", false},
      {"shared.fast_hits", "count", "higher", false},
      {"shared.install_races", "count", "lower", false},
      {"shared.fence_shared_stalls", "count", "lower", false},
      {"shared.fence_exclusive_stalls", "count", "lower", false},
      {"shared.engine_lock_stalls", "count", "lower", false},
      {"shared.engine_lock_wait_us", "us", "lower", false},
      {"shared.stalls_per_miss", "ratio", "lower", false},
      // service
      {"service.submit_us", "us", "lower", false},
      {"service.queue_wait_ms", "ms", "lower", false},
      {"service.run_ms", "ms", "lower", false},
      {"service.jobs_done", "count", "higher", false},
      {"service.jobs_failed", "count", "lower", false},
      {"service.peak_queue_depth", "count", "lower", false},
      // The traced run itself.
      {"tracing.untraced_accesses_per_s", "1/s", "higher", false},
      {"tracing.traced_accesses_per_s", "1/s", "higher", false},
      {"tracing.overhead_accesses_per_s", "1/s", "lower", false},
      {"tracing.clock_ns", "ns", "lower", false},
      {"self_s.trace", "s", "lower", false},
      {"self_s.core", "s", "lower", false},
      {"self_s.sim", "s", "lower", false},
      {"self_s.multisweep", "s", "lower", false},
      {"self_s.shared", "s", "lower", false},
      {"self_s.service", "s", "lower", false},
  };
  return Catalog;
}

MetricValue metric(const std::string &Name, double Value) {
  for (const MetricSpec &M : metricCatalog())
    if (Name == M.Name)
      return {Name, M.Unit, Value};
  return {Name, "?", Value};
}

} // namespace perfbench
