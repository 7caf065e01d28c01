//===- perfbench/src/Layers.cpp - Per-layer probes of a traced run --------===//
//
// A traced run replays the workload's suite and configuration points
// through each ccsim layer's public entry points, with spans around every
// call. Every span is opened from this file: no layer is modified. The
// access-level timings of the core probe split a miss at the engine's
// public payload hooks (OnEvictPayload, OnUnlinkPayload).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "concurrent/SharedEngineRunner.h"
#include "core/CacheEngine.h"
#include "multisweep/MultiConfigEngine.h"
#include "service/SimService.h"
#include "trace/MappedTrace.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <deque>

using namespace ccsim;

namespace perfbench {

namespace {

class Emitter {
public:
  explicit Emitter(std::vector<MetricValue> &Out) : Out(Out) {}
  void operator()(const char *Name, double Value) {
    Out.push_back(metric(Name, Value));
  }

private:
  std::vector<MetricValue> &Out;
};

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

/// Median of a fixed-width histogram, interpolated inside its bucket.
double histogramMedian(const Histogram &H) {
  const uint64_t Total = H.totalCount();
  if (Total == 0)
    return 0.0;
  const double Half = static_cast<double>(Total) / 2.0;
  double Seen = 0.0;
  for (size_t I = 0; I < H.numBuckets(); ++I) {
    const double N = static_cast<double>(H.bucketCount(I));
    if (Seen + N >= Half && N > 0)
      return H.bucketLow(I) +
             (H.bucketHigh(I) - H.bucketLow(I)) * ((Half - Seen) / N);
    Seen += N;
  }
  return H.bucketHigh(H.numBuckets() - 1);
}

/// Mean cost of one steady_clock read pair, for reading the access-level
/// timings (each includes one such pair).
double clockPairNs() {
  constexpr int N = 200000;
  const int64_t T0 = nowNs();
  for (int I = 0; I < N; ++I)
    (void)nowNs();
  return 2.0 * static_cast<double>(nowNs() - T0) / N;
}

void traceProbe(const ProbeInputs &In, Spans &S, Checks &C, Emitter &Put) {
  double Decode = 0.0, Map = 0.0;
  for (size_t B = 0; B < In.Paths->size(); ++B) {
    const std::string &Path = (*In.Paths)[B];
    const Trace &Want = (*In.Traces)[B];
    const uint64_t Id = S.nextId();
    SpanScope D(&S, "trace.decode", Id);
    const std::optional<Trace> T = readTrace(Path);
    Decode += D.close();
    SpanScope M(&S, "trace.map", Id);
    const std::optional<trace::MappedTrace> MT = trace::MappedTrace::open(Path);
    Map += M.close();
    C.expect(T && T->Accesses == Want.Accesses,
             "readTrace of " + Path + " differs from the generated trace");
    C.expect(MT && MT->numAccesses() == Want.numAccesses() &&
                 MT->numSuperblocks() == Want.numSuperblocks(),
             "MappedTrace of " + Path + " differs from the generated trace");
  }
  Put("trace.decode_s", Decode);
  Put("trace.map_s", Map);
}

/// The benchmark's own CacheEngine::access() loop, and sim::run on the
/// same inputs for reference. Returns the per-(point, trace) stats.
std::vector<CacheStats> coreProbe(const ProbeInputs &In, Spans &S, Checks &C,
                                  Emitter &Put) {
  NsHistogram Hit, Miss, MakeRoom, Unlink, InsertLink;
  CacheStats Sum;
  uint64_t BackPointerPeak = 0;
  double CoreSeconds = 0.0, SimSeconds = 0.0;
  uint64_t SimCalls = 0;
  std::vector<CacheStats> PerRun;

  for (const SweepJob &P : In.SampledPoints)
    for (const Trace &T : *In.Traces) {
      const uint64_t Id = S.nextId();
      int64_t EvictAt = 0, UnlinkAt = 0;
      CacheEngineConfig EC(sim::capacityFor(T, P.Config),
                           P.Config.EnableChaining);
      EC.Costs = P.Config.Costs;
      EC.OnEvictPayload = [&](std::span<const CodeCache::Resident>) {
        if (EvictAt == 0)
          EvictAt = nowNs();
      };
      EC.OnUnlinkPayload = [&](std::span<const CodeCache::Resident>,
                               std::span<const uint32_t>) {
        UnlinkAt = nowNs();
      };
      CacheEngine Engine(EC, makePolicy(P.Spec));
      Engine.setAuditLevel(AuditLevel::Off);
      SpanScope Replay(&S, "core.replay", Id);
      for (SuperblockId Sb : T.Accesses) {
        const SuperblockRecord Rec = T.recordFor(Sb);
        EvictAt = UnlinkAt = 0;
        const int64_t T0 = nowNs();
        const AccessKind Kind = Engine.access(Rec);
        const int64_t T1 = nowNs();
        if (Kind == AccessKind::Hit || Kind == AccessKind::SharedHit) {
          Hit.add(T1 - T0);
          continue;
        }
        Miss.add(T1 - T0);
        if (EvictAt == 0) {
          // No eviction, so no hook to split at: the whole miss is the
          // commit-and-link half.
          InsertLink.add(T1 - T0);
          continue;
        }
        const int64_t Repaired = UnlinkAt ? UnlinkAt : EvictAt;
        MakeRoom.add(EvictAt - T0);
        Unlink.add(Repaired - EvictAt);
        InsertLink.add(T1 - Repaired);
      }
      CoreSeconds += Replay.close();

      SpanScope Sim(&S, "sim.run", Id);
      const SimResult Ref = sim::run(T, P.Spec, P.Config);
      SimSeconds += Sim.close();
      ++SimCalls;

      const CacheStats &Got = Engine.stats();
      C.expect(sameStats(Got, Ref.Stats),
               "core access() loop on " + T.Name + " under " + P.Spec.label() +
                   " differs from sim::run");
      checkStats(Got, P.Config.Costs, "core loop on " + T.Name, C);
      PerRun.push_back(Got);
      Sum.merge(Got);
      BackPointerPeak = std::max(BackPointerPeak, Got.BackPointerBytesPeak);
    }

  Put("core.make_room_ns", MakeRoom.meanNs());
  Put("core.unlink_ns", Unlink.meanNs());
  Put("core.insert_link_ns", InsertLink.meanNs());
  Put("core.hit_ns", Hit.meanNs());
  Put("core.miss_ns", Miss.meanNs());
  Put("core.hits", static_cast<double>(Sum.Hits));
  Put("core.misses", static_cast<double>(Sum.Misses));
  Put("core.eviction_invocations", static_cast<double>(Sum.EvictionInvocations));
  Put("core.evicted_blocks", static_cast<double>(Sum.EvictedBlocks));
  Put("core.links_created", static_cast<double>(Sum.LinksCreated));
  Put("core.interunit_links", static_cast<double>(Sum.InterUnitLinksCreated));
  Put("core.unlinked_links", static_cast<double>(Sum.UnlinkedLinks));
  Put("core.backpointer_peak_bytes", static_cast<double>(BackPointerPeak));
  Put("core.hit_ratio", ratio(static_cast<double>(Sum.Hits),
                              static_cast<double>(Sum.Accesses)));
  Put("core.miss_overhead_insns", Sum.MissOverhead);
  Put("core.eviction_overhead_insns", Sum.EvictionOverhead);
  Put("core.unlink_overhead_insns", Sum.UnlinkOverhead);
  Put("sim.run_s", ratio(SimSeconds, static_cast<double>(SimCalls)));

  const double Accesses = static_cast<double>(Sum.Accesses);
  const double Untraced = ratio(Accesses, SimSeconds);
  const double Traced = ratio(Accesses, CoreSeconds);
  Put("tracing.untraced_accesses_per_s", Untraced);
  Put("tracing.traced_accesses_per_s", Traced);
  Put("tracing.overhead_accesses_per_s", Untraced - Traced);
  Put("tracing.clock_ns", clockPairNs());
  std::fprintf(stderr,
               "core histograms: hit %s\n  miss %s\n  make_room %s\n"
               "  unlink %s\n  insert_link %s\n",
               Hit.json().c_str(), Miss.json().c_str(), MakeRoom.json().c_str(),
               Unlink.json().c_str(), InsertLink.json().c_str());
  return PerRun;
}

/// The one-pass backend trace by trace (one thread, one span per
/// MultiConfigEngine::run), then the per-config backend on the same
/// lattice, also on one thread: wall time per backend.
void multisweepProbe(const ProbeInputs &In, Spans &S, Checks &C,
                     Emitter &Put) {
  const std::vector<SweepJob> &Grid = In.Points;
  SpanScope PlanSpan(&S, "multisweep.plan", S.nextId());
  const multisweep::LatticePlan Plan = multisweep::planLattice(Grid);
  Put("multisweep.plan_s", PlanSpan.close());

  multisweep::OnePassAccounting Acct;
  std::vector<std::vector<SimResult>> OnePass;
  double PassSeconds = 0.0;
  for (const Trace &T : *In.Traces) {
    SpanScope Pass(&S, "multisweep.pass", S.nextId());
    multisweep::MultiConfigEngine Engine(T, Grid, Plan);
    OnePass.push_back(Engine.run());
    Acct.merge(Engine.accounting());
    PassSeconds += Pass.close();
  }

  SweepEngine PerConfig(*In.Traces);
  PerConfig.setNumThreads(1);
  SpanScope PerConfigSpan(&S, "multisweep.per_config", S.nextId());
  const std::vector<SuiteResult> Dense = PerConfig.runParallel(Grid);
  const double PerConfigSeconds = PerConfigSpan.close();

  bool Same = Dense.size() == Grid.size();
  for (size_t J = 0; Same && J < Grid.size(); ++J)
    for (size_t B = 0; Same && B < OnePass.size(); ++B)
      Same = OnePass[B].size() == Grid.size() &&
             sameStats(OnePass[B][J].Stats, Dense[J].PerBenchmark[B].Stats);
  C.expect(Same, "one-pass lattice differs from per-config replay");

  Put("multisweep.pass_s", PassSeconds);
  Put("multisweep.decoded_accesses", static_cast<double>(Acct.DecodedAccesses));
  Put("multisweep.all_resident_shortcuts",
      static_cast<double>(Acct.AllResidentShortcuts));
  Put("multisweep.shared_misses", static_cast<double>(Acct.SharedMisses));
  Put("multisweep.fallback_points", static_cast<double>(Plan.numFallbacks()));
  Put("multisweep.shortcut_ratio",
      ratio(static_cast<double>(Acct.AllResidentShortcuts),
            static_cast<double>(Acct.DecodedAccesses)));
  Put("multisweep.per_config_s", PerConfigSeconds);
}

/// runShared with K=2 over the mapped suite, with a telemetry sink wired
/// so the engine times its lock waits.
void sharedProbe(const ProbeInputs &In, Spans &S, Checks &C, Emitter &Put) {
  telemetry::TelemetrySink Sink(1 << 10);
  ContentionCounters Sum;
  uint64_t Misses = 0;
  bool AllConcurrent = true;
  double RunSeconds = 0.0;
  for (const SweepJob &P : In.SampledPoints)
    for (const std::string &Path : *In.Paths) {
      const std::optional<trace::MappedTrace> MT =
          trace::MappedTrace::open(Path);
      if (!MT) {
        C.expect(false, "cannot map " + Path);
        continue;
      }
      concurrent::SharedRunConfig Cfg;
      Cfg.GuestThreads = 2;
      Cfg.PressureFactor = P.Config.PressureFactor;
      Cfg.Costs = P.Config.Costs;
      Cfg.GrabBlock = SharedGrabBlock;
      Cfg.Audit = AuditLevel::Off;
      Cfg.Telemetry = &Sink;
      SpanScope Run(&S, "shared.run", S.nextId());
      const concurrent::SharedRunResult Res =
          concurrent::runShared(*MT, P.Spec, Cfg);
      RunSeconds += Run.close();
      C.expect(Res.Stats.Accesses == MT->numAccesses(),
               "shared run of " + MT->name() + " lost accesses");
      checkStats(Res.Stats, Cfg.Costs, "shared run of " + MT->name(), C);
      AllConcurrent &= Res.Mode == ShareMode::Concurrent;
      Misses += Res.Stats.Misses;
      Sum.FastHits += Res.Contention.FastHits;
      Sum.InstallRaces += Res.Contention.InstallRaces;
      Sum.FenceSharedStalls += Res.Contention.FenceSharedStalls;
      Sum.FenceExclusiveStalls += Res.Contention.FenceExclusiveStalls;
      Sum.EngineLockStalls += Res.Contention.EngineLockStalls;
      Sum.EngineLockWaitMicros += Res.Contention.EngineLockWaitMicros;
    }
  if (!AllConcurrent)
    std::fprintf(stderr, "note: some shared runs fell back to Exact mode, "
                         "where lock waits are not timed\n");
  Put("shared.run_s", RunSeconds);
  Put("shared.fast_hits", static_cast<double>(Sum.FastHits));
  Put("shared.install_races", static_cast<double>(Sum.InstallRaces));
  Put("shared.fence_shared_stalls", static_cast<double>(Sum.FenceSharedStalls));
  Put("shared.fence_exclusive_stalls",
      static_cast<double>(Sum.FenceExclusiveStalls));
  Put("shared.engine_lock_stalls", static_cast<double>(Sum.EngineLockStalls));
  Put("shared.engine_lock_wait_us",
      static_cast<double>(Sum.EngineLockWaitMicros));
  Put("shared.stalls_per_miss",
      ratio(static_cast<double>(Sum.FenceSharedStalls + Sum.FenceExclusiveStalls +
                                Sum.EngineLockStalls),
            static_cast<double>(Misses)));
}

/// A closed loop of ReplayJobs (two outstanding) against a 2-worker
/// SimService with telemetry wired; queue wait and run time come from the
/// service's own histograms.
void serviceProbe(const ProbeInputs &In, const std::vector<CacheStats> &CoreStats,
                  Spans &S, Checks &C, Emitter &Put) {
  constexpr double BucketMs = 0.05;
  constexpr size_t Buckets = 20000;
  telemetry::TelemetrySink Sink(1 << 10);
  service::SimServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Telemetry = &Sink;
  Cfg.LatencyBucketMs = BucketMs;
  Cfg.LatencyBuckets = Buckets;
  service::SimService Service(Cfg);

  struct InFlight {
    service::JobHandle Handle;
    uint64_t Id;
    size_t Slot;
  };
  std::deque<InFlight> Queue;
  uint64_t Done = 0, Failed = 0;
  double SubmitSeconds = 0.0;
  const size_t NTraces = In.Traces->size();
  const size_t N = In.SampledPoints.size() * NTraces;
  auto Retire = [&] {
    InFlight F = std::move(Queue.front());
    Queue.pop_front();
    SpanScope Wait(&S, "service.wait", F.Id);
    const service::JobOutcome &Out = F.Handle.wait();
    Wait.close();
    if (Out.Status != service::JobStatus::Done || Out.Replay.size() != 1) {
      ++Failed;
      return;
    }
    ++Done;
    C.expect(F.Slot < CoreStats.size() &&
                 sameStats(Out.Replay[0].Stats, CoreStats[F.Slot]),
             "service job " + std::to_string(F.Slot) +
                 " differs from the core replay of the same input");
  };
  for (size_t Slot = 0; Slot < N; ++Slot) {
    while (Queue.size() >= 2)
      Retire();
    const SweepJob &P = In.SampledPoints[Slot / NTraces];
    const uint64_t Id = S.nextId();
    SpanScope Submit(&S, "service.submit", Id);
    service::ReplayJob Job{(*In.Traces)[Slot % NTraces], P.Spec, P.Config};
    service::JobHandle H = Service.submit(service::Job(std::move(Job)));
    SubmitSeconds += Submit.close();
    Queue.push_back({std::move(H), Id, Slot});
  }
  while (!Queue.empty())
    Retire();

  const telemetry::MetricLabels Kind = {{"kind", "replay"}};
  Put("service.submit_us", ratio(SubmitSeconds * 1e6, static_cast<double>(N)));
  Put("service.queue_wait_ms",
      histogramMedian(Sink.Metrics.histogram("service_wait_ms", BucketMs,
                                             Buckets, Kind)
                          .snapshot()));
  Put("service.run_ms",
      histogramMedian(
          Sink.Metrics.histogram("service_run_ms", BucketMs, Buckets, Kind)
              .snapshot()));
  Put("service.jobs_done", static_cast<double>(Done));
  Put("service.jobs_failed", static_cast<double>(Failed));
  Put("service.peak_queue_depth",
      Sink.Metrics.gaugeValue("service_queue_depth_peak"));
}

} // namespace

std::vector<MetricValue> runLayerProbes(const ProbeInputs &In, Spans &S,
                                        Checks &C) {
  std::vector<MetricValue> Out;
  Emitter Put(Out);
  traceProbe(In, S, C, Put);
  const std::vector<CacheStats> CoreStats = coreProbe(In, S, C, Put);
  multisweepProbe(In, S, C, Put);
  sharedProbe(In, S, C, Put);
  serviceProbe(In, CoreStats, S, C, Put);
  return Out;
}

} // namespace perfbench
