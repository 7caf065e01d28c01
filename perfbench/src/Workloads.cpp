//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Each workload generates the scaled Table 1 suite from the seed, writes it
// as .cct files and drives one front door over it:
//
//   replay-miss    serial sim::run at pressure 10 (FLUSH, 8-unit, fine FIFO)
//                  over traces decoded from the .cct files;
//   sweep-lattice  the fig6/7/8 lattice (standardGranularitySweep() x
//                  pressures 2-10) through multisweep::runSweepGrid;
//   shared-guests  concurrent::runShared, K=2 guests, over mmap'd traces;
//   service-hot    ReplayJobs at pressure 2 in a closed loop against a
//                  2-worker SimService.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "concurrent/SharedEngineRunner.h"
#include "multisweep/MultiConfigEngine.h"
#include "service/SimService.h"
#include "support/Random.h"
#include "trace/MappedTrace.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"
#include "trace/WorkloadModel.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace ccsim;

namespace perfbench {

namespace {

/// Timed configs never audit: the benchmark refuses to time audited runs.
SimConfig timedConfig(double Pressure) {
  return SimConfig().withPressure(Pressure).withAudit(AuditLevel::Off);
}

/// Up to \p N distinct indices below \p Size, drawn from \p Seed.
std::vector<size_t> sampleIndices(size_t Size, size_t N, uint64_t Seed) {
  std::vector<size_t> All(Size);
  std::iota(All.begin(), All.end(), 0);
  Rng R(Seed);
  for (size_t I = 0; I + 1 < Size; ++I)
    std::swap(All[I], All[I + R.nextBelow(Size - I)]);
  All.resize(std::min(N, Size));
  std::sort(All.begin(), All.end());
  return All;
}

/// Wall time of a round and each job's latency.
struct ClientRun {
  double Seconds = 0.0;
  std::vector<double> LatencyMs;
};

/// Runs the jobs listed in \p Order on two client threads, each taking the
/// next job as soon as its previous one finished, so two jobs are always in
/// flight. \p Job(I) runs job I; it must not throw.
template <typename Fn>
ClientRun runOnTwoClients(const std::vector<size_t> &Order, Fn &&Job) {
  ClientRun Out;
  Out.LatencyMs.assign(Order.size(), 0.0);
  std::atomic<size_t> Next{0};
  auto Client = [&] {
    for (size_t K = Next.fetch_add(1); K < Order.size(); K = Next.fetch_add(1)) {
      const Clock::time_point J0 = Clock::now();
      Job(Order[K]);
      Out.LatencyMs[Order[K]] = secondsSince(J0) * 1e3;
    }
  };
  const Clock::time_point T0 = Clock::now();
  std::thread Second(Client);
  Client();
  Second.join();
  Out.Seconds = secondsSince(T0);
  return Out;
}

/// Common set-up: suite generation from the seed and the .cct round trip.
class SuiteWorkload : public Workload {
public:
  SuiteWorkload(const Options &Opts, std::string DataDir,
                std::vector<WorkloadModel> Models)
      : Opts(Opts), DataDir(std::move(DataDir)), Models(std::move(Models)) {}

  double setup(Spans *S) override {
    const uint64_t Id = S ? S->nextId() : 0;
    SpanScope Whole(S, "bench.setup", Id);
    Traces.clear();
    Paths.clear();
    const Clock::time_point G0 = Clock::now();
    {
      SpanScope Gen(S, "trace.generate", Id);
      for (const WorkloadModel &M : Models)
        Traces.push_back(TraceGenerator::generateBenchmark(M, Opts.Seed));
    }
    const double GenSeconds = secondsSince(G0);
    {
      SpanScope Write(S, "trace.write", Id);
      for (size_t I = 0; I < Traces.size(); ++I) {
        Paths.push_back(DataDir + "/" + std::to_string(I) + ".cct");
        if (!writeTrace(Traces[I], Paths.back()))
          throw std::runtime_error("cannot write " + Paths.back());
      }
    }
    load(S, Id);
    return GenSeconds;
  }

  ProbeInputs probeInputs() const override {
    ProbeInputs In;
    In.Traces = &Traces;
    In.Paths = &Paths;
    In.Points = points();
    if (In.Points.size() <= 3) {
      In.SampledPoints = In.Points;
    } else {
      for (size_t I : sampleIndices(In.Points.size(), 3, Opts.Seed ^ 0x5eed))
        In.SampledPoints.push_back(In.Points[I]);
    }
    return In;
  }

protected:
  Options Opts;
  std::string DataDir;
  std::vector<WorkloadModel> Models;
  std::vector<Trace> Traces;
  std::vector<std::string> Paths;

  /// Loads the written suite the way the front door reads it.
  virtual void load(Spans *S, uint64_t Id) = 0;
  virtual std::vector<SweepJob> points() const = 0;

  /// The Table 1 models, each scaled to \p Superblocks superblocks: every
  /// benchmark keeps its own phase, link and hotness structure, but all
  /// have the same size, so jobs have similar lengths and no few large
  /// benchmarks dominate the suite's totals (which keeps seed-to-seed
  /// variation of the aggregates small).
  static std::vector<WorkloadModel> normalizedSuite(double Superblocks) {
    std::vector<WorkloadModel> Out;
    for (const WorkloadModel &M : table1Workloads())
      Out.push_back(scaledWorkload(
          M, Superblocks / static_cast<double>(M.NumSuperblocks)));
    return Out;
  }

  static std::vector<SweepJob> pointsOf(const std::vector<GranularitySpec> &Specs,
                                        const std::vector<double> &Pressures) {
    return makeSweepGrid(Specs, Pressures, timedConfig(2.0));
  }
};

//===----------------------------------------------------------------------===//
// replay-miss
//===----------------------------------------------------------------------===//

class ReplayMiss final : public SuiteWorkload {
public:
  ReplayMiss(const Options &Opts, const std::string &DataDir)
      : SuiteWorkload(Opts, DataDir, normalizedSuite(1000 * Opts.Scale)) {}

  /// Each job is one serial sim::run of one (benchmark, spec) pair; two
  /// clients keep two jobs in flight. A single replay thread's throughput
  /// spread about 24% over ten runs on a shared 4-core host, against about
  /// 11% for the two-thread workloads.
  Round round() override {
    const std::vector<SweepJob> Points = points();
    const size_t N = Decoded.size() * Points.size();
    std::vector<CacheStats> Stats(N);
    std::vector<uint8_t> Failed(N, 0);
    std::vector<size_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    const ClientRun Run = runOnTwoClients(Order, [&](size_t I) {
      const Trace &T = Decoded[I / Points.size()];
      const SweepJob &P = Points[I % Points.size()];
      try {
        Stats[I] = sim::run(T, P.Spec, P.Config).Stats;
      } catch (const std::exception &E) {
        std::fprintf(stderr, "replay of %s failed: %s\n", T.Name.c_str(),
                     E.what());
        Failed[I] = 1;
      }
    });
    Round R;
    R.Seconds = Run.Seconds;
    R.LatencyMs = Run.LatencyMs;
    R.Jobs = N;
    for (size_t I = 0; I < N; ++I) {
      if (Failed[I]) {
        ++R.FailedJobs;
        continue;
      }
      R.Stats.push_back(Stats[I]);
      R.Expected.push_back(Decoded[I / Points.size()].numAccesses());
      R.Accesses += Stats[I].Accesses;
    }
    return R;
  }

  void verify(const Round &R, Checks &C) override {
    // The decoded traces must be the generated ones.
    for (size_t I = 0; I < Traces.size(); ++I)
      C.expect(Decoded[I].Accesses == Traces[I].Accesses &&
                   Decoded[I].numSuperblocks() == Traces[I].numSuperblocks(),
               "decoded trace " + Traces[I].Name + " differs from generated");
    (void)R;
  }

private:
  std::vector<Trace> Decoded;

  void load(Spans *S, uint64_t Id) override {
    SpanScope Decode(S, "trace.decode", Id);
    Decoded.clear();
    for (const std::string &P : Paths) {
      std::optional<Trace> T = readTrace(P);
      if (!T)
        throw std::runtime_error("cannot read back " + P);
      Decoded.push_back(std::move(*T));
    }
  }

  std::vector<SweepJob> points() const override {
    return pointsOf({GranularitySpec::flush(), GranularitySpec::units(8),
                     GranularitySpec::fine()},
                    {10.0});
  }
};

//===----------------------------------------------------------------------===//
// sweep-lattice
//===----------------------------------------------------------------------===//

class SweepLattice final : public SuiteWorkload {
public:
  SweepLattice(const Options &Opts, const std::string &DataDir)
      : SuiteWorkload(Opts, DataDir, normalizedSuite(400 * Opts.Scale)) {}

  /// One job is one benchmark's lattice through runSweepGrid. Two clients
  /// keep two jobs in flight, largest trace first; this is the same
  /// per-trace fan-out runSweepGrid does itself over a whole suite with
  /// setNumThreads(2), but it exposes each trace's latency.
  Round round() override {
    const std::vector<SweepJob> Grid = points();
    std::vector<size_t> Order(Engines.size());
    std::iota(Order.begin(), Order.end(), 0);
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Traces[A].numAccesses() > Traces[B].numAccesses();
    });
    std::vector<std::vector<SuiteResult>> Results(Engines.size());
    std::vector<uint8_t> Failed(Engines.size(), 0);
    const ClientRun Run = runOnTwoClients(Order, [&](size_t B) {
      try {
        Results[B] = multisweep::runSweepGrid(*Engines[B], Grid);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "lattice of %s failed: %s\n",
                     Traces[B].Name.c_str(), E.what());
        Failed[B] = 1;
      }
    });
    Round R;
    R.Seconds = Run.Seconds;
    R.LatencyMs = Run.LatencyMs;
    R.Jobs = Engines.size();
    for (size_t B = 0; B < Engines.size(); ++B) {
      if (Failed[B] || Results[B].size() != Grid.size()) {
        ++R.FailedJobs;
        continue;
      }
      for (const SuiteResult &P : Results[B]) {
        R.Stats.push_back(P.PerBenchmark.at(0).Stats);
        R.Expected.push_back(Traces[B].numAccesses());
        R.Accesses += R.Stats.back().Accesses;
      }
    }
    return R;
  }

  /// A seeded sample of lattice points, bit for bit against dense
  /// sim::run on every benchmark.
  void verify(const Round &R, Checks &C) override {
    const std::vector<SweepJob> Grid = points();
    if (R.Stats.size() != Grid.size() * Traces.size()) {
      C.expect(false, "lattice round is incomplete");
      return;
    }
    for (size_t P : sampleIndices(Grid.size(), 4, Opts.Seed ^ 0x1a771ce))
      for (size_t B = 0; B < Traces.size(); ++B) {
        const SimResult Dense =
            sim::run(Traces[B], Grid[P].Spec, Grid[P].Config);
        C.expect(sameStats(R.Stats[B * Grid.size() + P], Dense.Stats),
                 "lattice point " + Grid[P].Spec.label() + "@" +
                     std::to_string(Grid[P].Config.PressureFactor) + " on " +
                     Traces[B].Name + " differs from dense sim::run");
      }
  }

private:
  std::vector<std::unique_ptr<SweepEngine>> Engines;

  void load(Spans *, uint64_t) override {
    Engines.clear();
    for (const Trace &T : Traces) {
      Engines.push_back(std::make_unique<SweepEngine>(std::vector<Trace>{T}));
      Engines.back()->setNumThreads(2);
    }
  }

  std::vector<SweepJob> points() const override {
    std::vector<double> Pressures;
    for (int P = 2; P <= 10; ++P)
      Pressures.push_back(P);
    return pointsOf(standardGranularitySweep(), Pressures);
  }
};

//===----------------------------------------------------------------------===//
// shared-guests
//===----------------------------------------------------------------------===//

class SharedGuests final : public SuiteWorkload {
public:
  SharedGuests(const Options &Opts, const std::string &DataDir)
      : SuiteWorkload(Opts, DataDir, normalizedSuite(1000 * Opts.Scale)) {}

  bool deterministic() const override { return false; }

  Round round() override {
    Round R;
    const Clock::time_point T0 = Clock::now();
    for (const trace::MappedTrace &M : Mapped) {
      const Clock::time_point J0 = Clock::now();
      ++R.Jobs;
      try {
        const concurrent::SharedRunResult Res =
            concurrent::runShared(M, Spec, config());
        R.Stats.push_back(Res.Stats);
        R.Expected.push_back(M.numAccesses());
        R.Accesses += Res.Stats.Accesses;
        if (Res.Mode != ShareMode::Concurrent)
          ++R.FailedJobs;
        Stalls += Res.Contention.EngineLockStalls;
        FenceStalls += Res.Contention.FenceSharedStalls +
                       Res.Contention.FenceExclusiveStalls;
      } catch (const std::exception &E) {
        std::fprintf(stderr, "shared job %s failed: %s\n", M.name().c_str(),
                     E.what());
        ++R.FailedJobs;
      }
      R.LatencyMs.push_back(secondsSince(J0) * 1e3);
    }
    R.Seconds = secondsSince(T0);
    return R;
  }

  /// A final quiesce audit (check::auditSharedEngine) on a seeded sample
  /// benchmark, with per-eviction audits armed: untimed.
  void verify(const Round &, Checks &C) override {
    if (Mapped.empty())
      return;
    const size_t B = sampleIndices(Mapped.size(), 1, Opts.Seed ^ 0xa0d17)[0];
    concurrent::SharedRunConfig Audited = config();
    Audited.Audit = AuditLevel::Evictions;
    uint64_t Violations = 0;
    Audited.OnViolation = [&](const check::AuditReport &, const char *) {
      ++Violations;
    };
    const concurrent::SharedRunResult Res =
        concurrent::runShared(Mapped[B], Spec, Audited);
    C.expect(Violations == 0 && Res.QuiesceAudits >= 1,
             "shared-engine audit of " + Mapped[B].name() + " reported " +
                 std::to_string(Violations) + " violations");
    checkStats(Res.Stats, Audited.Costs, "audited shared run", C);
  }

  std::vector<std::string> notes() const override {
    return {"shared.engine_lock_stalls=" + std::to_string(Stalls) +
                " shared.fence_stalls=" + std::to_string(FenceStalls) +
                " (all rounds)",
            "shared.engine_lock_wait_us: absent in the untraced run "
            "(SharedCacheEngine times lock waits only while a telemetry "
            "histogram is wired; the traced run wires one)"};
  }

private:
  const GranularitySpec Spec = GranularitySpec::units(8);
  std::vector<trace::MappedTrace> Mapped;
  uint64_t Stalls = 0;
  uint64_t FenceStalls = 0;

  concurrent::SharedRunConfig config() const {
    concurrent::SharedRunConfig Cfg;
    Cfg.GuestThreads = 2;
    Cfg.PressureFactor = 10.0;
    Cfg.GrabBlock = SharedGrabBlock;
    Cfg.Audit = AuditLevel::Off;
    return Cfg;
  }

  void load(Spans *S, uint64_t Id) override {
    SpanScope Map(S, "trace.map", Id);
    Mapped.clear();
    for (const std::string &P : Paths) {
      std::optional<trace::MappedTrace> M = trace::MappedTrace::open(P);
      if (!M)
        throw std::runtime_error("cannot map " + P);
      Mapped.push_back(std::move(*M));
    }
  }

  std::vector<SweepJob> points() const override {
    return pointsOf({Spec}, {10.0});
  }
};

//===----------------------------------------------------------------------===//
// service-hot
//===----------------------------------------------------------------------===//

/// Superblocks per service-hot benchmark: jobs of about 10 ms each.
constexpr double ServiceSuperblocks = 1500.0;
/// Passes over the suite per round (100 jobs, so a round has a p90).
constexpr unsigned ServiceRepeats = 5;
/// Jobs the closed-loop client keeps outstanding.
constexpr size_t ServiceOutstanding = 2;

class ServiceHot final : public SuiteWorkload {
public:
  ServiceHot(const Options &Opts, const std::string &DataDir)
      : SuiteWorkload(Opts, DataDir, normalizedSuite(ServiceSuperblocks * Opts.Scale)) {}

  Round round() override {
    struct InFlight {
      service::JobHandle Handle;
      Clock::time_point Submitted;
      size_t Slot;
    };
    const size_t N = Traces.size() * ServiceRepeats;
    Round R;
    R.Jobs = N;
    R.LatencyMs.assign(N, 0.0);
    R.Stats.assign(N, CacheStats());
    R.Expected.assign(N, 0);
    std::deque<InFlight> Queue;
    auto Retire = [&] {
      InFlight F = std::move(Queue.front());
      Queue.pop_front();
      const service::JobOutcome &Out = F.Handle.wait();
      R.LatencyMs[F.Slot] = secondsSince(F.Submitted) * 1e3;
      const Trace &T = Traces[F.Slot % Traces.size()];
      R.Expected[F.Slot] = T.numAccesses();
      if (Out.Status != service::JobStatus::Done || Out.Replay.size() != 1) {
        ++R.FailedJobs;
        return;
      }
      R.Stats[F.Slot] = Out.Replay[0].Stats;
      R.Accesses += Out.Replay[0].Stats.Accesses;
    };
    const Clock::time_point T0 = Clock::now();
    for (size_t Slot = 0; Slot < N; ++Slot) {
      while (Queue.size() >= ServiceOutstanding)
        Retire();
      const Clock::time_point Submitted = Clock::now();
      service::ReplayJob Job{Traces[Slot % Traces.size()], Spec,
                             timedConfig(Pressure)};
      Queue.push_back({Service->submit(service::Job(std::move(Job))),
                       Submitted, Slot});
    }
    while (!Queue.empty())
      Retire();
    R.Seconds = secondsSince(T0);
    return R;
  }

  /// A seeded sample job's stats equal a direct sim::run.
  void verify(const Round &R, Checks &C) override {
    const size_t Slot = sampleIndices(R.Stats.size(), 1, Opts.Seed ^ 0x5e7)[0];
    const Trace &T = Traces[Slot % Traces.size()];
    const SimResult Direct = sim::run(T, Spec, timedConfig(Pressure));
    C.expect(sameStats(R.Stats[Slot], Direct.Stats),
             "service job on " + T.Name + " differs from direct sim::run");
  }

private:
  const GranularitySpec Spec = GranularitySpec::units(8);
  static constexpr double Pressure = 2.0;
  std::unique_ptr<service::SimService> Service;

  void load(Spans *, uint64_t) override {
    Service.reset();
    service::SimServiceConfig Cfg;
    Cfg.Threads = 2;
    Service = std::make_unique<service::SimService>(Cfg);
  }

  std::vector<SweepJob> points() const override {
    return pointsOf({Spec}, {Pressure});
  }
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Options &Opts,
                                       const std::string &DataDir) {
  if (Name == "replay-miss")
    return std::make_unique<ReplayMiss>(Opts, DataDir);
  if (Name == "sweep-lattice")
    return std::make_unique<SweepLattice>(Opts, DataDir);
  if (Name == "shared-guests")
    return std::make_unique<SharedGuests>(Opts, DataDir);
  if (Name == "service-hot")
    return std::make_unique<ServiceHot>(Opts, DataDir);
  return nullptr;
}

} // namespace perfbench
