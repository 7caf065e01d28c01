//===- concurrent/SharedEngineRunner.cpp - K guest threads, one engine ----===//

#include "concurrent/SharedEngineRunner.h"

#include "check/CacheAuditor.h"
#include "sim/SerialReplay.h"
#include "support/Contracts.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

using namespace ccsim;
using namespace ccsim::concurrent;

namespace {

/// Quiesces the engine and runs the full shared audit; mirrors the
/// paranoid contract of check::armAuditor (print + abort) unless the
/// config installed a handler.
void runQuiesceAudit(SharedCacheEngine &Engine, const SharedRunConfig &Config,
                     const char *Where) {
  Engine.quiesce([&](const SharedCacheEngine &E) {
    const check::AuditReport Report = check::auditSharedEngine(E);
    if (Report.clean())
      return;
    if (Config.OnViolation) {
      Config.OnViolation(Report, Where);
      return;
    }
    std::fprintf(stderr,
                 "ccsim paranoid audit failed after %s (%zu violation(s)):\n%s",
                 Where, Report.size(), Report.render().c_str());
    std::abort();
  });
}

/// The K > 1 path: guests claim GrabBlock-sized runs of the access
/// stream from a shared cursor. Structural validation happens at
/// quiesce points (the guest that carries the global done-counter past
/// the next threshold runs the audit) and once after the join.
template <typename View>
SharedRunResult runThreaded(const View &V,
                            std::unique_ptr<EvictionPolicy> Policy,
                            const SharedRunConfig &Config) {
  SharedRunResult Result;
  Result.BenchmarkName = V.name();
  Result.PolicyName = Policy->name();
  Result.MaxCacheBytes = V.maxCacheBytes();
  Result.Mode = SharedCacheEngine::preferredMode(Config.GuestThreads, *Policy);
  Result.GuestThreads = Config.GuestThreads;

  SharedEngineConfig SC;
  SC.Engine = sim::engineConfigFor(Result.MaxCacheBytes, Config);
  Result.CapacityBytes = SC.Engine.CapacityBytes;

  telemetry::TelemetrySink *Tel = Config.Telemetry;
  const uint32_t MarkId = sim::openRunMark(Tel, "shared", Result);

  SharedCacheEngine Engine(SC, std::move(Policy), Result.Mode);

  const size_t N = V.size();
  const size_t Grab = std::max<size_t>(1, Config.GrabBlock);
  const uint64_t QuiesceEvery =
      Config.Audit != AuditLevel::Off ? Config.QuiesceInterval : 0;

  std::atomic<uint64_t> NextStart{0};
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> NextQuiesce{QuiesceEvery};
  std::atomic<uint64_t> Audits{0};
  std::atomic<bool> Stop{false};
  ccsim::Mutex ErrMu;
  std::exception_ptr FirstError;

  auto Guest = [&] {
    try {
      uint64_t SincePoll = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t Start =
            NextStart.fetch_add(Grab, std::memory_order_relaxed);
        if (Start >= N)
          break;
        const uint64_t End = std::min<uint64_t>(N, Start + Grab);
        for (uint64_t I = Start; I < End; ++I) {
          if (Config.Cancel &&
              ++SincePoll >=
                  std::max<uint32_t>(1, Config.CancelCheckInterval)) {
            SincePoll = 0;
            if (const char *Reason = Config.Cancel->stopReason())
              sim::throwReplayCancelled(
                  V.name(), Done.load(std::memory_order_relaxed), N, Reason,
                  *Config.Cancel);
          }
          Engine.access(V.recordFor(V.idAt(I)));
        }
        const uint64_t DoneNow =
            Done.fetch_add(End - Start, std::memory_order_relaxed) +
            (End - Start);
        if (QuiesceEvery != 0) {
          uint64_t NQ = NextQuiesce.load(std::memory_order_relaxed);
          while (DoneNow >= NQ) {
            if (NextQuiesce.compare_exchange_weak(NQ, NQ + QuiesceEvery,
                                                  std::memory_order_relaxed)) {
              runQuiesceAudit(Engine, Config, "quiesce-point audit");
              Audits.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      }
    } catch (...) {
      {
        MutexLock Lock(ErrMu);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      Stop.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> Guests;
  Guests.reserve(Config.GuestThreads);
  for (unsigned I = 0; I < Config.GuestThreads; ++I)
    Guests.emplace_back(Guest);
  for (std::thread &G : Guests)
    G.join();

  if (FirstError)
    std::rethrow_exception(FirstError);
  CCSIM_ASSERT(Done.load() == N, "guests joined before the trace drained");

  if (Result.Mode == ShareMode::Concurrent)
    Engine.settle(Done.load());
  if (Config.Audit != AuditLevel::Off) {
    runQuiesceAudit(Engine, Config, "final shared-engine audit");
    Audits.fetch_add(1, std::memory_order_relaxed);
  }

  Result.Stats = Engine.stats();
  Result.Contention = Engine.contention();
  Result.QuiesceAudits = Audits.load();
  if (Tel) {
    telemetry::MetricLabels Labels =
        sim::runLabels(Result, Config.PressureFactor);
    Labels.emplace_back("guest-threads", std::to_string(Result.GuestThreads));
    sim::recordRun(*Tel, MarkId, Result, Labels);
    Engine.publishContention(Tel->Metrics, Labels);
    Tel->Tracer.record(telemetry::EventKind::Contention, Result.GuestThreads,
                       telemetry::NoBlock, MarkId,
                       Result.Contention.EngineLockStalls,
                       Result.Stats.Accesses);
  }
  return Result;
}

/// K = 1 is the serial replay loop over the shared engine in Exact mode:
/// same access order, same telemetry marks ("sim:" label), same metric
/// labels, and no contention publication.
template <typename View>
SharedRunResult runSharedImpl(const View &V, const GranularitySpec &Spec,
                              const SharedRunConfig &Config) {
  CCSIM_REQUIRE(Config.GuestThreads >= 1, "at least one guest thread");
  std::unique_ptr<EvictionPolicy> Policy = makePolicy(Spec);
  if (Config.GuestThreads > 1)
    return runThreaded(V, std::move(Policy), Config);
  SharedRunResult Result;
  static_cast<SimResult &>(Result) = sim::replaySerial<SharedCacheEngine>(
      V, std::move(Policy), Config, Config.OnViolation,
      [&](SharedCacheEngine &E) { Result.Contention = E.contention(); });
  return Result;
}

} // namespace

SharedRunResult concurrent::runShared(const Trace &T,
                                      const GranularitySpec &Spec,
                                      const SharedRunConfig &Config) {
  return runSharedImpl(sim::OwnedTraceView{T}, Spec, Config);
}

SharedRunResult concurrent::runShared(const trace::MappedTrace &T,
                                      const GranularitySpec &Spec,
                                      const SharedRunConfig &Config) {
  return runSharedImpl(sim::MappedTraceView{T}, Spec, Config);
}
