//===- sim/SerialReplay.h - The one serial replay loop --------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.1 replay contract, written once: size the cache from a
/// SimConfig (maxCache / pressure), build the engine, arm the auditor,
/// bracket the run in a telemetry Mark pair, replay the trace in
/// cancellable chunks, and publish the final CacheStats. sim::run
/// instantiates it over CacheEngine; concurrent::runShared with one guest
/// instantiates it over SharedCacheEngine in Exact mode, so "K = 1 equals
/// serial" is a property of the engine, not of a second copy of the loop.
///
/// The config, Mark and epilogue helpers are exported for the replays
/// that cannot share the loop itself (the K > 1 guest runner and the
/// one-pass sweep's settle step), so every replay sizes, labels and
/// records its run the same way.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SIM_SERIALREPLAY_H
#define CCSIM_SIM_SERIALREPLAY_H

#include "check/Paranoia.h"
#include "core/SharedCacheEngine.h"
#include "sim/Simulator.h"
#include "support/Contracts.h"
#include "trace/MappedTrace.h"

#include <algorithm>
#include <type_traits>

namespace ccsim::sim {

/// The two trace backends behind one replay loop. Both expose the same
/// five calls; the owned view walks Trace::Accesses, the mapped view
/// decodes straight out of the file mapping.
struct OwnedTraceView {
  const Trace &T;
  const std::string &name() const { return T.Name; }
  uint64_t maxCacheBytes() const { return T.maxCacheBytes(); }
  size_t size() const { return T.Accesses.size(); }
  SuperblockId idAt(size_t I) const { return T.Accesses[I]; }
  SuperblockRecord recordFor(SuperblockId Id) const { return T.recordFor(Id); }
};

struct MappedTraceView {
  const trace::MappedTrace &T;
  const std::string &name() const { return T.name(); }
  uint64_t maxCacheBytes() const { return T.maxCacheBytes(); }
  size_t size() const { return T.numAccesses(); }
  SuperblockId idAt(size_t I) const { return T.idAt(I); }
  SuperblockRecord recordFor(SuperblockId Id) const { return T.recordFor(Id); }
};

/// The engine configuration a replay of a workload with unbounded size
/// \p MaxCacheBytes builds from \p Config: derived capacity, costs,
/// chaining and telemetry; no payload hooks.
CacheEngineConfig engineConfigFor(uint64_t MaxCacheBytes,
                                  const SimConfig &Config);

/// Opens the Mark pair "<Kind>:<benchmark>/<policy>" of the run \p R
/// describes. Returns the mark's label id; 0 (and no event) when \p Tel
/// is null.
uint32_t openRunMark(telemetry::TelemetrySink *Tel, const char *Kind,
                     const SimResult &R);

/// Labels {benchmark, policy, pressure} a replay records its stats under.
telemetry::MetricLabels runLabels(const SimResult &R, double PressureFactor);

/// The replay epilogue: closes the Mark pair \p MarkId and records
/// \p R.Stats into the sink's registry under \p Labels.
void recordRun(telemetry::TelemetrySink &Tel, uint32_t MarkId,
               const SimResult &R, const telemetry::MetricLabels &Labels);

/// Throws the ReplayCancelled every replay raises when \p Cancel stops it
/// after \p Done of \p Total accesses of trace \p Name.
[[noreturn]] void throwReplayCancelled(const std::string &Name, uint64_t Done,
                                       uint64_t Total, const char *Reason,
                                       const CancelToken &Cancel);

/// Replays \p V through a fresh \p EngineT (CacheEngine, or a
/// SharedCacheEngine in Exact mode) running \p Policy. An armed auditor
/// reports to \p OnViolation (unset: print and abort). \p OnDrained sees
/// the engine after the last access, before the epilogue.
template <typename EngineT, typename View, typename DrainedFn>
SimResult replaySerial(const View &V, std::unique_ptr<EvictionPolicy> Policy,
                       const SimConfig &Config,
                       const check::ViolationHandler &OnViolation,
                       DrainedFn &&OnDrained) {
  constexpr bool Shared = std::is_same_v<EngineT, SharedCacheEngine>;
  CCSIM_REQUIRE(Policy, "simulation requires a policy");
  SimResult Result;
  Result.BenchmarkName = V.name();
  Result.PolicyName = Policy->name();
  Result.MaxCacheBytes = V.maxCacheBytes();
  const CacheEngineConfig EC = engineConfigFor(Result.MaxCacheBytes, Config);
  Result.CapacityBytes = EC.CapacityBytes;

  telemetry::TelemetrySink *Tel = Config.Telemetry;
  const uint32_t MarkId = openRunMark(Tel, "sim", Result);

  EngineT Engine = [&] {
    if constexpr (Shared) {
      SharedEngineConfig SC;
      SC.Engine = EC;
      return SharedCacheEngine(SC, std::move(Policy), ShareMode::Exact);
    } else {
      return CacheEngine(EC, std::move(Policy));
    }
  }();
  if (Config.Audit != AuditLevel::Off) {
    CacheEngine *Inner;
    if constexpr (Shared)
      Inner = &Engine.engineSetup();
    else
      Inner = &Engine;
    check::armAuditor(*Inner,
                      check::ParanoiaOptions{Config.Audit, true, OnViolation});
  }

  const size_t N = V.size();
  if (!Config.Cancel) {
    for (size_t I = 0; I < N; ++I)
      Engine.access(V.recordFor(V.idAt(I)));
  } else {
    // Cancellable replay: poll the token once per trace chunk so a
    // cancellation or deadline lands within CancelCheckInterval accesses.
    const size_t Chunk = std::max<uint32_t>(1, Config.CancelCheckInterval);
    size_t I = 0;
    while (I < N) {
      if (const char *Reason = Config.Cancel->stopReason())
        throwReplayCancelled(V.name(), I, N, Reason, *Config.Cancel);
      const size_t End = std::min(N, I + Chunk);
      for (; I < End; ++I)
        Engine.access(V.recordFor(V.idAt(I)));
    }
  }

  Result.Stats = Engine.stats();
  OnDrained(Engine);
  if (Tel)
    recordRun(*Tel, MarkId, Result, runLabels(Result, Config.PressureFactor));
  return Result;
}

} // namespace ccsim::sim

#endif // CCSIM_SIM_SERIALREPLAY_H
