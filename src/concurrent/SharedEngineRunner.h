//===- concurrent/SharedEngineRunner.h - K guest threads, one engine ------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays one trace through a SharedCacheEngine with K guest threads,
/// the thread-shared-cache regime of production DBTs. The determinism
/// contract, stated once and tested everywhere:
///
///   K = 1   runs the engine in Exact mode and reproduces the serial
///           simulator byte for byte -- same CacheStats, same telemetry
///           marks and metric labels ("sim:<bench>/<policy>"), so golden
///           figure reports and metric exports are pinned unchanged.
///
///   K > 1   guests claim trace blocks from a shared cursor, so the miss
///           interleaving is schedule-dependent; results are validated
///           by the structural auditor at quiesce points plus the
///           conservation identities of CacheStats, never by byte pins.
///           Metrics are labeled with the guest count to keep them apart
///           from serial exports.
///
/// The run config extends SimConfig, so pressure, costs, telemetry,
/// audit and cancellation mean exactly what they mean to sim::run, and
/// the K = 1 path is the serial replay loop of sim/SerialReplay.h run
/// over the shared engine.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_SHAREDENGINERUNNER_H
#define CCSIM_CONCURRENT_SHAREDENGINERUNNER_H

#include "check/Paranoia.h"
#include "core/SharedCacheEngine.h"
#include "sim/Simulator.h"
#include "trace/MappedTrace.h"

namespace ccsim::concurrent {

/// Configuration of one shared-engine replay: a SimConfig plus the guest
/// knobs. Audit at K = 1 arms check::armAuditor exactly like sim::run; at
/// K > 1 any level other than Off runs the full auditSharedEngine rule
/// set at every quiesce point and once at the end of the run.
/// Cancellation is polled every CancelCheckInterval accesses (per guest
/// for K > 1) and throws ReplayCancelled like the serial path.
struct SharedRunConfig : SimConfig {
  /// Guest threads sharing the engine. 1 selects the byte-identical
  /// serial path.
  unsigned GuestThreads = 1;

  /// K > 1: accesses between quiesce-point audits (0 = only the final
  /// one). The guest that crosses the threshold runs the audit.
  uint64_t QuiesceInterval = 0;

  /// K > 1: accesses a guest claims from the shared cursor per grab.
  size_t GrabBlock = 4096;

  /// Receives non-clean audit reports; default prints and aborts (the
  /// paranoid contract). Tests install a collector.
  check::ViolationHandler OnViolation;
};

/// Outcome of a shared replay. Stats match the serial simulator exactly
/// for K = 1; for K > 1 they satisfy the conservation identities.
struct SharedRunResult : SimResult {
  ShareMode Mode = ShareMode::Exact;
  unsigned GuestThreads = 1;
  ContentionCounters Contention;
  uint64_t QuiesceAudits = 0;
};

/// Replays \p T under \p Spec with Config.GuestThreads guests.
SharedRunResult runShared(const Trace &T, const GranularitySpec &Spec,
                          const SharedRunConfig &Config);

/// Zero-copy variant: streams accesses straight out of a mapped trace
/// without materializing the access vector.
SharedRunResult runShared(const trace::MappedTrace &T,
                          const GranularitySpec &Spec,
                          const SharedRunConfig &Config);

} // namespace ccsim::concurrent

#endif // CCSIM_CONCURRENT_SHAREDENGINERUNNER_H
