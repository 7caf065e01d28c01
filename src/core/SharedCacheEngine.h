//===- core/SharedCacheEngine.h - Thread-shared cache engine --------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-shareable front over CacheEngine: K guest threads dispatch
/// into one code cache, the regime of DynamoRIO's thread-shared caches
/// and ShareJIT's cross-process shared cache. Three locking domains:
///
///   EngineMu   one exclusive mutex over the underlying CacheEngine
///              (CodeCache placement, LinkGraph, free state, counters).
///              Misses and evictions serialize here — exactly the
///              translate/evict path a real DBT serializes too.
///
///   Shards     a lock-striped residency index over superblock ids
///              (shard = id & mask). The concurrent hit path answers
///              "resident?" under a shared shard lock without ever
///              touching EngineMu.
///
///   Fences     reader/writer locks striped over cache-address regions.
///              An eviction batch takes the victims' region fences
///              exclusively while payloads are torn down and the index
///              entries die; in-flight hits hold their block's fence
///              shared. A quantum eviction in one region therefore never
///              blocks hits in another.
///
/// Lock order: EngineMu -> fences (ascending index) -> shards. The hit
/// path never holds a shard lock while acquiring a fence (it re-checks
/// the shard after the fence is held), so there is no hold-and-wait
/// cycle against the eviction path.
///
/// Two execution modes:
///
///   Exact      every access serializes on EngineMu and runs the plain
///              CacheEngine::access() in arrival order. With one guest
///              thread this is byte-identical to the serial simulator --
///              same stats, same telemetry ticks. Also the fallback for
///              access-stateful policies (they must observe every hit).
///
///   Concurrent hits take the sharded fast path and are tallied in an
///              atomic; misses serialize on EngineMu through the
///              deferred front doors (deferredMiss + deferred back-
///              pointer samples), and settle(N) reconciles Accesses/Hits
///              when the guests join. Legal only for access-stateless
///              policies (unit-FIFO, fine FIFO), whose decisions never
///              depend on hit observations. K>1 results are validated by
///              the structural auditor + conservation laws, not byte
///              pins (the miss interleaving is schedule-dependent).
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CORE_SHAREDCACHEENGINE_H
#define CCSIM_CORE_SHAREDCACHEENGINE_H

#include "core/CacheEngine.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace ccsim {

/// How accesses are executed against the shared engine. See file header.
enum class ShareMode : uint8_t { Exact, Concurrent };

const char *shareModeName(ShareMode M);

/// One entry of the sharded residency index, exported for auditing.
struct SharedIndexEntry {
  SuperblockId Id = InvalidSuperblockId;
  uint32_t Region = 0; ///< Eviction-fence region holding the block.
};

/// Snapshot of the sharded index taken at a quiesce point, cross-checked
/// against CodeCache residency by check::checkSharedIndex.
struct SharedIndexState {
  unsigned Shards = 0;
  unsigned Fences = 0;
  uint64_t FenceBytes = 0;            ///< Region width in cache bytes.
  std::vector<SharedIndexEntry> Entries; ///< Sorted by Id.
};

/// Contention totals, all monotone. Snapshots are safe at any time (the
/// counters are atomics); exact totals require the guests to have joined.
struct ContentionCounters {
  uint64_t FastHits = 0;        ///< Concurrent-mode hits (incl. races).
  uint64_t InstallRaces = 0;    ///< Miss found block already resident.
  uint64_t FenceSharedStalls = 0;    ///< Hit blocked on a fenced region.
  uint64_t FenceExclusiveStalls = 0; ///< Evictor blocked on in-flight hits.
  uint64_t EngineLockStalls = 0;     ///< Miss blocked on EngineMu.
  uint64_t EngineLockWaitMicros = 0; ///< Total blocked time on EngineMu.
  uint64_t QuiescePoints = 0;
};

/// Configuration for a SharedCacheEngine.
struct SharedEngineConfig {
  /// Underlying engine configuration. Both payload hooks are honored;
  /// OnEvictPayload fires with the victims' region fences held
  /// exclusively (per-victim teardown under the eviction fence).
  CacheEngineConfig Engine;

  /// Residency-index stripes (rounded up to a power of two, min 1).
  unsigned Shards = 16;

  /// Eviction-fence regions over [0, CapacityBytes) (min 1).
  unsigned Fences = 16;
};

/// Thread-shared engine. All public entry points are safe to call from
/// any number of guest threads once construction and setup are done.
class SharedCacheEngine {
public:
  SharedCacheEngine(const SharedEngineConfig &Config,
                    std::unique_ptr<EvictionPolicy> Policy, ShareMode Mode);

  /// Concurrent is only sound for access-stateless policies; everything
  /// else (and K == 1, where Exact is both correct and byte-identical to
  /// the serial simulator) runs Exact.
  static ShareMode preferredMode(unsigned GuestThreads,
                                 const EvictionPolicy &Policy);

  ShareMode mode() const { return Mode; }
  unsigned shardCount() const { return NShards; }
  unsigned fenceCount() const { return NFences; }
  uint64_t fenceBytes() const { return FenceWidth; }

  /// Processes one dispatch event. Exact mode: CacheEngine::access()
  /// under EngineMu. Concurrent mode: sharded fast hit or deferred miss.
  AccessKind access(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);

  /// Concurrent mode only: reconciles the deferred counters after the
  /// guests joined. \p TotalAccesses must equal every access() call made.
  void settle(uint64_t TotalAccesses) CCSIM_EXCLUDES(EngineMu);

  /// Runs \p Fn with the entire engine quiescent: EngineMu, every fence,
  /// and every shard held. No access can be in flight; audits observe a
  /// consistent engine + index. \p Fn must not re-enter this engine.
  void quiesce(const std::function<void(const SharedCacheEngine &)> &Fn)
      CCSIM_EXCLUDES(EngineMu);

  /// Engine statistics (locks EngineMu; call settle() first in
  /// Concurrent mode for settled Accesses/Hits).
  CacheStats stats() CCSIM_EXCLUDES(EngineMu);

  /// Concurrent-mode hits tallied so far but not yet settled into the
  /// engine's counters. Auditors add this to Misses to reconstruct the
  /// provisional access count at a quiesce point.
  uint64_t provisionalHits() const {
    return FastHits.load(std::memory_order_relaxed);
  }

  ContentionCounters contention() const;

  /// Publishes the contention counters (and shard-occupancy gauges) into
  /// \p Metrics under shared.* names, labeled with \p Labels. Called by
  /// runners after the guests joined; never called in Exact mode by the
  /// K=1 replay path, so serial metric exports stay byte-identical.
  void publishContention(telemetry::MetricsRegistry &Metrics,
                         const telemetry::MetricLabels &Labels)
      CCSIM_EXCLUDES(EngineMu);

  /// Single-threaded configuration phase only (arming auditors, wiring
  /// payload hooks) -- before any guest thread exists. The analysis
  /// cannot see that phase distinction, hence the escape hatch.
  CacheEngine &engineSetup() CCSIM_NO_THREAD_SAFETY_ANALYSIS {
    return Engine;
  }

  /// Quiesce-context accessors: sound only inside a quiesce(Fn) callback,
  /// where every lock is held by the quiescing thread.
  const CacheEngine &engineForAudit() const CCSIM_NO_THREAD_SAFETY_ANALYSIS {
    return Engine;
  }
  SharedIndexState indexSnapshot() const CCSIM_NO_THREAD_SAFETY_ANALYSIS;

private:
  /// One stripe of the residency index. Resident/Region are dense over
  /// the ids mapping to this shard (slot = id / NShards).
  struct alignas(64) Shard {
    mutable SharedMutex Mu;
    std::vector<uint8_t> Resident CCSIM_GUARDED_BY(Mu);
    std::vector<uint32_t> Region CCSIM_GUARDED_BY(Mu);
  };

  /// One eviction-fence region over [i*FenceWidth, (i+1)*FenceWidth).
  struct alignas(64) Fence {
    mutable SharedMutex Mu;
  };

  unsigned shardOf(SuperblockId Id) const { return Id & ShardMask; }
  size_t slotOf(SuperblockId Id) const { return Id >> ShardBits; }
  uint32_t regionOf(uint64_t StartOffset) const {
    uint64_t R = StartOffset / FenceWidth;
    return static_cast<uint32_t>(R < NFences ? R : NFences - 1);
  }

  AccessKind accessExact(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);
  AccessKind accessConcurrent(const SuperblockRecord &Rec)
      CCSIM_EXCLUDES(EngineMu);

  /// Slow path of accessConcurrent: serialize on EngineMu, re-check for
  /// a racing install, then run the deferred miss.
  AccessKind missSlow(const SuperblockRecord &Rec) CCSIM_EXCLUDES(EngineMu);

  /// Brings the index entry for \p Id in line with actual residency
  /// (set with its region after an insert, cleared if a preemptive flush
  /// took it right back out). Takes the shard lock; caller holds
  /// EngineMu.
  void reconcileIndexEntry(SuperblockId Id) CCSIM_REQUIRES(EngineMu);

  /// Eviction-batch hook installed on the inner engine: takes the
  /// victims' region fences exclusively, runs the owner's payload
  /// teardown \p Owner, and removes the victims from the index -- all
  /// before the engine's own accounting. Runs under EngineMu by
  /// construction (every eviction originates from a miss or flush under
  /// it). The lock set is data-dependent, which the analysis cannot
  /// model.
  void onEvictionBatch(std::span<const CodeCache::Resident> Victims,
                       const EvictPayloadHook &Owner)
      CCSIM_NO_THREAD_SAFETY_ANALYSIS;

  /// quiesce() helpers: acquire / release EngineMu + every fence + every
  /// shard in the global lock order. Loop-carried lock sets are invisible
  /// to the analysis.
  void lockAllForQuiesce() CCSIM_NO_THREAD_SAFETY_ANALYSIS;
  void unlockAllForQuiesce() CCSIM_NO_THREAD_SAFETY_ANALYSIS;

  ShareMode Mode;
  unsigned NShards = 1;
  unsigned ShardBits = 0;
  unsigned ShardMask = 0;
  unsigned NFences = 1;
  uint64_t FenceWidth = 1;

  ccsim::Mutex EngineMu;
  CacheEngine Engine CCSIM_GUARDED_BY(EngineMu);

  std::unique_ptr<Shard[]> Shards;
  std::unique_ptr<Fence[]> Fences;

  /// Scratch for the eviction hook (distinct victim regions, ascending).
  /// Only touched under EngineMu.
  std::vector<uint32_t> RegionScratch CCSIM_GUARDED_BY(EngineMu);

  std::atomic<uint64_t> FastHits{0};
  std::atomic<uint64_t> PendingSamples{0};
  std::atomic<uint64_t> InstallRaces{0};
  std::atomic<uint64_t> FenceSharedStalls{0};
  std::atomic<uint64_t> FenceExclusiveStalls{0};
  std::atomic<uint64_t> EngineLockStalls{0};
  std::atomic<uint64_t> EngineLockWaitMicros{0};
  std::atomic<uint64_t> QuiesceCount{0};

  /// Lock-wait histogram (microseconds); created lazily, Concurrent mode
  /// with telemetry only, so Exact-mode runs never alter the registry.
  telemetry::HistogramMetric *LockWaitHist = nullptr;
};

} // namespace ccsim

#endif // CCSIM_CORE_SHAREDCACHEENGINE_H
