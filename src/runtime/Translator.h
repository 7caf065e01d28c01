//===- runtime/Translator.h - Mini dynamic binary translator --------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DynamoRIO substitute: a complete (miniature) dynamic binary
/// translator over the synthetic guest ISA, implementing the full control
/// loop of the paper's Figure 1:
///
///   interpret cold code -> profile block heads -> at the hotness
///   threshold (50, as in DynamoRIO) record a superblock along the actual
///   execution path (NET-style) -> place it in a bounded code cache ->
///   execute from the cache, chaining fragments with direct links and an
///   indirect-branch lookup -> evict at the configured granularity when
///   the cache fills.
///
/// Every manager routine charges instrumented host instructions through
/// OpCounter (the PAPI substitute), producing the Figure 9 regression
/// samples and the Table 2 chaining-on/off slowdowns.
///
/// Both tiers run on the shared CacheEngine (core/CacheEngine.h): the
/// engine owns placement, quantum-driven eviction, link repair, and
/// telemetry/audit hooks, while the translator's payload callbacks tear
/// down Fragment slots and DispatchTable entries per victim and charge
/// the instrumented (jittered) Eq. 2/Eq. 4 costs. Fragment ids are dense
/// and stable per entry PC, so the engine's CodeCache and LinkGraph are
/// reused unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_RUNTIME_TRANSLATOR_H
#define CCSIM_RUNTIME_TRANSLATOR_H

#include "core/CacheEngine.h"
#include "isa/Program.h"
#include "runtime/DispatchTable.h"
#include "trace/Trace.h"
#include "runtime/GuestState.h"
#include "runtime/OpCounter.h"
#include "support/Random.h"

#include <span>
#include <vector>

namespace ccsim {

/// One translated superblock: the recorded hot path plus exit metadata.
struct Fragment {
  SuperblockId Id = InvalidSuperblockId;
  uint32_t EntryPC = 0;
  uint32_t CodeBytes = 0; ///< Translated size (guest bytes + exit stubs).
  std::vector<Instruction> Code; ///< Recorded path.
  std::vector<uint32_t> PCs;     ///< Guest PC of each recorded instruction.
  std::vector<SuperblockId> StaticEdges; ///< Direct exit targets (ids).
  uint64_t Executions = 0;
  bool IsBasicBlock = false; ///< Tier-0 (basic-block cache) fragment.
  uint32_t IndirectInlineTag = 0; ///< Exit-stub inline cache: the last
                                  ///< indirect target (+1; 0 = empty).
};

/// Translator configuration.
struct TranslatorConfig {
  uint64_t CacheBytes = 1 << 20;
  GranularitySpec Policy = GranularitySpec::fine(); ///< DynamoRIO default.
  bool EnableChaining = true;
  uint32_t HotThreshold = 50;          ///< Paper, Section 4.1.
  uint32_t MaxFragmentGuestInstrs = 128;
  uint32_t StubBytesPerExit = 11;      ///< Exit stub size added per exit.
  CostWeights Weights;
  size_t GuestMemoryBytes = 1 << 17;
  uint64_t Seed = 7;                   ///< Measurement jitter stream.
  bool RecordTrace = false; ///< Log every fragment entry so the run can
                            ///< be exported as a superblock trace -- the
                            ///< paper's "verbose output from DynamoRIO
                            ///< [driving] the code cache simulator".
  bool UseBasicBlockCache = false; ///< DynamoRIO's two-tier design
                                   ///< (Section 2.2): cold code runs from
                                   ///< a basic-block cache instead of the
                                   ///< interpreter; blocks are promoted
                                   ///< to superblocks at HotThreshold.
  uint64_t BBCacheBytes = 1 << 19; ///< Basic-block cache capacity.
  telemetry::TelemetrySink *Telemetry = nullptr; ///< Shared by both tier
                                                 ///< engines; null = off.
};

/// Aggregate statistics of one translated run.
struct TranslatorStats {
  uint64_t GuestInstructions = 0;       ///< Total retired guest instrs.
  uint64_t InterpretedInstructions = 0; ///< ... of which interpreted.
  uint64_t CacheInstructions = 0;       ///< ... of which from the cache.
  uint64_t Dispatches = 0;          ///< Dispatcher entries.
  uint64_t LinkedTransfers = 0;     ///< Fragment-to-fragment direct jumps.
  uint64_t IndirectTransfers = 0;   ///< In-cache IBL hits.
  uint64_t IblMisses = 0;           ///< IBL conflict/cold misses.
  uint64_t FragmentsBuilt = 0;      ///< Superblocks translated.
  uint64_t EvictionInvocations = 0;
  uint64_t EvictedFragments = 0;
  uint64_t EvictedBytes = 0;
  uint64_t UnlinkedLinks = 0;
  uint64_t BBInstructions = 0;      ///< Guest instrs run from the BB cache.
  uint64_t BBFragmentsBuilt = 0;    ///< Basic blocks translated.
  uint64_t BBEvictionInvocations = 0;
  uint64_t BBEvictedFragments = 0;
  uint64_t BBLinkedTransfers = 0;   ///< Transfers landing in the BB cache.
  OpCounter Ops;
  CacheStats ChainStats; ///< Link creation counters (LinkGraph).
};

/// The mini-DBT.
class Translator {
public:
  Translator(const Program &P, const TranslatorConfig &Config);

  /// Runs until the guest halts or \p MaxGuestInstructions retire.
  /// Returns the accumulated statistics (also available via stats()).
  const TranslatorStats &run(uint64_t MaxGuestInstructions);

  const TranslatorStats &stats() const { return Stats; }
  const GuestState &guestState() const { return State; }
  const TranslatorConfig &config() const { return Config; }
  const CodeCache &cache() const { return Engine.cache(); }
  const CodeCache &basicBlockCache() const { return BBEngine.cache(); }
  const LinkGraph &links() const { return Engine.links(); }
  const DispatchTable &dispatchTable() const { return Table; }
  const DispatchTable &basicBlockDispatchTable() const { return BBTable; }

  /// The cache engines behind the two tiers. Auditors arm their hooks
  /// here (check::armAuditor); the engines' CacheStats carry the
  /// conservation counters the structural rules verify.
  CacheEngine &engine() { return Engine; }
  const CacheEngine &engine() const { return Engine; }
  CacheEngine &basicBlockEngine() { return BBEngine; }
  const CacheEngine &basicBlockEngine() const { return BBEngine; }

  /// Number of distinct superblock entry PCs seen (== id universe size).
  size_t numKnownEntryPCs() const { return PCById.size(); }

  /// Entry PC of fragment id \p Id (audit introspection).
  uint32_t entryPCOf(SuperblockId Id) const { return PCById[Id]; }

  /// Fragment id stored at dispatch-table slot \p Slot (audit
  /// introspection; pairs with DispatchTable::forEachUsed).
  SuperblockId fragmentIdAtSlot(int32_t Slot) const {
    return Fragments[static_cast<size_t>(Slot)].Id;
  }

  /// Exports the recorded run as a superblock trace (requires
  /// Config.RecordTrace). Ids are re-densified over the fragments that
  /// were actually built; static edges to never-built targets are
  /// dropped. The result passes Trace::validate() and can drive the
  /// trace simulator directly.
  Trace exportTrace() const;

private:
  const Program &Prog;
  TranslatorConfig Config;
  GuestState State;
  TranslatorStats Stats;
  CacheEngine Engine;   ///< Superblock-tier cache engine.
  CacheEngine BBEngine; ///< Basic-block-tier cache engine (may be unused).
  DispatchTable Table;
  DispatchTable BBTable;
  Rng Jitter;

  std::vector<Fragment> Fragments;   ///< Slot pool, indexed by table value.
  std::vector<int32_t> FreeSlots;
  std::vector<int32_t> SlotById;     ///< Superblock slot per id (-1 none).
  std::vector<int32_t> BBSlotById;   ///< BB-cache slot per id (-1 none).
  std::vector<uint32_t> PCById;      ///< Entry PC per id.
  std::vector<int32_t> IdLookup;     ///< Dense PC -> id map (-1 = none).
  std::vector<uint32_t> HotCounter;  ///< Per-PC execution counts (dense).

  uint64_t Budget = 0;     ///< Remaining guest instructions.
  uint32_t DispatchPC = 0; ///< PC at the current dispatcher entry.

  // Trace recording state (Config.RecordTrace).
  std::vector<SuperblockId> RecordedAccesses;
  std::vector<uint32_t> FirstBuildSize;   ///< By id; 0 = never built.
  std::vector<std::vector<SuperblockId>> FirstBuildEdges; ///< By id.

  /// Dense, stable fragment id for a guest entry PC.
  SuperblockId idForPC(uint32_t PC);

  /// Pops a free fragment slot, growing the pool if none is free.
  int32_t allocateSlot();

  /// Shared eviction teardown for both tiers: per victim, removes the
  /// \p InTable entry (accumulating hash-probe cost into \p ProbeOps),
  /// clears the fragment, and recycles its slot through \p SlotMap.
  /// Returns the total victim bytes for the caller's cost charge.
  uint64_t dropVictims(std::span<const CodeCache::Resident> Victims,
                       DispatchTable &InTable, std::vector<int32_t> &SlotMap,
                       double &ProbeOps);

  /// Accounts one guest instruction executed while recording a fragment
  /// (recording runs at interpreter speed).
  void chargeRecordedInstruction();

  /// Adds measurement jitter of a few percent (models run-to-run PAPI
  /// variation) deterministically.
  double jittered(double Ops);

  /// Interprets through the end of the basic block at State.PC.
  void interpretBlock();

  /// Records + executes a superblock starting at State.PC and installs
  /// it in the cache (unless it is larger than the whole cache, in which
  /// case it already executed once during recording and is dropped).
  void buildAndInstallFragment();

  /// Records + executes one basic block starting at State.PC and places
  /// it in the basic-block cache (two-tier mode only).
  void buildAndInstallBasicBlock();

  /// Executes \p Slot from the cache. Returns the slot of the next
  /// fragment when control can stay inside the cache (linked transfer or
  /// IBL hit), or NotFound when it must return to the dispatcher.
  int32_t executeFragment(int32_t Slot);

  /// Slot of the resident fragment whose entry is \p TargetPC, checking
  /// the superblock tier first and then (in two-tier mode) the BB tier.
  /// \p InBBTier reports which tier matched. NotFound when neither did.
  int32_t residentSlotFor(uint32_t TargetPC, bool &InBBTier) const;

  /// Follows a direct exit to \p TargetPC: the slot of the resident
  /// target fragment (a patched link) or NotFound.
  int32_t resolveDirectExit(uint32_t TargetPC);

  /// Installs \p Frag through the superblock-tier engine. May evict.
  void installFragment(Fragment &&Frag);

  /// Superblock-tier eviction payload: drops table entries, recycles
  /// slots, and charges the measured Eq. 2 cost.
  void onSuperblockEvict(std::span<const CodeCache::Resident> Victims);

  /// Superblock-tier unlink payload: charges the measured Eq. 4 cost per
  /// victim with dangling incoming links.
  void onSuperblockUnlink(std::span<const CodeCache::Resident> Victims,
                          std::span<const uint32_t> Dangling);

  /// BB-tier eviction payload (table removal + cost).
  void onBasicBlockEvict(std::span<const CodeCache::Resident> Victims);

  /// Pulls the engine-side counters into TranslatorStats (end of run()).
  void syncEngineStats();

  void chargeDispatch(unsigned Probes);
};

} // namespace ccsim

#endif // CCSIM_RUNTIME_TRANSLATOR_H
