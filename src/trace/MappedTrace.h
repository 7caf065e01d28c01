//===- trace/MappedTrace.h - Zero-copy mapped trace streaming -------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one decoder of the .cct trace format (TraceIO.h describes it).
/// open() maps the file read-only and decodes accesses straight out of
/// the mapping: the block table (small) is decoded eagerly into the same
/// SuperblockDef records the rest of the system uses, while the access
/// stream stays on disk and is paged in by the kernel as the replay
/// walks it. fromBytes() runs the same decode over an owned buffer.
/// readTrace() is open() then toTrace(), and deserializeTrace() is
/// fromBytes() then toTrace(), which copies the stream into a Trace.
///
/// On platforms without mmap (or when ForceFallback is set, which the
/// tests use to cover the path), open() degrades to reading the file
/// into an owned buffer -- same interface, one copy, still no second
/// materialization of the access vector.
///
/// Decoding checks magic, version, every count against the bytes left
/// (a hostile count is rejected before it sizes a table), the
/// isStructurallyValid() rule of Trace::validate(), and that the access
/// stream runs exactly to the end. A MappedTrace that decoded
/// successfully can be streamed without per-access checks.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_MAPPEDTRACE_H
#define CCSIM_TRACE_MAPPEDTRACE_H

#include "trace/Trace.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ccsim::trace {

/// A read-only trace backed by a file mapping (or an owned buffer).
/// Movable, not copyable; the mapping lives as long as the object, and
/// records returned by recordFor() alias the decoded block table exactly
/// like Trace::recordFor().
class MappedTrace {
public:
  MappedTrace(MappedTrace &&Other) noexcept;
  MappedTrace &operator=(MappedTrace &&Other) noexcept;
  MappedTrace(const MappedTrace &) = delete;
  MappedTrace &operator=(const MappedTrace &) = delete;
  ~MappedTrace();

  /// Maps and validates \p Path. Returns nullopt for unreadable,
  /// corrupt, or truncated files. \p ForceFallback skips mmap and reads
  /// the file into memory (tests exercise the non-mmap path with it).
  static std::optional<MappedTrace> open(const std::string &Path,
                                         bool ForceFallback = false);

  /// Validates the serialized trace \p Bytes and serves it from them.
  /// Returns nullopt for corrupt or truncated input.
  static std::optional<MappedTrace> fromBytes(std::vector<uint8_t> Bytes);

  const std::string &name() const { return Name; }
  size_t numSuperblocks() const { return Blocks.size(); }
  size_t numAccesses() const { return NumAccesses; }

  /// The paper's maxCache term: total translated bytes (Section 4.2).
  uint64_t maxCacheBytes() const { return MaxCacheBytes; }

  /// Decodes access \p I from the mapped stream. \p I < numAccesses().
  SuperblockId idAt(size_t I) const {
    const uint8_t *P = AccessBase + I * 4;
    return static_cast<SuperblockId>(P[0]) |
           (static_cast<SuperblockId>(P[1]) << 8) |
           (static_cast<SuperblockId>(P[2]) << 16) |
           (static_cast<SuperblockId>(P[3]) << 24);
  }

  /// Per-access record for \p Id; the edge span aliases this object.
  SuperblockRecord recordFor(SuperblockId Id) const;

  const std::vector<SuperblockDef> &blocks() const { return Blocks; }

  /// True when the access stream is served by an actual file mapping
  /// (false on an owned buffer).
  bool isMapped() const { return MapBase != nullptr; }

  /// Materializes a plain Trace (copies the access stream). For callers
  /// that need the owning form, e.g. to forward into job payloads.
  Trace toTrace() const;

private:
  MappedTrace() = default;

  std::string Name;
  std::vector<SuperblockDef> Blocks;
  uint64_t MaxCacheBytes = 0;
  size_t NumAccesses = 0;

  /// Start of the little-endian u32 access stream, into MapBase or
  /// Owned.
  const uint8_t *AccessBase = nullptr;

  void *MapBase = nullptr; ///< mmap base (null on an owned buffer).
  size_t MapLength = 0;
  std::vector<uint8_t> Owned; ///< Owned bytes when not mapped.

  /// Decodes and validates the whole .cct image \p Bytes, which must
  /// stay alive (MapBase or Owned) as long as this object.
  bool decode(std::span<const uint8_t> Bytes);
  void reset() noexcept;
};

} // namespace ccsim::trace

#endif // CCSIM_TRACE_MAPPEDTRACE_H
