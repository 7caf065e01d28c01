//===- trace/TraceIO.h - Trace serialization -------------------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary serialization for traces. Mirrors the paper's practice
/// of saving DynamoRIO logs so experiments are exactly repeatable.
///
/// The .cct format, all integers little-endian:
///   u32 TraceMagic, u32 TraceVersion, u32 name length, name bytes,
///   u32 block count, per block { u32 size, u32 edge count, u32 edges },
///   u64 access count, u32 access ids -- running exactly to the end.
/// The writer lives here; the one decoder is trace::MappedTrace, which
/// the readers below wrap.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TRACE_TRACEIO_H
#define CCSIM_TRACE_TRACEIO_H

#include "trace/Trace.h"

#include <optional>
#include <string>

namespace ccsim {

inline constexpr uint32_t TraceMagic = 0x43435452; // "CCTR"
inline constexpr uint32_t TraceVersion = 1;

/// Writes \p T to \p Path. Returns false on I/O failure.
bool writeTrace(const Trace &T, const std::string &Path);

/// Reads a trace from \p Path: trace::MappedTrace::open() then toTrace().
/// Returns std::nullopt on I/O failure, bad magic/version, or a
/// structurally invalid payload.
std::optional<Trace> readTrace(const std::string &Path);

/// In-memory round-trip helpers; deserializeTrace() is
/// trace::MappedTrace::fromBytes() then toTrace().
std::vector<uint8_t> serializeTrace(const Trace &T);
std::optional<Trace> deserializeTrace(std::vector<uint8_t> Bytes);

} // namespace ccsim

#endif // CCSIM_TRACE_TRACEIO_H
