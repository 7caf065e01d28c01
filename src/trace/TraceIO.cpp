//===- trace/TraceIO.cpp - Trace serialization ------------------------------===//

#include "trace/TraceIO.h"

#include "support/BinaryIO.h"
#include "trace/MappedTrace.h"

using namespace ccsim;

static void writeTracePayload(BinaryWriter &W, const Trace &T) {
  W.writeU32(TraceMagic);
  W.writeU32(TraceVersion);
  W.writeString(T.Name);
  W.writeU32(static_cast<uint32_t>(T.Blocks.size()));
  for (const SuperblockDef &B : T.Blocks) {
    W.writeU32(B.SizeBytes);
    W.writeU32(static_cast<uint32_t>(B.OutEdges.size()));
    for (SuperblockId Edge : B.OutEdges)
      W.writeU32(Edge);
  }
  W.writeU64(T.Accesses.size());
  for (SuperblockId Id : T.Accesses)
    W.writeU32(Id);
}

bool ccsim::writeTrace(const Trace &T, const std::string &Path) {
  BinaryWriter W(Path);
  if (!W.ok())
    return false;
  writeTracePayload(W, T);
  return W.finish();
}

std::optional<Trace> ccsim::readTrace(const std::string &Path) {
  if (const auto M = trace::MappedTrace::open(Path))
    return M->toTrace();
  return std::nullopt;
}

std::vector<uint8_t> ccsim::serializeTrace(const Trace &T) {
  BinaryWriter W;
  writeTracePayload(W, T);
  return W.buffer();
}

std::optional<Trace> ccsim::deserializeTrace(std::vector<uint8_t> Bytes) {
  if (const auto M = trace::MappedTrace::fromBytes(std::move(Bytes)))
    return M->toTrace();
  return std::nullopt;
}
