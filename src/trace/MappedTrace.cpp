//===- trace/MappedTrace.cpp - Zero-copy mapped trace streaming -----------===//

#include "trace/MappedTrace.h"

#include "support/BinaryIO.h"
#include "support/Contracts.h"
#include "trace/TraceIO.h"

#include <cstdio>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define CCSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CCSIM_HAVE_MMAP 0
#endif

using namespace ccsim;
using namespace ccsim::trace;

namespace {

/// Reads the whole of \p Path into \p Out (the non-mmap path).
bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  FILE *Stream = std::fopen(Path.c_str(), "rb");
  if (!Stream)
    return false;
  bool Ok = std::fseek(Stream, 0, SEEK_END) == 0;
  const long End = Ok ? std::ftell(Stream) : -1;
  Ok = Ok && End >= 0 && std::fseek(Stream, 0, SEEK_SET) == 0;
  if (Ok) {
    Out.resize(static_cast<size_t>(End));
    Ok = Out.empty() ||
         std::fread(Out.data(), 1, Out.size(), Stream) == Out.size();
  }
  std::fclose(Stream);
  return Ok;
}

} // namespace

void MappedTrace::reset() noexcept {
#if CCSIM_HAVE_MMAP
  if (MapBase)
    ::munmap(MapBase, MapLength);
#endif
  MapBase = nullptr;
  MapLength = 0;
  AccessBase = nullptr;
  NumAccesses = 0;
  Owned.clear();
}

MappedTrace::~MappedTrace() { reset(); }

MappedTrace::MappedTrace(MappedTrace &&Other) noexcept
    : Name(std::move(Other.Name)), Blocks(std::move(Other.Blocks)),
      MaxCacheBytes(Other.MaxCacheBytes), NumAccesses(Other.NumAccesses),
      AccessBase(Other.AccessBase), MapBase(Other.MapBase),
      MapLength(Other.MapLength), Owned(std::move(Other.Owned)) {
  Other.MapBase = nullptr;
  Other.MapLength = 0;
  Other.AccessBase = nullptr;
  Other.NumAccesses = 0;
}

MappedTrace &MappedTrace::operator=(MappedTrace &&Other) noexcept {
  if (this != &Other) {
    reset();
    Name = std::move(Other.Name);
    Blocks = std::move(Other.Blocks);
    MaxCacheBytes = Other.MaxCacheBytes;
    NumAccesses = Other.NumAccesses;
    AccessBase = Other.AccessBase;
    MapBase = Other.MapBase;
    MapLength = Other.MapLength;
    Owned = std::move(Other.Owned);
    Other.MapBase = nullptr;
    Other.MapLength = 0;
    Other.AccessBase = nullptr;
    Other.NumAccesses = 0;
  }
  return *this;
}

bool MappedTrace::decode(std::span<const uint8_t> Bytes) {
  BinaryReader R(Bytes);
  if (R.readU32() != TraceMagic || R.readU32() != TraceVersion)
    return false;
  Name = R.readString();
  // Every block takes at least 8 bytes (size and edge count), so a larger
  // count cannot be honest: reject it before it sizes the table.
  const uint32_t NumBlocks = R.readU32();
  if (!R.ok() || NumBlocks > R.remaining() / 8)
    return false;
  Blocks.resize(NumBlocks);
  for (SuperblockDef &B : Blocks) {
    B.SizeBytes = R.readU32();
    const uint32_t NumEdges = R.readU32();
    if (!R.ok() || NumEdges > R.remaining() / 4)
      return false;
    B.OutEdges.resize(NumEdges);
    for (SuperblockId &Edge : B.OutEdges)
      Edge = R.readU32();
  }
  // The access stream must run exactly to the end of the input; trailing
  // bytes are corruption, not padding.
  const uint64_t Count = R.readU64();
  if (!R.ok() || R.remaining() % 4 != 0 || Count != R.remaining() / 4)
    return false;
  AccessBase = R.readBytes(R.remaining()).data();
  NumAccesses = static_cast<size_t>(Count);
  if (!isStructurallyValid(Blocks, NumAccesses,
                           [this](size_t I) { return idAt(I); }))
    return false;
  for (const SuperblockDef &B : Blocks)
    MaxCacheBytes += B.SizeBytes;
  return true;
}

std::optional<MappedTrace> MappedTrace::fromBytes(std::vector<uint8_t> Bytes) {
  MappedTrace T;
  T.Owned = std::move(Bytes);
  if (!T.decode(T.Owned))
    return std::nullopt;
  return T;
}

std::optional<MappedTrace> MappedTrace::open(const std::string &Path,
                                             bool ForceFallback) {
#if CCSIM_HAVE_MMAP
  if (!ForceFallback) {
    MappedTrace T;
    const int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd >= 0) {
      struct stat St;
      if (::fstat(Fd, &St) == 0 && St.st_size > 0) {
        void *Base = ::mmap(nullptr, static_cast<size_t>(St.st_size),
                            PROT_READ, MAP_PRIVATE, Fd, 0);
        if (Base != MAP_FAILED) {
          T.MapBase = Base;
          T.MapLength = static_cast<size_t>(St.st_size);
        }
      }
      ::close(Fd);
    }
    if (T.MapBase) {
      if (!T.decode({static_cast<const uint8_t *>(T.MapBase), T.MapLength}))
        return std::nullopt;
      return T;
    }
  }
#else
  (void)ForceFallback;
#endif

  std::vector<uint8_t> Bytes;
  if (!readWholeFile(Path, Bytes))
    return std::nullopt;
  return fromBytes(std::move(Bytes));
}

SuperblockRecord MappedTrace::recordFor(SuperblockId Id) const {
  CCSIM_ASSERT(Id < Blocks.size(), "superblock id out of range");
  SuperblockRecord Rec;
  Rec.Id = Id;
  Rec.SizeBytes = Blocks[Id].SizeBytes;
  Rec.OutEdges = std::span<const SuperblockId>(Blocks[Id].OutEdges);
  return Rec;
}

Trace MappedTrace::toTrace() const {
  Trace T;
  T.Name = Name;
  T.Blocks = Blocks;
  T.Accesses.resize(NumAccesses);
  for (size_t I = 0; I < NumAccesses; ++I)
    T.Accesses[I] = idAt(I);
  return T;
}
