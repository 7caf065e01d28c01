//===- support/BinaryIO.h - Little-endian binary stream I/O --------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A little-endian binary writer (to a file or a memory buffer) and a
/// non-owning reader cursor over a byte span. The trace library
/// serializes DynamoRIO-style logs through these classes so experiments
/// can be replayed exactly (the paper's repeatability requirement,
/// Section 4.1). No exceptions: errors latch a failure flag that callers
/// must check.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_BINARYIO_H
#define CCSIM_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace ccsim {

/// Buffered little-endian binary writer.
class BinaryWriter {
public:
  /// Opens \p Path for writing. Check ok() before use.
  explicit BinaryWriter(const std::string &Path);

  /// Writes into an in-memory buffer instead of a file.
  BinaryWriter();

  ~BinaryWriter();

  BinaryWriter(const BinaryWriter &) = delete;
  BinaryWriter &operator=(const BinaryWriter &) = delete;

  bool ok() const { return !Failed; }

  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  void writeString(const std::string &S);
  void writeBytes(const void *Data, size_t Size);

  /// Flushes and closes the file (no-op for memory writers). Returns ok().
  bool finish();

  /// For memory writers: the accumulated bytes.
  const std::vector<uint8_t> &buffer() const { return Memory; }

private:
  FILE *Stream = nullptr;
  std::vector<uint8_t> Memory;
  bool ToMemory = false;
  bool Failed = false;
};

/// Bounds-checked little-endian cursor over bytes it does not own; the
/// bytes must outlive the reader and every span readBytes() returns.
/// A read past the end latches failure and returns zero / empty.
class BinaryReader {
public:
  explicit BinaryReader(std::span<const uint8_t> Bytes) : Bytes(Bytes) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Bytes.size() - Cursor; }

  uint32_t readU32();
  uint64_t readU64();
  std::string readString();

  /// The next \p Size bytes, as a view into the underlying buffer.
  std::span<const uint8_t> readBytes(size_t Size);

private:
  std::span<const uint8_t> Bytes;
  size_t Cursor = 0;
  bool Failed = false;
};

} // namespace ccsim

#endif // CCSIM_SUPPORT_BINARYIO_H
