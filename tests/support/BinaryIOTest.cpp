//===- tests/support/BinaryIOTest.cpp - Binary stream I/O tests -----------===//

#include "support/BinaryIO.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <iterator>

using namespace ccsim;

TEST(BinaryIOTest, MemoryRoundTripAllTypes) {
  BinaryWriter W;
  W.writeU32(0xdeadbeef);
  W.writeU64(0x0123456789abcdefULL);
  W.writeString("hello world");
  ASSERT_TRUE(W.ok());

  BinaryReader R(W.buffer());
  EXPECT_EQ(R.readU32(), 0xdeadbeefu);
  EXPECT_EQ(R.readU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.readString(), "hello world");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinaryIOTest, LittleEndianLayout) {
  BinaryWriter W;
  W.writeU32(0x01020304);
  ASSERT_EQ(W.buffer().size(), 4u);
  EXPECT_EQ(W.buffer()[0], 0x04);
  EXPECT_EQ(W.buffer()[3], 0x01);
}

TEST(BinaryIOTest, FileRoundTrip) {
  const std::string Path = ::testing::TempDir() + "/ccsim_binio_test.bin";
  {
    BinaryWriter W(Path);
    ASSERT_TRUE(W.ok());
    W.writeU64(42);
    W.writeString("file");
    EXPECT_TRUE(W.finish());
  }
  std::ifstream In(Path, std::ios::binary);
  const std::vector<uint8_t> Bytes{std::istreambuf_iterator<char>(In),
                                   std::istreambuf_iterator<char>()};
  BinaryReader R(Bytes);
  EXPECT_EQ(R.readU64(), 42u);
  EXPECT_EQ(R.readString(), "file");
  std::remove(Path.c_str());
}

TEST(BinaryIOTest, MissingFileFails) {
  BinaryWriter W("/nonexistent/path/definitely_missing.bin");
  EXPECT_FALSE(W.ok());
  W.writeU32(1);
  EXPECT_FALSE(W.finish());
}

TEST(BinaryIOTest, TruncatedReadSetsFailure) {
  BinaryWriter W;
  W.writeU32(7);
  BinaryReader R(W.buffer());
  EXPECT_EQ(R.readU32(), 7u);
  EXPECT_EQ(R.readU64(), 0u); // Past the end.
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, TruncatedStringFails) {
  BinaryWriter W;
  W.writeU32(100); // Claims 100 bytes follow; none do.
  BinaryReader R(W.buffer());
  (void)R.readString();
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, EmptyString) {
  BinaryWriter W;
  W.writeString("");
  BinaryReader R(W.buffer());
  EXPECT_EQ(R.readString(), "");
  EXPECT_TRUE(R.ok());
}

TEST(BinaryIOTest, ReadBytes) {
  BinaryWriter W;
  const uint8_t Data[] = {1, 2, 3, 4};
  W.writeBytes(Data, sizeof(Data));
  BinaryReader R(W.buffer());
  const std::span<const uint8_t> Out = R.readBytes(4);
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out.data(), W.buffer().data()); // A view, not a copy.
  EXPECT_EQ(Out[0], 1);
  EXPECT_EQ(Out[3], 4);
  EXPECT_TRUE(R.readBytes(1).empty());
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIOTest, RemainingTracksCursor) {
  BinaryWriter W;
  W.writeU32(1);
  W.writeU32(2);
  BinaryReader R(W.buffer());
  EXPECT_EQ(R.remaining(), 8u);
  (void)R.readU32();
  EXPECT_EQ(R.remaining(), 4u);
}
