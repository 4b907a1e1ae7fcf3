#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace kge {
namespace {

TEST(Crc32cTest, KnownVector) {
  // The RFC 3720 check value for the ASCII digits "123456789".
  const char data[] = "123456789";
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c("x", 0), 0u);
}

TEST(Crc32cTest, AllZeros32Bytes) {
  // Another published vector: 32 bytes of 0x00.
  const std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, AllOnes32Bytes) {
  const std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// Bit-at-a-time CRC32C straight from the polynomial: the reference the
// sliced implementation must match.
uint32_t ReferenceCrc32c(const unsigned char* data, size_t count) {
  uint32_t state = 0xFFFFFFFFu;
  for (size_t i = 0; i < count; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ 0x82F63B78u : state >> 1;
    }
  }
  return ~state;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  // Every start offset within a word and every length up to a few words
  // crosses the 8-byte main loop and the byte tail at each alignment.
  std::vector<unsigned char> data(4096 + 16);
  uint32_t x = 12345;
  for (unsigned char& byte : data) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 40; ++length) {
      EXPECT_EQ(Crc32c(data.data() + offset, length),
                ReferenceCrc32c(data.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
    const size_t length = data.size() - offset;
    EXPECT_EQ(Crc32c(data.data() + offset, length),
              ReferenceCrc32c(data.data() + offset, length))
        << "offset " << offset << " length " << length;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::vector<unsigned char> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const uint32_t original = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), original)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<unsigned char>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace kge
