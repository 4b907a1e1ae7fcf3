#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "util/thread_pool.h"

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

// Bit-at-a-time CRC32C straight from the polynomial: the reference both
// the hardware and the sliced implementation must match.
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

std::vector<unsigned char> PseudoRandomBytes(size_t count) {
  std::vector<unsigned char> data(count);
  uint32_t x = 12345;
  for (unsigned char& byte : data) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<unsigned char>(x >> 24);
  }
  return data;
}

// Lengths at every step boundary of the hardware path: 0-3 long
// interleave blocks (three streams of kCrc32cLongStride bytes), each
// followed by tails that cross the short interleave blocks, the 8-byte
// loop and the byte loop, plus every length up to a few words. Sorted
// ascending.
std::vector<size_t> BoundaryLengths() {
  const size_t long_block = 3 * kCrc32cLongStride;
  const size_t short_block = 3 * kCrc32cShortStride;
  std::vector<size_t> lengths;
  for (size_t length = 0; length < 40; ++length) lengths.push_back(length);
  for (size_t blocks = 0; blocks <= 3; ++blocks) {
    for (const size_t tail :
         {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9), size_t(15),
          size_t(40), short_block - 1, short_block, short_block + 1,
          short_block + 13, 2 * short_block + 8, long_block - short_block,
          long_block - 8, long_block - 1}) {
      lengths.push_back(blocks * long_block + tail);
    }
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  return lengths;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  const std::vector<size_t> lengths = BoundaryLengths();
  const std::vector<unsigned char> data =
      PseudoRandomBytes(lengths.back() + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* start = data.data() + offset;
    // One bitwise pass per offset: every length is a prefix of it.
    uint32_t state = 0xFFFFFFFFu;
    size_t done = 0;
    for (const size_t length : lengths) {
      for (; done < length; ++done) {
        state ^= start[done];
        for (int bit = 0; bit < 8; ++bit) {
          state = (state & 1u) ? (state >> 1) ^ 0x82F63B78u : state >> 1;
        }
      }
      const uint32_t want = ~state;
      EXPECT_EQ(Crc32c(start, length), want)
          << "dispatched, offset " << offset << " length " << length;
      EXPECT_EQ(Crc32cExtendPortable(0, start, length), want)
          << "portable, offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, ExtendChainsAcrossInterleaveBlockBoundaries) {
  const size_t long_block = 3 * kCrc32cLongStride;
  const size_t short_block = 3 * kCrc32cShortStride;
  const size_t total = 2 * long_block + short_block + 21;
  const std::vector<unsigned char> data = PseudoRandomBytes(total);
  const uint32_t whole = ReferenceCrc32c(data.data(), total);
  for (const size_t split :
       {size_t(1), size_t(8), kCrc32cLongStride, long_block - 1, long_block,
        long_block + 1, long_block + short_block - 3, 2 * long_block - 5,
        2 * long_block, 2 * long_block + short_block, total - 1}) {
    for (const size_t second : {size_t(0), size_t(3), short_block + 1}) {
      const size_t mid = std::min(total, split + second);
      uint32_t crc = Crc32cExtend(0, data.data(), split);
      crc = Crc32cExtend(crc, data.data() + split, mid - split);
      crc = Crc32cExtend(crc, data.data() + mid, total - mid);
      EXPECT_EQ(crc, whole) << "split at " << split << ", " << mid;
      uint32_t portable = Crc32cExtendPortable(0, data.data(), split);
      portable =
          Crc32cExtendPortable(portable, data.data() + split, total - split);
      EXPECT_EQ(portable, whole) << "portable split at " << split;
    }
  }
}

// Piece lengths around every step of the hardware loop (the 8-byte and
// byte tails, the short and long interleave blocks) and past one pooled
// chunk.
const size_t kSplitLengths[] = {0,
                                1,
                                7,
                                8,
                                255,
                                256,
                                257,
                                8191,
                                8192,
                                8193,
                                3 * kCrc32cLongStride - 1,
                                3 * kCrc32cLongStride + 1,
                                (size_t{1} << 20) + 3};

TEST(Crc32cTest, CombineJoinsEverySplitOnBothPaths) {
  const size_t longest = kSplitLengths[std::size(kSplitLengths) - 1];
  const std::vector<unsigned char> data = PseudoRandomBytes(2 * longest);
  for (const size_t len_a : kSplitLengths) {
    for (const size_t len_b : kSplitLengths) {
      const unsigned char* a = data.data();
      const unsigned char* b = data.data() + len_a;
      EXPECT_EQ(Crc32cCombine(Crc32c(a, len_a), Crc32c(b, len_b), len_b),
                Crc32c(a, len_a + len_b))
          << "dispatched, " << len_a << " + " << len_b;
      EXPECT_EQ(Crc32cCombine(Crc32cExtendPortable(0, a, len_a),
                              Crc32cExtendPortable(0, b, len_b), len_b),
                Crc32cExtendPortable(0, a, len_a + len_b))
          << "portable, " << len_a << " + " << len_b;
    }
  }
}

TEST(Crc32cTest, CombineJoinsRandomSplitsIntoTheSerialChecksum) {
  const std::vector<unsigned char> data = PseudoRandomBytes(3 << 20);
  uint64_t x = 99;
  for (int trial = 0; trial < 64; ++trial) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const size_t total = size_t(x >> 33) % data.size();
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const size_t split = total == 0 ? 0 : size_t(x >> 33) % (total + 1);
    const uint32_t joined =
        Crc32cCombine(Crc32c(data.data(), split),
                      Crc32c(data.data() + split, total - split),
                      total - split);
    EXPECT_EQ(joined, Crc32c(data.data(), total))
        << "split " << split << " of " << total;
  }
}

// Every chunk count from 1 to 8, with a full, a short and a one-byte last
// chunk, on no pool, an inline pool and pools of 2 and 4 threads.
TEST(Crc32cTest, PooledChecksumEqualsTheSerialOneForEveryChunkCount) {
  const std::vector<unsigned char> data =
      PseudoRandomBytes(8 * kCrc32cChunkBytes);
  ThreadPool inline_pool(1);
  ThreadPool two(2);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &inline_pool,
                           &two, &four}) {
    for (size_t chunks = 1; chunks <= 8; ++chunks) {
      for (const size_t last :
           {size_t(1), kCrc32cChunkBytes / 2 + 3, kCrc32cChunkBytes}) {
        const size_t count = (chunks - 1) * kCrc32cChunkBytes + last;
        ASSERT_EQ((count + kCrc32cChunkBytes - 1) / kCrc32cChunkBytes, chunks);
        EXPECT_EQ(Crc32cOnPool(data.data(), count, pool),
                  Crc32c(data.data(), count))
            << (pool == nullptr ? 0 : pool->num_threads()) << " threads, "
            << chunks << " chunks, " << count << " bytes";
      }
    }
  }
}

TEST(Crc32cTest, UsesTheInstructionWhereverTheCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(Crc32cUsesHardware(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(Crc32cUsesHardware());
#endif
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
