#include "util/crc32c.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "util/thread_pool.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define KGE_CRC32C_X86_64 1
#endif

namespace kge {
namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

using Table = std::array<uint32_t, 256>;

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table
// and kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// one step folds eight input bytes with eight independent lookups
// instead of a chain of eight dependent ones.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

// Little-endian load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

// a * b mod P over GF(2), in the reflected representation the CRC
// register uses (bit 31 is x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t term = 1u << 31; term != 0; term >>= 1) {
    if ((a & term) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) mod P: multiplying a CRC register by it is feeding it n zero
// bytes.
constexpr uint32_t XPow8N(size_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t power = 1u << 23;   // x^8
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result = MultModP(result, power);
    power = MultModP(power, power);
  }
  return result;
}

#if KGE_CRC32C_X86_64

// Multiplication by one fixed x^(8n), one table per register byte (the
// product is linear in the register), so a shift is four lookups.
using ShiftTable = std::array<Table, 4>;

constexpr ShiftTable MakeShiftTable(size_t n) {
  const uint32_t factor = XPow8N(n);
  ShiftTable table{};
  for (uint32_t byte = 0; byte < 4; ++byte) {
    for (uint32_t i = 0; i < 256; ++i) {
      table[byte][i] = MultModP(i << (8 * byte), factor);
    }
  }
  return table;
}

constexpr ShiftTable kLongShift = MakeShiftTable(kCrc32cLongStride);
constexpr ShiftTable kShortShift = MakeShiftTable(kCrc32cShortStride);

inline uint32_t Shift(const ShiftTable& table, uint32_t state) {
  return table[0][state & 0xFFu] ^ table[1][(state >> 8) & 0xFFu] ^
         table[2][(state >> 16) & 0xFFu] ^ table[3][state >> 24];
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

// Folds 3 * kStride bytes into `state` as three independent streams, so
// the instruction's three-cycle latency overlaps: stream 0 continues
// `state`, streams 1 and 2 start from zero, and the join shifts each
// earlier stream past the bytes that follow it.
template <size_t kStride>
__attribute__((target("sse4.2"))) inline uint32_t ThreeStreams(
    uint32_t state, const uint8_t* p, const ShiftTable& shift) {
  uint64_t c0 = state;
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  for (size_t i = 0; i < kStride; i += 8) {
    c0 = _mm_crc32_u64(c0, Load64(p + i));
    c1 = _mm_crc32_u64(c1, Load64(p + kStride + i));
    c2 = _mm_crc32_u64(c2, Load64(p + 2 * kStride + i));
  }
  const uint32_t joined = Shift(shift, uint32_t(c0)) ^ uint32_t(c1);
  return Shift(shift, joined) ^ uint32_t(c2);
}

// The raw register update (no pre/post inversion), like the loops in
// Crc32cExtendPortable.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t state,
                                                       const uint8_t* bytes,
                                                       size_t count) {
  for (; count >= 3 * kCrc32cLongStride;
       bytes += 3 * kCrc32cLongStride, count -= 3 * kCrc32cLongStride) {
    state = ThreeStreams<kCrc32cLongStride>(state, bytes, kLongShift);
  }
  for (; count >= 3 * kCrc32cShortStride;
       bytes += 3 * kCrc32cShortStride, count -= 3 * kCrc32cShortStride) {
    state = ThreeStreams<kCrc32cShortStride>(state, bytes, kShortShift);
  }
  for (; count >= 8; bytes += 8, count -= 8) {
    state = uint32_t(_mm_crc32_u64(state, Load64(bytes)));
  }
  for (; count > 0; ++bytes, --count) state = _mm_crc32_u8(state, *bytes);
  return state;
}

#endif  // KGE_CRC32C_X86_64

bool DetectHardware() {
#if KGE_CRC32C_X86_64
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t count) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t state = ~crc;
  for (; count >= 8; bytes += 8, count -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ state;
    const uint32_t hi = LoadLe32(bytes + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; count > 0; ++bytes, --count) {
    state = (state >> 8) ^ kTables[0][(state ^ *bytes) & 0xFFu];
  }
  return ~state;
}

bool Crc32cUsesHardware() {
  static const bool hardware = DetectHardware();
  return hardware;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t count) {
#if KGE_CRC32C_X86_64
  if (Crc32cUsesHardware()) {
    return ~ExtendSse42(~crc, static_cast<const uint8_t*>(data), count);
  }
#endif
  return Crc32cExtendPortable(crc, data, count);
}

uint32_t Crc32c(const void* data, size_t count) {
  return Crc32cExtend(0, data, count);
}

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  return MultModP(XPow8N(len_b), crc_a) ^ crc_b;
}

uint32_t Crc32cOnPool(const void* data, size_t count, ThreadPool* pool) {
  if (pool == nullptr || count <= kCrc32cChunkBytes) {
    return Crc32c(data, count);
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t chunks = (count + kCrc32cChunkBytes - 1) / kCrc32cChunkBytes;
  std::vector<uint32_t> crcs(chunks);
  pool->StageFor(0, chunks, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t offset = c * kCrc32cChunkBytes;
      crcs[c] = Crc32c(bytes + offset,
                       std::min(kCrc32cChunkBytes, count - offset));
    }
  });
  // Every chunk but the last is full-length, so one constant shifts the
  // running checksum past each of them.
  constexpr uint32_t kChunkShift = XPow8N(kCrc32cChunkBytes);
  uint32_t crc = crcs[0];
  for (size_t c = 1; c + 1 < chunks; ++c) {
    crc = MultModP(kChunkShift, crc) ^ crcs[c];
  }
  return Crc32cCombine(crc, crcs.back(),
                       count - (chunks - 1) * kCrc32cChunkBytes);
}

}  // namespace kge
