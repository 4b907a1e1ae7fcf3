#include "util/crc32c.h"

#include <array>

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

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t count) {
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

uint32_t Crc32c(const void* data, size_t count) {
  return Crc32cExtend(0, data, count);
}

}  // namespace kge
