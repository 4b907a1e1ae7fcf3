// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum used by the checkpoint format to detect torn writes and bit
// rot. Portable slicing-by-8 software implementation: a hot-swapping
// server checksums every published checkpoint twice (verify, then map)
// while it answers queries, so the checksum's CPU time is serving
// capacity, but portability still beats SSE4.2 intrinsics here.
#ifndef KGE_UTIL_CRC32C_H_
#define KGE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace kge {

// Extends a running CRC32C with `count` bytes. Start a fresh checksum by
// passing crc = 0; the returned value is the standard (xor-out applied)
// CRC32C, so chained calls compose: Crc32cExtend(Crc32cExtend(0, a), b)
// == Crc32c(a ++ b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t count);

// CRC32C of a single buffer (== Crc32cExtend(0, data, count)).
uint32_t Crc32c(const void* data, size_t count);

}  // namespace kge

#endif  // KGE_UTIL_CRC32C_H_
