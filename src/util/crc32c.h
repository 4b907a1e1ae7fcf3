// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum used by the checkpoint format to detect torn writes and bit
// rot. A hot-swapping server checksums every published checkpoint three
// times (save, verify, map) while it answers queries, so the checksum's
// CPU time is serving capacity. On x86-64 CPUs with SSE4.2 (checked at
// run time) Crc32cExtend runs the `crc32` instruction over three
// interleaved streams and joins them by GF(2) multiplication; elsewhere
// it runs the portable slicing-by-8 loop. Both give the same checksum
// for every input. Crc32cOnPool checksums a large buffer as chunks on a
// thread pool and joins them with Crc32cCombine, so a snapshot's
// checksum costs the server wall time on every lane, not on one.
#ifndef KGE_UTIL_CRC32C_H_
#define KGE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace kge {

class ThreadPool;

// Extends a running CRC32C with `count` bytes. Start a fresh checksum by
// passing crc = 0; the returned value is the standard (xor-out applied)
// CRC32C, so chained calls compose: Crc32cExtend(Crc32cExtend(0, a), b)
// == Crc32c(a ++ b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t count);

// CRC32C of a single buffer (== Crc32cExtend(0, data, count)).
uint32_t Crc32c(const void* data, size_t count);

// The checksum of a concatenation from its parts:
// Crc32cCombine(Crc32c(a), Crc32c(b), |b|) == Crc32c(a ++ b). Multiplies
// crc_a by x^(8·len_b) mod P (feeding it len_b zero bytes) and adds
// crc_b; the pre- and post-inversion cancel. O(log len_b).
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

// Crc32cOnPool splits its input into chunks of this many bytes (the last
// one shorter); an input of at most one chunk is checksummed inline.
inline constexpr size_t kCrc32cChunkBytes = size_t{1} << 20;

// Crc32c(data, count), bit for bit: the kCrc32cChunkBytes chunks are
// checksummed across `pool` (the caller helps) and joined in order with
// Crc32cCombine. A null or inline pool runs the chunks on the caller.
uint32_t Crc32cOnPool(const void* data, size_t count, ThreadPool* pool);

// The slicing-by-8 loop Crc32cExtend falls back to without SSE4.2;
// exposed so tests can pin both paths to one reference.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t count);

// True when Crc32cExtend runs the SSE4.2 instruction.
bool Crc32cUsesHardware();

// The hardware path folds three interleaved streams of kCrc32cLongStride
// bytes per step while at least 3 * kCrc32cLongStride bytes remain, then
// of kCrc32cShortStride bytes, then eight bytes and single bytes at a
// time. Exposed so tests can cover every boundary between those steps.
inline constexpr size_t kCrc32cLongStride = 8192;
inline constexpr size_t kCrc32cShortStride = 256;

}  // namespace kge

#endif  // KGE_UTIL_CRC32C_H_
