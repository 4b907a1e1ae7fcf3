// Wire protocol for kge_serve — length-prefixed binary frames over a
// byte stream (TCP). One request frame yields exactly one response
// frame. All integers are little-endian (the repo's BinaryWriter
// convention; a little-endian host is static_asserted in io.cc).
//
// Request frame (fixed 36 bytes):
//   u32 magic            kServeRequestMagic
//   u32 body_len         must equal kRequestBodyBytes (28)
//   u8  version          kServeProtocolVersion
//   u8  side             0 = predict tails for (entity, ?, relation)
//                        1 = predict heads for (?, entity, relation)
//   u16 reserved         must be 0
//   i32 entity           the known entity of the partial triple
//   i32 relation
//   u32 k                top-k to return, <= kServeMaxTopK
//   u32 deadline_ms      0 = server default, <= kServeMaxDeadlineMs
//   u64 request_id       opaque, echoed back
//
// Response frame (8 + 24 + 8*count bytes):
//   u32 magic            kServeResponseMagic
//   u32 body_len         24 + 8*count
//   u8  version
//   u8  status           ServeStatusCode
//   u8  tier             ScorePrecision the scores were computed at
//   u8  side             echoed
//   u32 count            results returned (0 unless status == kOk)
//   u64 request_id       echoed
//   u64 snapshot_version the model snapshot that produced the scores
//   count x { i32 entity, f32 score }   best first
//
// Hostile-input contract: decoding never allocates — frames are parsed
// in place from caller-owned buffers, every length is validated against
// the fixed bounds above before use, and a reader must reject any
// body_len it is not prepared to buffer (the server only ever reads
// kRequestBodyBytes). Mirrors the checkpoint reader's "clean Status
// instead of a giant allocation" rule.
#ifndef KGE_SERVE_SERVE_PROTOCOL_H_
#define KGE_SERVE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/scoring_replica.h"
#include "eval/topk.h"
#include "kg/triple.h"
#include "util/hotpath.h"
#include "util/status.h"

namespace kge {

inline constexpr uint32_t kServeRequestMagic = 0x51524B47;   // "GKRQ"
inline constexpr uint32_t kServeResponseMagic = 0x50524B47;  // "GKRP"
inline constexpr uint8_t kServeProtocolVersion = 1;

inline constexpr uint32_t kServeMaxTopK = 1024;
inline constexpr uint32_t kServeMaxDeadlineMs = 60 * 1000;

inline constexpr size_t kFrameHeaderBytes = 8;
inline constexpr size_t kRequestBodyBytes = 28;
inline constexpr size_t kRequestFrameBytes =
    kFrameHeaderBytes + kRequestBodyBytes;
inline constexpr size_t kResponseBodyBaseBytes = 24;
inline constexpr size_t kResponseEntryBytes = 8;

enum class ServeStatusCode : uint8_t {
  kOk = 0,
  // Admission control rejected the request (queue full).
  kShed = 1,
  // Malformed frame or out-of-range entity/relation/k.
  kInvalid = 2,
  // Internal failure (e.g. no snapshot loaded yet).
  kError = 3,
  // The request expired in the queue before a batch picked it up.
  kDeadlineExceeded = 4,
  // The server is draining; retry against a new instance.
  kShuttingDown = 5,
};

// "ok", "shed", ... for logs and the kge_query CLI.
const char* ServeStatusCodeName(ServeStatusCode code);

struct ServeRequest {
  QuerySide side = QuerySide::kTail;
  EntityId entity = 0;
  RelationId relation = 0;
  uint32_t k = 10;
  uint32_t deadline_ms = 0;  // 0 = server default
  uint64_t request_id = 0;
};

struct ServeResponseHeader {
  ServeStatusCode status = ServeStatusCode::kError;
  ScorePrecision tier = ScorePrecision::kDouble;
  QuerySide side = QuerySide::kTail;
  uint32_t count = 0;
  uint64_t request_id = 0;
  uint64_t snapshot_version = 0;
};

// Upper bound on an encoded response for `k` results; size client and
// connection buffers with this.
inline constexpr size_t MaxResponseFrameBytes(uint32_t k) {
  return kFrameHeaderBytes + kResponseBodyBaseBytes +
         size_t(k) * kResponseEntryBytes;
}

// Encodes `request` into `out` (>= kRequestFrameBytes). Returns the
// encoded size, or 0 when `out` is too small.
size_t EncodeServeRequest(const ServeRequest& request,
                          std::span<uint8_t> out);

// Validates and decodes a full request frame (header + body). Rejects
// bad magic/length/version/reserved bits and out-of-bound k/deadline.
// Entity/relation range checks happen against the live snapshot at
// scoring time, not here.
Status DecodeServeRequestFrame(std::span<const uint8_t> frame,
                               ServeRequest* out);

// Encodes a response frame into `out`; `results.size()` must equal
// `header.count`. Returns the encoded size, or 0 when `out` is too
// small. No allocation: safe inside the serving hot path.
KGE_HOT_NOALLOC
size_t EncodeServeResponse(const ServeResponseHeader& header,
                           std::span<const ScoredEntity> results,
                           std::span<uint8_t> out);

// Decodes a full response frame (client side; cold path). Appends
// decoded results to `*results`.
Status DecodeServeResponseFrame(std::span<const uint8_t> frame,
                                ServeResponseHeader* header,
                                std::vector<ScoredEntity>* results);

// Splits a frame header into (magic, body_len). `header` must hold
// kFrameHeaderBytes.
void DecodeFrameHeader(std::span<const uint8_t> header, uint32_t* magic,
                       uint32_t* body_len);

}  // namespace kge

#endif  // KGE_SERVE_SERVE_PROTOCOL_H_
