// Discovery RPC wire types, shared between the single-server datapath
// (DiscoveryServer / RemoteDiscovery) and the replicated control plane
// (src/control/): a replica must decode a client mutation, ship it
// through the partition sequencer, and re-execute it deterministically
// on every group member, so the request/response codec cannot stay an
// implementation detail of discovery.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chunnel.hpp"
#include "core/wire.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"

namespace bertha {

class DiscoveryState;

enum class DiscOp : uint8_t {
  register_impl = 1,
  unregister_impl = 2,
  query = 3,
  acquire = 4,
  release = 5,
  set_pool = 6,
  heartbeat = 7,  // renews every lease held by client_id
  // Batched query: the implementations of every type in `types`, in one
  // round trip (negotiation looks up a whole chain with it).
  query_types = 8,
};

// Most types one query_types request may name. The batch is outside
// input; a chain of chunnels is a handful of types.
inline constexpr size_t kMaxQueryTypes = 64;

struct DiscRequest {
  DiscOp op;
  std::string type;
  std::string name;
  std::optional<ImplInfo> entry;
  std::vector<ResourceReq> resources;
  uint64_t alloc_id = 0;
  uint64_t capacity = 0;
  // Fault-tolerance extensions (zero/empty when unused).
  std::string client_id;  // lease owner / dedup namespace
  uint64_t idem_key = 0;  // non-zero: dedupe retries of this mutation
  uint64_t ttl_ms = 0;    // non-zero: lease the registration/allocation
  std::vector<std::string> types;  // query_types: 1..kMaxQueryTypes types
  TraceContext trace;     // optional: caller's span, for server-side spans
};

struct DiscResponse {
  bool success = false;
  uint8_t errc = 0;
  std::string error;
  std::vector<ImplInfo> entries;
  uint64_t alloc_id = 0;
  // query_types: the requested types this answer covers, each with its
  // implementations in the flat `entries`. A requested type missing here
  // failed; the client treats it like a failed query() of that type.
  std::vector<std::string> types;
};

// Largest encoded response a server sends: an answer that would not fit
// one datagram (with its frame header) is replaced by an error, so the
// client sees a failure instead of an RPC timeout.
inline constexpr size_t kMaxResponseBytes = kMaxDatagram - kWireHeaderSize;

Bytes encode_request(const DiscRequest& req);
Result<DiscRequest> decode_request(BytesView b);
Bytes encode_response(const DiscResponse& rsp);
Result<DiscResponse> decode_response(BytesView b);
DiscResponse error_response(const Error& e);
const char* serve_span_name(DiscOp op);

// True for ops that change state (everything but the queries). Mutations
// are the ops a replica group must sequence; queries serve locally.
inline bool is_mutation(DiscOp op) {
  return op != DiscOp::query && op != DiscOp::query_types;
}

// Executes one decoded request against `state` and builds the wire
// response. `at` is the time basis for lease arithmetic: the serve path
// passes now(); replicated apply passes the op's origin-stamped time so
// every replica computes the identical lease expiry (and therefore the
// identical sweep outcome and watch-event sequence).
DiscResponse execute_request(DiscoveryState& state, const DiscRequest& req,
                             TimePoint at);

}  // namespace bertha
