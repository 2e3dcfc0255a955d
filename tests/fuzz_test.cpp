// Robustness suite: every wire-facing decoder is fed random bytes,
// truncations of valid messages, and bit-flipped valid messages — none
// may crash, hang, or return success on corrupted framing where
// integrity is checked; live listeners must survive adversarial
// datagrams and keep serving.
#include <gtest/gtest.h>

#include "apps/kvproto.hpp"
#include "chunnels/ordered_mcast.hpp"
#include "control/control_wire.hpp"
#include "core/discovery.hpp"
#include "chunnels/shard.hpp"
#include "core/negotiation.hpp"
#include "core/renegotiation.hpp"
#include "core/wire.hpp"
#include "serialize/text_codec.hpp"
#include "sim/ir_exec.hpp"
#include "synth/ir.hpp"
#include "test_helpers.hpp"
#include "util/rand.hpp"

namespace bertha {
namespace {

using testing_support::TestWorld;

Bytes random_bytes(Rng& rng, size_t max_len) {
  Bytes b(rng.next_below(max_len + 1));
  for (auto& x : b) x = static_cast<uint8_t>(rng.next_below(256));
  return b;
}

// Each decoder consumed without crashing == pass; results are ignored.
class DecoderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; iter++) {
    Bytes data = random_bytes(rng, 512);
    (void)decode_frame(data);
    (void)decode_hello(data);
    (void)decode_accept(data);
    (void)decode_reject(data);
    (void)decode_transition(data);
    (void)decode_transition_cancel(data);
    (void)decode_subscribe(data);
    (void)decode_unsubscribe(data);
    (void)decode_event_batch(data);
    (void)decode_kv_request(data);
    (void)decode_kv_response(data);
    (void)parse_shard_frame(data);
    (void)parse_mcast_frame(data);
    (void)parse_sequenced_mcast(data);
    (void)parse_mcast_fetch(data);
    (void)parse_mcast_fetch_miss(data);
    (void)parse_mcast_view_start(data);
    (void)decode_ctrl_op(data);
    (void)peek_ctrl_frame(data);
    (void)decode_snapshot_req(data);
    (void)decode_snapshot_rsp(data);
    (void)decode_view_change(data);
    (void)decode_membership(data);
    (void)decode_reshard_op(data);
    (void)decode_reshard_payload(data);
    (void)decode_reshard_ack(data);
    (void)decode_reshard_snapshot_req(data);
    (void)decode_reshard_snapshot_rsp(data);
    (void)decode_program(data);
    (void)text_decode(data);
    (void)deserialize_from_bytes<ChunnelDag>(data);
    (void)deserialize_from_bytes<ImplInfo>(data);
    (void)Addr::parse(to_string(data));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Every strict prefix of a valid message must decode to an error (or a
// benign success for self-delimiting prefixes), never crash.
TEST(TruncationFuzz, HelloMessagePrefixes) {
  HelloMsg hello;
  hello.endpoint_name = "victim";
  hello.host_id = "h";
  hello.process_id = "p";
  hello.dag = wrap(ChunnelSpec("reliable"), ChunnelSpec("serialize"));
  ImplInfo info;
  info.type = "reliable";
  info.name = "reliable/arq";
  info.resources = {{"pool", 2}};
  info.props = {{"k", "v"}};
  hello.offers["reliable"] = {info};
  Bytes full = encode_hello(hello);
  for (size_t n = 0; n < full.size(); n++) {
    BytesView prefix(full.data(), n);
    auto r = decode_hello(prefix);
    EXPECT_FALSE(r.ok()) << "prefix of length " << n << " decoded";
  }
  EXPECT_TRUE(decode_hello(full).ok());
}

TEST(TruncationFuzz, KvRequestPrefixes) {
  KvRequest req;
  req.op = KvOp::put;
  req.id = 123456789;
  req.key = "user000000000007";
  req.value = std::string(64, 'v');
  Bytes full = encode_kv_request(req);
  for (size_t n = 0; n < full.size(); n++) {
    auto r = decode_kv_request(BytesView(full.data(), n));
    EXPECT_FALSE(r.ok()) << n;
  }
}

TEST(TruncationFuzz, AcceptMessagePrefixes) {
  AcceptMsg a;
  a.token = 42;
  a.host_id = "srv";
  a.process_id = "p";
  NegotiatedNode n1;
  n1.type = "shard";
  n1.impl_name = "shard/xdp";
  n1.args.set("shards", "udp://1.1.1.1:1");
  a.chain = {n1};
  Bytes full = encode_accept(a);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_accept(BytesView(full.data(), n)).ok()) << n;
}

// --- discovery request/response codec ---

DiscRequest query_types_req(size_t n) {
  DiscRequest req;
  req.op = DiscOp::query_types;
  for (size_t i = 0; i < n; i++) req.types.push_back("type" + std::to_string(i));
  return req;
}

DiscResponse fuzz_disc_response() {
  DiscResponse rsp;
  rsp.success = true;
  for (const char* t : {"encrypt", "frame"}) {
    ImplInfo info;
    info.type = t;
    info.name = std::string(t) + "/hw";
    info.resources = {{"pool", 1}};
    info.props = {{"device", "nic0"}};
    rsp.entries.push_back(info);
    rsp.types.push_back(t);
  }
  rsp.types.push_back("keepalive");  // answered, no entries
  return rsp;
}

TEST(TruncationFuzz, DiscoveryRequestPrefixes) {
  DiscRequest reg;
  reg.op = DiscOp::register_impl;
  reg.entry = fuzz_disc_response().entries[0];
  reg.client_id = "c";
  reg.idem_key = 9;
  DiscRequest single;
  single.op = DiscOp::query;
  single.type = "encrypt";
  for (const DiscRequest& req : {reg, single, query_types_req(1),
                                 query_types_req(kMaxQueryTypes)}) {
    Bytes full = encode_request(req);
    for (size_t n = 0; n < full.size(); n++)
      EXPECT_FALSE(decode_request(BytesView(full.data(), n)).ok())
          << "op " << static_cast<int>(req.op) << " prefix " << n;
    auto back = decode_request(full);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().types, req.types);
  }
}

TEST(TruncationFuzz, DiscoveryResponsePrefixes) {
  DiscResponse rsp = fuzz_disc_response();
  Bytes full = encode_response(rsp);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_response(BytesView(full.data(), n)).ok()) << n;
  auto back = decode_response(full);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().entries, rsp.entries);
  EXPECT_EQ(back.value().types, rsp.types);
}

// The batch is outside input: decode admits 1..kMaxQueryTypes types and
// rejects an empty batch and one over the cap.
TEST(DiscoveryWireFuzz, QueryTypesBatchSizeIsBounded) {
  for (size_t n : {size_t{0}, size_t{1}, kMaxQueryTypes, kMaxQueryTypes + 1}) {
    auto r = decode_request(encode_request(query_types_req(n)));
    bool in_bounds = n >= 1 && n <= kMaxQueryTypes;
    EXPECT_EQ(r.ok(), in_bounds) << n << " types";
    if (r.ok()) {
      EXPECT_EQ(r.value().types.size(), n);
    }
  }
}

// Bit flips across a full batch and across an answer: decode either
// fails cleanly or yields a request the serve path executes without
// crashing, and a decoded batch always stays within the cap.
class DiscoveryBitflipFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiscoveryBitflipFuzz, RequestAndResponseBitflipsNeverCrash) {
  Rng rng(GetParam());
  DiscoveryState state;
  state.set_manual_sweep(true);
  const Bytes good_req = encode_request(query_types_req(kMaxQueryTypes));
  const Bytes good_rsp = encode_response(fuzz_disc_response());
  for (int iter = 0; iter < 400; iter++) {
    Bytes bad = good_req;
    bad[rng.next_below(bad.size())] ^=
        static_cast<uint8_t>(1u << rng.next_below(8));
    auto req = decode_request(bad);
    if (req.ok()) {
      if (req.value().op == DiscOp::query_types) {
        EXPECT_GE(req.value().types.size(), 1u);
        EXPECT_LE(req.value().types.size(), kMaxQueryTypes);
      }
      (void)execute_request(state, req.value(), now());
    }
    Bytes bad_rsp = good_rsp;
    bad_rsp[rng.next_below(bad_rsp.size())] ^=
        static_cast<uint8_t>(1u << rng.next_below(8));
    (void)decode_response(bad_rsp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryBitflipFuzz,
                         ::testing::Values(7, 77, 777));

// --- optional trace-context tails ---
//
// The tail is observability, not protocol: a truncated or garbled tail
// must degrade to "no context" and NEVER reject an otherwise-valid
// frame. Prefixes that cut the mandatory fields still fail as before.

TEST(TraceTailFuzz, HelloTailTruncationDegradesToNoContext) {
  HelloMsg hello;
  hello.endpoint_name = "victim";
  hello.host_id = "h";
  hello.process_id = "p";
  hello.dag = wrap(ChunnelSpec("reliable"));
  Bytes bare = encode_hello(hello);
  hello.trace = TraceContext{0x1234567890ULL, 0x42};
  Bytes full = encode_hello(hello);
  ASSERT_GT(full.size(), bare.size());

  // Mandatory-field prefixes still fail.
  for (size_t n = 0; n < bare.size(); n++)
    EXPECT_FALSE(decode_hello(BytesView(full.data(), n)).ok()) << n;
  // Any truncation inside the tail decodes fine, context dropped.
  for (size_t n = bare.size(); n < full.size(); n++) {
    auto r = decode_hello(BytesView(full.data(), n));
    ASSERT_TRUE(r.ok()) << "tail truncation at " << n << " rejected frame";
    EXPECT_FALSE(r.value().trace.valid()) << n;
  }
  auto whole = decode_hello(full);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().trace.trace_id, 0x1234567890ULL);
}

TEST(TraceTailFuzz, GarbageTailsNeverRejectValidFrames) {
  Rng rng(17);
  HelloMsg hello;
  hello.endpoint_name = "victim";
  hello.host_id = "h";
  Bytes hello_bare = encode_hello(hello);
  TransitionMsg t;
  t.epoch = 3;
  t.new_token = 9;
  Bytes trans_bare = encode_transition(t);
  TransitionCancelMsg c;
  c.epoch = 3;
  Bytes cancel_bare = encode_transition_cancel(c);

  for (int iter = 0; iter < 300; iter++) {
    Bytes junk = random_bytes(rng, 24);
    Bytes h2 = hello_bare;
    h2.insert(h2.end(), junk.begin(), junk.end());
    EXPECT_TRUE(decode_hello(h2).ok()) << "garbage tail rejected hello";
    Bytes t2 = trans_bare;
    t2.insert(t2.end(), junk.begin(), junk.end());
    auto tr = decode_transition(t2);
    ASSERT_TRUE(tr.ok()) << "garbage tail rejected transition";
    EXPECT_EQ(tr.value().epoch, 3u);
    Bytes c2 = cancel_bare;
    c2.insert(c2.end(), junk.begin(), junk.end());
    EXPECT_TRUE(decode_transition_cancel(c2).ok())
        << "garbage tail rejected cancel";
  }

  // Tails starting with the magic byte but carrying truncated/overlong
  // varints are the nastiest case: still no rejection.
  for (int iter = 0; iter < 100; iter++) {
    Bytes evil = {kTraceCtxMagic};
    Bytes junk = random_bytes(rng, 12);
    evil.insert(evil.end(), junk.begin(), junk.end());
    Bytes h2 = hello_bare;
    h2.insert(h2.end(), evil.begin(), evil.end());
    EXPECT_TRUE(decode_hello(h2).ok());
  }
}

// --- Watch-subscription wire messages (subscribe / unsubscribe /
// event_batch) ---

WatchEvent fuzz_event(uint64_t seq, const std::string& name) {
  WatchEvent ev;
  ev.kind = WatchKind::impl_registered;
  ev.seq = seq;
  ev.type = "enc";
  ev.name = name;
  ImplInfo info;
  info.type = "enc";
  info.name = name;
  ev.info = info;
  return ev;
}

TEST(TruncationFuzz, SubscribeMessagePrefixes) {
  SubscribeMsg m;
  m.sub_id = 77;
  m.client_id = "client-abc";
  m.filter = "enc";
  m.last_seq = 123456;
  m.resume = true;
  Bytes full = encode_subscribe(m);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_subscribe(BytesView(full.data(), n)).ok()) << n;
  EXPECT_TRUE(decode_subscribe(full).ok());
}

TEST(TruncationFuzz, UnsubscribeMessagePrefixes) {
  UnsubscribeMsg m;
  m.sub_id = 9;
  m.client_id = "client-abc";
  Bytes full = encode_unsubscribe(m);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_unsubscribe(BytesView(full.data(), n)).ok()) << n;
  EXPECT_TRUE(decode_unsubscribe(full).ok());
}

TEST(TruncationFuzz, EventBatchPrefixes) {
  EventBatchMsg m;
  m.prev_seq = 10;
  m.last_seq = 12;
  m.events = {fuzz_event(11, "enc/a"), fuzz_event(12, "enc/b")};
  Bytes full = encode_event_batch(m);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_event_batch(BytesView(full.data(), n)).ok()) << n;
  EXPECT_TRUE(decode_event_batch(full).ok());
}

// Structurally valid encodings carrying nonsense must decode to errors,
// never crash and never return success: the client trusts seq arithmetic
// on whatever decode_event_batch accepts.
TEST(WatchWireFuzz, AbsurdSeqValuesAreRejected) {
  // Zero-length payloads (an empty frame body) are errors for all three.
  Bytes empty;
  EXPECT_FALSE(decode_subscribe(empty).ok());
  EXPECT_FALSE(decode_unsubscribe(empty).ok());
  EXPECT_FALSE(decode_event_batch(empty).ok());

  // Subscription ids of 0 / missing client ids are meaningless.
  SubscribeMsg s;
  s.sub_id = 0;
  s.client_id = "c";
  EXPECT_FALSE(decode_subscribe(encode_subscribe(s)).ok());
  s.sub_id = 1;
  s.client_id = "";
  EXPECT_FALSE(decode_subscribe(encode_subscribe(s)).ok());
  UnsubscribeMsg u;
  u.sub_id = 0;
  u.client_id = "c";
  EXPECT_FALSE(decode_unsubscribe(encode_unsubscribe(u)).ok());

  // A batch running backwards: last_seq < prev_seq.
  EventBatchMsg back;
  back.prev_seq = 1000;
  back.last_seq = 5;
  EXPECT_FALSE(decode_event_batch(encode_event_batch(back)).ok());

  // Maximal seqs are fine as long as the range is coherent...
  EventBatchMsg huge;
  huge.prev_seq = UINT64_MAX - 1;
  huge.last_seq = UINT64_MAX;
  huge.events = {fuzz_event(UINT64_MAX, "enc/x")};
  EXPECT_TRUE(decode_event_batch(encode_event_batch(huge)).ok());

  // ...but an event seq outside (prev_seq, last_seq] is not.
  EventBatchMsg outside;
  outside.prev_seq = 10;
  outside.last_seq = 20;
  outside.events = {fuzz_event(21, "enc/x")};
  EXPECT_FALSE(decode_event_batch(encode_event_batch(outside)).ok());
  outside.events = {fuzz_event(10, "enc/x")};
  EXPECT_FALSE(decode_event_batch(encode_event_batch(outside)).ok());

  // Non-increasing seqs within a batch.
  EventBatchMsg dup;
  dup.prev_seq = 10;
  dup.last_seq = 20;
  dup.events = {fuzz_event(12, "enc/x"), fuzz_event(12, "enc/y")};
  EXPECT_FALSE(decode_event_batch(encode_event_batch(dup)).ok());

  // A snapshot claiming a prev_seq, or carrying events at another seq.
  EventBatchMsg snap;
  snap.snapshot = true;
  snap.prev_seq = 3;
  snap.last_seq = 9;
  snap.events = {fuzz_event(9, "enc/x")};
  EXPECT_FALSE(decode_event_batch(encode_event_batch(snap)).ok());
  snap.prev_seq = 0;
  snap.events = {fuzz_event(8, "enc/x")};
  EXPECT_FALSE(decode_event_batch(encode_event_batch(snap)).ok());
  snap.events = {fuzz_event(9, "enc/x")};
  EXPECT_TRUE(decode_event_batch(encode_event_batch(snap)).ok());
}

// The frame parser accepts the three new kinds and still rejects the
// out-of-range ones just past them.
TEST(WatchWireFuzz, FrameKindsCoverSubscriptionFrames) {
  for (uint8_t k = 10; k <= 12; k++) {
    Bytes f = encode_frame(static_cast<MsgKind>(k), 42, to_bytes("body"));
    auto r = decode_frame(f);
    ASSERT_TRUE(r.ok()) << "kind " << int(k);
    EXPECT_EQ(static_cast<uint8_t>(r.value().kind), k);
    EXPECT_EQ(r.value().token, 42u);
  }
  Bytes bad = encode_frame(static_cast<MsgKind>(13), 42, {});
  EXPECT_FALSE(decode_frame(bad).ok());
}

// A subscribed server bombarded with garbage subscription frames keeps
// pushing to its real subscriber.
TEST(AdversarialListener, DiscoveryServerSurvivesGarbageSubscriptions) {
  auto net = MemNetwork::create();
  auto state = std::make_shared<DiscoveryState>();
  DiscoveryServer::Options so;
  so.coalesce_window = ms(2);
  DiscoveryServer server(net->bind(Addr::mem("disc", 1)).value(), state, so);
  RemoteDiscovery client(net->bind(Addr::mem("cli", 0)).value(),
                         server.addr());
  auto w = client.watch("enc").value();

  auto attacker = net->bind(Addr::mem("attacker", 0)).value();
  Rng rng(7);
  for (int i = 0; i < 200; i++) {
    MsgKind kind = static_cast<MsgKind>(10 + rng.next_below(3));
    Bytes frame = encode_frame(kind, rng.next_u64(), random_bytes(rng, 96));
    ASSERT_TRUE(attacker->send_to(server.addr(), frame).ok());
  }

  ImplInfo info;
  info.type = "enc";
  info.name = "enc/real";
  ASSERT_TRUE(state->register_impl(info).ok());
  auto ev = w->next(Deadline::after(seconds(5)));
  ASSERT_TRUE(ev.ok()) << ev.error().to_string();
  EXPECT_EQ(ev.value().name, "enc/real");
}

// --- control-plane recovery frames (snapshot / view-change /
// membership, src/control/control_wire.hpp) ---
//
// A catching-up replica installs whatever decode_snapshot_rsp accepts
// wholesale; a truncated or garbled frame must be a clean decode error,
// never a crash and never a partial structure.

CtrlSnapshotRsp fuzz_snapshot_rsp() {
  CtrlSnapshotRsp rsp;
  rsp.from = "p0-r1";
  rsp.view = 3;
  rsp.next_seq = 4242;
  ImplInfo info;
  info.type = "enc";
  info.name = "enc/aes";
  info.resources = {{"pool.a", 1}};
  info.props = {{"k", "v"}};
  rsp.state.impls = {info};
  rsp.state.pools = {{"pool.a", 8, 2}};
  rsp.state.allocs = {{77, {{"pool.a", 2}}}};
  rsp.state.next_alloc = 78;
  DiscoverySnapshot::LeaseEntry lease;
  lease.owner = "client-7";
  lease.ttl_ns = 1000000;
  lease.expires_ns = 2000000;
  lease.impls = {{"enc", "enc/aes"}};
  lease.allocs = {77};
  rsp.state.leases = {lease};
  rsp.state.watch_seq = 12;
  rsp.dedup = {{"client-7#5", to_bytes("cached-response")}};
  rsp.applied = {"p0-r0#3", "p0-r1#9"};
  rsp.event_log.events = {fuzz_event(11, "enc/a"), fuzz_event(12, "enc/b")};
  rsp.event_log.pruned_through = 10;
  rsp.event_log.observed_through = 12;
  // A catch-up taken mid-migration carries the in-flight range state.
  ReshardRangeState rr;
  rr.range = 2;
  rr.modulo = 4;
  rr.epoch = 5;
  rr.role = 1;
  rr.phase = 3;
  rr.dst_rpc = {"mem://ctrl-p2-r0:1"};
  rr.migrated_allocs = {77};
  rr.payload = to_bytes("frozen-cut");
  rsp.reshard = {rr};
  return rsp;
}

TEST(CtrlFrameFuzz, SnapshotFramePrefixesAllFail) {
  CtrlSnapshotReq req;
  req.from = "p0-r2";
  req.reply_uri = "mem://ctrl-p0-r2:2";
  Bytes full = encode_snapshot_req(req);
  ASSERT_EQ(peek_ctrl_frame(full).value(), CtrlFrameKind::snapshot_req);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_snapshot_req(BytesView(full.data(), n)).ok()) << n;
  auto rt = decode_snapshot_req(full);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value().reply_uri, req.reply_uri);

  Bytes rsp_full = encode_snapshot_rsp(fuzz_snapshot_rsp());
  ASSERT_EQ(peek_ctrl_frame(rsp_full).value(), CtrlFrameKind::snapshot_rsp);
  for (size_t n = 0; n < rsp_full.size(); n++)
    EXPECT_FALSE(decode_snapshot_rsp(BytesView(rsp_full.data(), n)).ok()) << n;
  auto rsp = decode_snapshot_rsp(rsp_full);
  ASSERT_TRUE(rsp.ok());
  EXPECT_EQ(rsp.value().next_seq, 4242u);
  EXPECT_EQ(rsp.value().state.leases.size(), 1u);
  EXPECT_EQ(rsp.value().event_log.events.size(), 2u);
  EXPECT_EQ(rsp.value().applied.size(), 2u);
  ASSERT_EQ(rsp.value().reshard.size(), 1u);
  EXPECT_EQ(rsp.value().reshard[0].range, 2u);
  EXPECT_EQ(rsp.value().reshard[0].phase, 3u);
  EXPECT_EQ(rsp.value().reshard[0].migrated_allocs,
            (std::vector<uint64_t>{77}));
}

TEST(CtrlFrameFuzz, ViewChangeAndMembershipPrefixesAllFail) {
  CtrlViewChangeMsg vc;
  vc.view = 2;
  vc.from = "p1-r0";
  vc.last_contig = 999;
  Bytes full = encode_view_change(vc);
  ASSERT_EQ(peek_ctrl_frame(full).value(), CtrlFrameKind::view_change);
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_view_change(BytesView(full.data(), n)).ok()) << n;
  auto vt = decode_view_change(full);
  ASSERT_TRUE(vt.ok());
  EXPECT_EQ(vt.value().last_contig, 999u);

  ClusterMembership m;
  m.epoch = 7;
  m.partitions = {{Addr::mem("a", 1), Addr::mem("b", 1)}, {Addr::mem("c", 1)}};
  // Post-reshard shape: steering modulo wider than the partition count,
  // home table aliasing buckets back onto live partitions.
  m.modulo = 4;
  m.home = {0, 1, 0, 1};
  Bytes mf = encode_membership(m);
  ASSERT_EQ(peek_ctrl_frame(mf).value(), CtrlFrameKind::membership);
  for (size_t n = 0; n < mf.size(); n++)
    EXPECT_FALSE(decode_membership(BytesView(mf.data(), n)).ok()) << n;
  auto mt = decode_membership(mf);
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(mt.value().epoch, 7u);
  ASSERT_EQ(mt.value().partitions.size(), 2u);
  EXPECT_EQ(mt.value().partitions[0].size(), 2u);
  EXPECT_EQ(mt.value().modulo, 4u);
  EXPECT_EQ(mt.value().home, (std::vector<uint32_t>{0, 1, 0, 1}));
}

// --- resharding frames (fence/install/cutover/retire ops, acks and
// the fenced-payload snapshot pair) ---

ReshardPayload fuzz_reshard_payload() {
  ReshardPayload p;
  ImplInfo info;
  info.type = "enc";
  info.name = "enc/aes";
  info.resources = {{"pool.a", 1}};
  p.state.impls = {info};
  p.state.pools = {{"pool.a", 8, 2}};
  p.state.allocs = {{(uint64_t{2} << DiscoveryState::kAllocNamespaceShift) | 3,
                     {{"pool.a", 2}}}};
  p.state.next_alloc = 4;
  p.state.watch_seq = 17;
  p.dedup = {{"client-7#5", to_bytes("cached")}};
  p.applied = {"p0-r0#3"};
  p.event_log.events = {fuzz_event(16, "enc/a"), fuzz_event(17, "enc/aes")};
  p.event_log.pruned_through = 15;
  p.event_log.observed_through = 17;
  return p;
}

ReshardOp fuzz_reshard_op(ReshardPhase phase) {
  ReshardOp op;
  op.phase = phase;
  op.epoch = 3;
  op.modulo = 4;
  op.range = 2;
  op.from_partition = 0;
  op.to_partition = 2;
  op.dst_rpc = {"mem://ctrl-p2-r0:1", "mem://ctrl-p2-r1:1"};
  op.reply_uri = "mem://ctrl-reshard-coord:0";
  op.cmd_id = 9;
  if (phase == ReshardPhase::install)
    op.payload = encode_reshard_payload(fuzz_reshard_payload());
  return op;
}

TEST(ReshardFrameFuzz, OpAndPayloadPrefixesAllFail) {
  for (ReshardPhase ph : {ReshardPhase::fence, ReshardPhase::install,
                          ReshardPhase::cutover, ReshardPhase::retire}) {
    Bytes full = encode_reshard_op(fuzz_reshard_op(ph));
    for (size_t n = 0; n < full.size(); n++)
      EXPECT_FALSE(decode_reshard_op(BytesView(full.data(), n)).ok())
          << "phase " << int(ph) << " prefix " << n;
    auto rt = decode_reshard_op(full);
    ASSERT_TRUE(rt.ok()) << int(ph);
    EXPECT_EQ(rt.value().phase, ph);
    EXPECT_EQ(rt.value().range, 2u);
    EXPECT_EQ(rt.value().dst_rpc.size(), 2u);
  }

  Bytes pf = encode_reshard_payload(fuzz_reshard_payload());
  for (size_t n = 0; n < pf.size(); n++)
    EXPECT_FALSE(decode_reshard_payload(BytesView(pf.data(), n)).ok()) << n;
  auto pt = decode_reshard_payload(pf);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value().state.impls.size(), 1u);
  EXPECT_EQ(pt.value().dedup.size(), 1u);
  EXPECT_EQ(pt.value().event_log.events.size(), 2u);
}

TEST(ReshardFrameFuzz, AckAndSnapshotFramePrefixesAllFail) {
  ReshardAck ack;
  ack.cmd_id = 42;
  ack.from = "p0-r1";
  Bytes af = encode_reshard_ack(ack);
  ASSERT_EQ(peek_ctrl_frame(af).value(), CtrlFrameKind::reshard_ack);
  for (size_t n = 0; n < af.size(); n++)
    EXPECT_FALSE(decode_reshard_ack(BytesView(af.data(), n)).ok()) << n;
  auto at = decode_reshard_ack(af);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at.value().cmd_id, 42u);
  EXPECT_EQ(at.value().from, "p0-r1");

  ReshardSnapshotReq req;
  req.modulo = 4;
  req.range = 2;
  req.reply_uri = "mem://coord:0";
  Bytes rf = encode_reshard_snapshot_req(req);
  ASSERT_EQ(peek_ctrl_frame(rf).value(), CtrlFrameKind::reshard_snapshot_req);
  for (size_t n = 0; n < rf.size(); n++)
    EXPECT_FALSE(decode_reshard_snapshot_req(BytesView(rf.data(), n)).ok())
        << n;
  EXPECT_TRUE(decode_reshard_snapshot_req(rf).ok());

  ReshardSnapshotRsp rsp;
  rsp.range = 2;
  rsp.from = "p0-r0";
  rsp.payload = encode_reshard_payload(fuzz_reshard_payload());
  Bytes sf = encode_reshard_snapshot_rsp(rsp);
  ASSERT_EQ(peek_ctrl_frame(sf).value(), CtrlFrameKind::reshard_snapshot_rsp);
  for (size_t n = 0; n < sf.size(); n++)
    EXPECT_FALSE(decode_reshard_snapshot_rsp(BytesView(sf.data(), n)).ok())
        << n;
  auto st = decode_reshard_snapshot_rsp(sf);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(decode_reshard_payload(st.value().payload).ok());
}

// Bit flips across an install op (the frame whose payload gets applied
// wholesale at a sequenced point): whatever decode admits must survive
// the apply path — payload decode, range extraction, ingestion into a
// live state — without crashing. A flip may deny a migration step
// (clean decode error, coordinator retries), never corrupt the apply.
class ReshardBitflipFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReshardBitflipFuzz, InstallOpBitflipsNeverCrashTheApplyPath) {
  Rng rng(GetParam());
  Bytes good = encode_reshard_op(fuzz_reshard_op(ReshardPhase::install));
  for (int iter = 0; iter < 400; iter++) {
    Bytes bad = good;
    size_t byte = rng.next_below(bad.size());
    bad[byte] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    auto op = decode_reshard_op(bad);
    if (!op.ok()) continue;
    auto pay = decode_reshard_payload(op.value().payload);
    if (!pay.ok()) continue;  // clean reject: the install is refused
    DiscoveryState state;
    state.ingest_snapshot(pay.value().state, /*emit_events=*/true);
    (void)state.extract_range(op.value().modulo ? op.value().modulo : 1,
                              op.value().range);
    (void)state.export_snapshot();
  }
  // A truncated-then-patched payload length can never smuggle a partial
  // structure: the whole-frame decode round-trips exactly.
  auto rt = decode_reshard_op(good);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(encode_reshard_op(rt.value()), good);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReshardBitflipFuzz,
                         ::testing::Values(17, 170, 1700));

// Bit flips across the snapshot response: either a clean decode error
// or a structurally complete decode — never a crash, and never success
// on a mangled kind byte.
class CtrlBitflipFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CtrlBitflipFuzz, SnapshotRspBitflipsNeverCrash) {
  Rng rng(GetParam());
  Bytes good = encode_snapshot_rsp(fuzz_snapshot_rsp());
  for (int iter = 0; iter < 400; iter++) {
    Bytes bad = good;
    size_t byte = rng.next_below(bad.size());
    bad[byte] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    (void)decode_snapshot_rsp(bad);
    (void)peek_ctrl_frame(bad);
    // The member-loop demux path: a mangled frame must fall out of all
    // three parsers without crashing.
    (void)parse_sequenced_mcast(bad);
    (void)parse_mcast_fetch_miss(bad);
  }
  // A wrong kind byte can never decode as a snapshot.
  Bytes wrong_kind = good;
  wrong_kind[2] = static_cast<uint8_t>(CtrlFrameKind::view_change);
  EXPECT_FALSE(decode_snapshot_rsp(wrong_kind).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtrlBitflipFuzz,
                         ::testing::Values(101, 202, 303));

// Bit flips in a KV request must be caught by the shard-field integrity
// check or the structural checks whenever they alter semantics.
class BitflipFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitflipFuzz, KvRequestBitflipsNeverCrash) {
  Rng rng(GetParam());
  KvRequest req;
  req.op = KvOp::get;
  req.id = 7;
  req.key = "user000000000001";
  Bytes good = encode_kv_request(req);
  for (int iter = 0; iter < 300; iter++) {
    Bytes bad = good;
    size_t byte = rng.next_below(bad.size());
    bad[byte] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    auto r = decode_kv_request(bad);
    if (r.ok()) {
      // A flip that decodes must not have silently changed the key
      // while keeping the shard field consistent.
      EXPECT_EQ(r.value().key, req.key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitflipFuzz, ::testing::Values(11, 22, 33));

// A representative synthesized program: match + parse + dedup + strip
// ahead of a hash steer over a multi-entry table — every encoder branch
// (tables, varint args, initial_seq, fingerprint) is exercised.
ProgramIR fuzz_program_ir() {
  ProgramIR ir;
  ir.slot = SlotKind::match_action;
  ir.vip = "sim://fuzz-vip:80";
  ir.table = {"sim://b:1", "sim://b:2", "sim://b:3"};
  ir.instrs = {{IrOp::match_magic, 'S', '1'},
               {IrOp::skip_varint_body, 0, 0},
               {IrOp::hash_steer, 2, 8}};
  ir.source_fingerprint = 0x1234abcdULL;
  return ir;
}

TEST(TruncationFuzz, SynthProgramPrefixes) {
  Bytes full = encode_program(fuzz_program_ir());
  for (size_t n = 0; n < full.size(); n++)
    EXPECT_FALSE(decode_program(BytesView(full.data(), n)).ok()) << n;
  EXPECT_TRUE(decode_program(BytesView(full)).ok());
}

// Bit flips in a program frame: the decoder either rejects cleanly or
// yields a program that still passes structural validation and compiles
// to something that can only forward to an address that was in some
// table — a corrupt frame can deny an offload, never mis-program the
// switch. Exercises the deploy path (control plane ships programs in
// encoded form, DESIGN.md §11).
class ProgramBitflipFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramBitflipFuzz, ProgramBitflipsNeverCrashOrMisprogram) {
  Rng rng(GetParam());
  Bytes good = encode_program(fuzz_program_ir());
  Bytes sample = random_bytes(rng, 64);
  for (int iter = 0; iter < 400; iter++) {
    Bytes bad = good;
    size_t byte = rng.next_below(bad.size());
    bad[byte] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    auto r = decode_program(bad);
    if (!r.ok()) continue;
    // decode re-validates internally: anything it admits must be a
    // structurally sound program...
    ASSERT_TRUE(validate_program(r.value()).ok())
        << "decode admitted an invalid program: " << to_string(r.value());
    // ...and installable ones must execute without crashing (a flipped
    // table address may still fail compilation — that is a clean
    // install-time error, not a hazard).
    auto prog = CompiledProgram::compile(r.value());
    if (!prog.ok()) continue;
    auto act = prog.value()->action();
    (void)act(BytesView(sample));
    (void)act(BytesView(good));  // magic-shaped input through the parser
    (void)act(BytesView());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramBitflipFuzz,
                         ::testing::Values(7, 77, 777));

// A live listener bombarded with garbage keeps accepting and serving.
TEST(AdversarialListener, SurvivesGarbageAndKeepsServing) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto listener = srv_rt->endpoint("victim", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 700))
                      .value();

  auto attacker = world.mem->bind(Addr::mem("attacker", 0)).value();
  Rng rng(99);
  for (int i = 0; i < 300; i++) {
    Bytes junk = random_bytes(rng, 128);
    ASSERT_TRUE(attacker->send_to(listener->addr(), junk).ok());
  }
  // Valid-magic frames with bogus kinds/tokens/payloads.
  for (int i = 0; i < 100; i++) {
    Bytes frame = encode_frame(static_cast<MsgKind>(1 + rng.next_below(5)),
                               rng.next_u64(), random_bytes(rng, 64));
    ASSERT_TRUE(attacker->send_to(listener->addr(), frame).ok());
  }

  // Still serves real clients.
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)));
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn.value()->send(Msg::of("still alive")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "still alive");
}

// Data frames with unknown tokens (stale/forged) are dropped without
// disturbing an established connection.
TEST(AdversarialListener, ForgedTokensIgnored) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto listener = srv_rt->endpoint("victim", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 701))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();

  auto attacker = world.mem->bind(Addr::mem("attacker", 0)).value();
  for (uint64_t forged = 100; forged < 150; forged++) {
    Bytes frame = encode_frame(MsgKind::data, forged, to_bytes("evil"));
    ASSERT_TRUE(attacker->send_to(listener->addr(), frame).ok());
  }
  // A forged close for a token that doesn't exist is also harmless.
  ASSERT_TRUE(attacker
                  ->send_to(listener->addr(),
                            encode_frame(MsgKind::close, 9999, {}))
                  .ok());

  ASSERT_TRUE(conn->send(Msg::of("legit")).ok());
  auto got = srv_conn->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().payload_str(), "legit");
  // No forged payload leaked into the stream.
  EXPECT_FALSE(srv_conn->recv(Deadline::after(ms(100))).ok());
}

// Double close from either side, in any order, is safe.
TEST(CloseSemantics, DoubleAndCrossedClosesAreIdempotent) {
  auto world = TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 702))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  conn->close();
  conn->close();
  srv_conn->close();
  srv_conn->close();
  listener->close();
  listener->close();
  EXPECT_FALSE(conn->send(Msg::of("x")).ok());
}

// Closing the listener while a client is mid-connect doesn't hang the
// client: it times out or fails cleanly.
TEST(CloseSemantics, ListenerCloseDuringConnect) {
  auto world = TestWorld::make();
  RuntimeConfig cfg;
  cfg.host_id = "h2";
  cfg.transports =
      std::make_shared<DefaultTransportFactory>(world.mem, world.sim, "h2");
  cfg.discovery = world.discovery;
  cfg.handshake_timeout = ms(100);
  cfg.handshake_retries = 2;
  auto cli_rt = Runtime::create(std::move(cfg)).value();

  auto srv_rt = world.runtime("h1");
  auto listener = srv_rt->endpoint("srv", ChunnelDag::empty())
                      .value()
                      .listen(Addr::mem("h1", 703))
                      .value();
  Addr addr = listener->addr();
  listener->close();  // gone before the client dials

  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(addr, Deadline::after(seconds(5)));
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, Errc::connection_failed);
}

}  // namespace
}  // namespace bertha
