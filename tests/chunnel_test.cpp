// Tests for the data-path chunnels: reliable (loss recovery, ordering,
// window), ordering (gap skip), serialize (both wire formats + object
// layer), compress, batch, encrypt, framing, and composed stacks.
#include <gtest/gtest.h>

#include <thread>

#include "chunnels/batch.hpp"
#include "chunnels/compress.hpp"
#include "chunnels/dedup.hpp"
#include "chunnels/encrypt.hpp"
#include "chunnels/framing.hpp"
#include "chunnels/keepalive.hpp"
#include "chunnels/ordering.hpp"
#include "chunnels/reliable.hpp"
#include "chunnels/serialize_chunnel.hpp"
#include "chunnels/telemetry.hpp"
#include "serialize/text_codec.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"
#include "util/rand.hpp"

namespace bertha {

namespace {

// Minimal base connection over a transport with a fixed peer.
class FixedPeerConnection final : public Connection {
 public:
  FixedPeerConnection(TransportPtr t, Addr peer)
      : t_(std::move(t)), peer_(std::move(peer)), local_(t_->local_addr()) {}
  Result<void> send(Msg m) override { return t_->send_to(peer_, m.payload); }
  Result<Msg> recv(Deadline d) override {
    BERTHA_TRY_ASSIGN(pkt, t_->recv(d));
    Msg m;
    m.src = std::move(pkt.src);
    m.dst = local_;
    m.payload = std::move(pkt.payload);
    return m;
  }
  const Addr& local_addr() const override { return local_; }
  const Addr& peer_addr() const override { return peer_; }
  void close() override { t_->close(); }

 private:
  TransportPtr t_;
  Addr peer_;
  Addr local_;
};

// A pair of connections wired through a MemNetwork with optional loss,
// each wrapped by the same chunnel impl (client/server roles).
struct WrappedPair {
  std::shared_ptr<MemNetwork> net;
  ConnPtr a;  // client side
  ConnPtr b;  // server side
};

WrappedPair make_pair_with(ChunnelImpl& impl, double loss = 0.0,
                           uint64_t seed = 1, ChunnelArgs args = ChunnelArgs()) {
  MemNetwork::Config cfg;
  cfg.drop_rate = loss;
  cfg.seed = seed;
  WrappedPair p;
  p.net = MemNetwork::create(cfg);
  auto ta = p.net->bind(Addr::mem("a", 1)).value();
  auto tb = p.net->bind(Addr::mem("b", 1)).value();
  Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
  ConnPtr base_a = std::make_shared<FixedPeerConnection>(std::move(ta), addr_b);
  ConnPtr base_b = std::make_shared<FixedPeerConnection>(std::move(tb), addr_a);
  WrapContext ctx_a;
  ctx_a.role = Role::client;
  ctx_a.args = args;
  WrapContext ctx_b = ctx_a;
  ctx_b.role = Role::server;
  p.a = impl.wrap(base_a, ctx_a).value();
  p.b = impl.wrap(base_b, ctx_b).value();
  return p;
}

// --- reliable ---

TEST(ReliableTest, DeliversInOrderWithoutLoss) {
  ReliableChunnel impl;
  auto p = make_pair_with(impl);
  for (int i = 0; i < 50; i++)
    ASSERT_TRUE(p.a->send(Msg::of("m" + std::to_string(i))).ok());
  for (int i = 0; i < 50; i++) {
    auto m = p.b->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().payload_str(), "m" + std::to_string(i));
  }
  p.a->close();
  p.b->close();
}

class ReliableLossProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReliableLossProperty, RecoversAllMessagesUnderLoss) {
  ReliableOptions opts;
  opts.rto = ms(10);
  ReliableChunnel impl(opts);
  auto p = make_pair_with(impl, /*loss=*/0.25, /*seed=*/GetParam());
  constexpr int kN = 40;
  std::thread sender([&] {
    for (int i = 0; i < kN; i++)
      ASSERT_TRUE(p.a->send(Msg::of("x" + std::to_string(i))).ok());
  });
  for (int i = 0; i < kN; i++) {
    auto m = p.b->recv(Deadline::after(seconds(30)));
    ASSERT_TRUE(m.ok()) << "at " << i << ": " << m.error().to_string();
    EXPECT_EQ(m.value().payload_str(), "x" + std::to_string(i));
  }
  sender.join();
  p.a->close();
  p.b->close();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableLossProperty,
                         ::testing::Values(1, 7, 42, 99, 12345));

TEST(ReliableTest, Bidirectional) {
  ReliableChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("ping")).ok());
  ASSERT_TRUE(p.b->recv(Deadline::after(seconds(5))).ok());
  ASSERT_TRUE(p.b->send(Msg::of("pong")).ok());
  auto m = p.a->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "pong");
  p.a->close();
  p.b->close();
}

TEST(ReliableTest, CloseUnblocksReceiver) {
  ReliableChunnel impl;
  auto p = make_pair_with(impl);
  std::thread closer([&] {
    sleep_for(ms(30));
    p.b->close();
  });
  auto r = p.b->recv();
  closer.join();
  EXPECT_FALSE(r.ok());
  p.a->close();
}

TEST(ReliableTest, WindowStallsAgainstDeadPeer) {
  ReliableOptions opts;
  opts.rto = ms(5);
  opts.send_timeout = ms(100);
  ReliableChunnel impl(opts);
  ChunnelArgs args;
  args.set("window", "1");
  auto p = make_pair_with(impl, /*loss=*/1.0, /*seed=*/3, args);
  ASSERT_TRUE(p.a->send(Msg::of("first")).ok());
  Stopwatch sw;
  auto second = p.a->send(Msg::of("second"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, Errc::timed_out);
  EXPECT_GE(sw.elapsed(), ms(90));
  p.a->close();
  p.b->close();
}

TEST(ReliableTest, NopVariantPassesThrough) {
  NopReliableChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("raw")).ok());
  EXPECT_EQ(p.b->recv(Deadline::after(seconds(5))).value().payload_str(),
            "raw");
  p.a->close();
  p.b->close();
}

// --- ordering ---

TEST(OrderingTest, PreservesOrderOnCleanLink) {
  OrderingChunnel impl;
  auto p = make_pair_with(impl);
  for (int i = 0; i < 10; i++)
    ASSERT_TRUE(p.a->send(Msg::of(std::to_string(i))).ok());
  for (int i = 0; i < 10; i++) {
    auto m = p.b->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().payload_str(), std::to_string(i));
  }
  p.a->close();
  p.b->close();
}

TEST(OrderingTest, SkipsGapsUnderLossWithoutStalling) {
  // 60% loss, no retransmission: ordering must deliver the survivors in
  // increasing order (gaps skipped after the timeout) and never stall.
  OrderingChunnel impl;
  ChunnelArgs args;
  args.set("gap_timeout_us", "30000");
  auto p = make_pair_with(impl, 0.6, 77, args);
  for (int i = 0; i < 100; i++)
    ASSERT_TRUE(p.a->send(Msg::of(std::to_string(i))).ok());
  int delivered = 0, last = -1;
  for (;;) {
    auto m = p.b->recv(Deadline::after(ms(300)));
    if (!m.ok()) break;
    int v = std::stoi(m.value().payload_str());
    EXPECT_GT(v, last);
    last = v;
    delivered++;
  }
  EXPECT_GT(delivered, 10);
  EXPECT_LT(delivered, 100);
  p.a->close();
  p.b->close();
}

// --- serialize ---

struct Point {
  int64_t x = 0;
  int64_t y = 0;
  std::string label;
  bool operator==(const Point& o) const {
    return x == o.x && y == o.y && label == o.label;
  }
};

}  // namespace

// Serde must live in namespace bertha (primary template lives there).
template <>
struct Serde<::bertha::Point> {
  static void put(Writer& w, const Point& p) {
    w.put_svarint(p.x);
    w.put_svarint(p.y);
    w.put_string(p.label);
  }
  static Result<Point> get(Reader& r) {
    Point p;
    BERTHA_TRY_ASSIGN(x, r.get_svarint());
    BERTHA_TRY_ASSIGN(y, r.get_svarint());
    BERTHA_TRY_ASSIGN(label, r.get_string());
    p.x = x;
    p.y = y;
    p.label = std::move(label);
    return p;
  }
};

namespace {

TEST(SerializeChunnelTest, ObjectsOverBothWireFormats) {
  for (int text : {0, 1}) {
    std::unique_ptr<ChunnelImpl> impl;
    if (text)
      impl = std::make_unique<TextSerializeChunnel>();
    else
      impl = std::make_unique<BinarySerializeChunnel>();
    auto p = make_pair_with(*impl);
    ObjectConnection<Point> sender(p.a);
    ObjectConnection<Point> receiver(p.b);
    Point pt{-5, 99, "hello"};
    ASSERT_TRUE(sender.send(pt).ok());
    auto got = receiver.recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got.value(), pt);
    p.a->close();
    p.b->close();
  }
}

TEST(SerializeChunnelTest, TextWireIsLargerThanBinary) {
  Point pt{1, 2, "abcdef"};
  Bytes binary = serialize_to_bytes(pt);
  EXPECT_GT(text_encode(binary).size(), 2 * binary.size());
}

TEST(SerializeChunnelTest, RecvFromReportsSource) {
  BinarySerializeChunnel impl;
  auto p = make_pair_with(impl);
  ObjectConnection<Point> tx(p.a), rx(p.b);
  ASSERT_TRUE(tx.send(Point{1, 2, "s"}).ok());
  auto got = rx.recv_from(Deadline::after(seconds(5)));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().second, p.a->local_addr());
  p.a->close();
  p.b->close();
}

// --- compress ---

TEST(CompressTest, RleRoundTripAndShrinksRuns) {
  Bytes runs(1000, 'a');
  Bytes enc = rle_encode(runs);
  EXPECT_LT(enc.size(), 10u);
  auto dec = rle_decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), runs);
}

class RleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RleProperty, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; iter++) {
    Bytes data(rng.next_below(300), 0);
    for (auto& b : data) b = static_cast<uint8_t>(rng.next_below(4));
    auto dec = rle_decode(rle_encode(data));
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.value(), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleProperty, ::testing::Values(5, 55, 555));

TEST(CompressTest, RejectsBadRuns) {
  Bytes zero_run{'a', 0x00};
  EXPECT_FALSE(rle_decode(zero_run).ok());
}

TEST(CompressTest, EndToEnd) {
  CompressChunnel impl;
  auto p = make_pair_with(impl);
  std::string payload(500, 'z');
  ASSERT_TRUE(p.a->send(Msg::of(payload)).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), payload);
  p.a->close();
  p.b->close();
}

// --- encrypt ---

TEST(EncryptTest, XorIsInvolution) {
  Bytes data = to_bytes("attack at dawn");
  Bytes original = data;
  xor_keystream(data, 123);
  EXPECT_NE(data, original);
  xor_keystream(data, 123);
  EXPECT_EQ(data, original);
}

TEST(EncryptTest, DifferentKeysDiffer) {
  Bytes a = to_bytes("samesame"), b = a;
  xor_keystream(a, 1);
  xor_keystream(b, 2);
  EXPECT_NE(a, b);
}

// The byte-at-a-time loop xor_keystream was first written as: the
// oracle the word-at-a-time kernel must match byte for byte, since
// peers built from either must interoperate.
void reference_keystream(Bytes& data, uint64_t key) {
  uint64_t counter = 0;
  size_t i = 0;
  while (i < data.size()) {
    uint64_t ks = mix64(key ^ counter++);
    for (int b = 0; b < 8 && i < data.size(); b++, i++)
      data[i] ^= static_cast<uint8_t>(ks >> (8 * b));
  }
}

TEST(EncryptTest, MatchesByteAtATimeReference) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; n++) lengths.push_back(n);
  for (size_t n = 16384; n <= 16387; n++) lengths.push_back(n);
  Rng rng(11);
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{0x5eed}, ~uint64_t{0}}) {
    for (size_t n : lengths) {
      Bytes want(n);
      for (auto& b : want) b = static_cast<uint8_t>(rng.next_u64());
      Bytes got = want;
      reference_keystream(want, key);
      xor_keystream(got, key);
      ASSERT_EQ(got, want) << "key " << key << ", length " << n;
    }
  }
}

TEST(EncryptTest, KnownAnswer) {
  // Two full blocks and a 5-byte tail, pinned to the bytes the
  // byte-at-a-time kernel produced.
  Bytes data(21);
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<uint8_t>(i);
  xor_keystream(data, 0x5eed);
  EXPECT_EQ(hex_dump(data), "b4 a8 f2 00 99 f8 f7 0e e4 47 6d 02 be 9d 31 b1 db e0 1b e4 d8");
  // A 16 KiB payload plus a 3-byte tail, pinned by its FNV-1a digest.
  Bytes zeros(16387, 0);
  xor_keystream(zeros, ~uint64_t{0});
  EXPECT_EQ(fnv1a64(zeros), 0x9fb2d8a73c97940eULL);
}

TEST(EncryptTest, EndToEndWithSharedKey) {
  SwEncryptChunnel impl;
  ChunnelArgs args;
  args.set_u64("key", 777);
  auto p = make_pair_with(impl, 0.0, 1, args);
  ASSERT_TRUE(p.a->send(Msg::of("secret")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "secret");
  p.a->close();
  p.b->close();
}

TEST(EncryptTest, NicVariantChargesPcie) {
  auto discovery = std::make_shared<DiscoveryState>();
  SimNic::Config cfg;
  cfg.pcie_per_kib = us(0);  // don't sleep in tests
  cfg.pcie_setup = us(0);
  auto nic_r = SimNic::create(discovery, cfg);
  ASSERT_TRUE(nic_r.ok());
  std::shared_ptr<SimNic> nic(std::move(nic_r).value());
  NicEncryptChunnel impl(nic);
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("1234567890")).ok());
  ASSERT_TRUE(p.b->recv(Deadline::after(seconds(5))).ok());
  // 2 crossings on send + 2 on recv, 10 bytes each.
  EXPECT_EQ(nic->pcie_transfers(), 4u);
  EXPECT_EQ(nic->pcie_bytes_transferred(), 40u);
  p.a->close();
  p.b->close();
}

// --- framing / tls ---

TEST(FramingTest, EndToEnd) {
  FrameChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("framed")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "framed");
  p.a->close();
  p.b->close();
}

// Puts `bad` on the wire from an unframed sender, then a good frame,
// and expects the framed receiver to drop the first and deliver the
// second.
void expect_dropped_then_next_frame_arrives(const Bytes& bad) {
  FrameChunnel impl;
  auto net = MemNetwork::create();
  auto ta = net->bind(Addr::mem("a", 1)).value();
  auto tb = net->bind(Addr::mem("b", 1)).value();
  Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
  ConnPtr raw = std::make_shared<FixedPeerConnection>(std::move(ta), addr_b);
  WrapContext ctx;
  ctx.role = Role::server;
  ConnPtr framed =
      impl.wrap(std::make_shared<FixedPeerConnection>(std::move(tb), addr_a), ctx)
          .value();
  ASSERT_TRUE(raw->send(Msg(bad)).ok());
  // Stream id 1, flags 0, length 4, body.
  ASSERT_TRUE(raw->send(Msg(Bytes{1, 0, 0, 0, 4, 'g', 'o', 'o', 'd'})).ok());
  auto m = framed->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok()) << m.error().to_string();
  EXPECT_EQ(m.value().payload_str(), "good");
  raw->close();
  framed->close();
}

TEST(FramingTest, DropsDatagramShorterThanHeader) {
  expect_dropped_then_next_frame_arrives({});
  expect_dropped_then_next_frame_arrives({1, 0, 0});
}

TEST(FramingTest, DropsTruncatedLengthVarint) {
  expect_dropped_then_next_frame_arrives({1, 0, 0, 0});
  expect_dropped_then_next_frame_arrives({1, 0, 0, 0, 0x80});
  expect_dropped_then_next_frame_arrives({1, 0, 0, 0, 0x83, 0x80});
}

TEST(FramingTest, DropsLengthOneShort) {
  expect_dropped_then_next_frame_arrives({1, 0, 0, 0, 2, 'b', 'a', 'd'});
}

TEST(FramingTest, DropsLengthOneLong) {
  expect_dropped_then_next_frame_arrives({1, 0, 0, 0, 4, 'b', 'a', 'd'});
}

TEST(FramingTest, EmptyBodyRoundTrips) {
  FrameChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg()).ok());
  ASSERT_TRUE(p.a->send(Msg::of("after")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m.value().payload.empty());
  m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "after");
  p.a->close();
  p.b->close();
}

TEST(TlsTest, SoftwareTlsEndToEnd) {
  TlsChunnel impl;  // sw variant
  EXPECT_EQ(impl.info().name, "tls/sw");
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("over-tls")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "over-tls");
  p.a->close();
  p.b->close();
}

// --- batch ---

TEST(BatchTest, CoalescesAndUnbatches) {
  BatchOptions opts;
  opts.max_batch = 4;
  opts.linger = seconds(10);  // only size-triggered flush
  BatchChunnel impl(opts);
  auto p = make_pair_with(impl);
  for (int i = 0; i < 4; i++)
    ASSERT_TRUE(p.a->send(Msg::of("b" + std::to_string(i))).ok());
  for (int i = 0; i < 4; i++) {
    auto m = p.b->recv(Deadline::after(seconds(5)));
    ASSERT_TRUE(m.ok()) << i;
    EXPECT_EQ(m.value().payload_str(), "b" + std::to_string(i));
  }
  p.a->close();
  p.b->close();
}

TEST(BatchTest, LingerFlushesPartialBatch) {
  BatchOptions opts;
  opts.max_batch = 100;
  opts.linger = ms(20);
  BatchChunnel impl(opts);
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("lonely")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "lonely");
  p.a->close();
  p.b->close();
}

// --- composed stack (serialize |> compress |> encrypt |> reliable) ---

TEST(StackCompositionTest, FourLayerStackRoundTripsUnderLoss) {
  BinarySerializeChunnel ser;
  CompressChunnel comp;
  SwEncryptChunnel enc;
  ReliableOptions ropts;
  ropts.rto = ms(10);
  ReliableChunnel rel(ropts);

  MemNetwork::Config cfg;
  cfg.drop_rate = 0.1;
  cfg.seed = 4;
  auto net = MemNetwork::create(cfg);
  auto ta = net->bind(Addr::mem("a", 1)).value();
  auto tb = net->bind(Addr::mem("b", 1)).value();
  Addr aa = ta->local_addr(), ab = tb->local_addr();
  ConnPtr ca = std::make_shared<FixedPeerConnection>(std::move(ta), ab);
  ConnPtr cb = std::make_shared<FixedPeerConnection>(std::move(tb), aa);

  auto build = [&](ConnPtr base, Role role) {
    WrapContext ctx;
    ctx.role = role;
    // innermost first: reliable, encrypt, compress, serialize
    base = rel.wrap(std::move(base), ctx).value();
    base = enc.wrap(std::move(base), ctx).value();
    base = comp.wrap(std::move(base), ctx).value();
    base = ser.wrap(std::move(base), ctx).value();
    return base;
  };
  ConnPtr a = build(ca, Role::client);
  ConnPtr b = build(cb, Role::server);

  ObjectConnection<Point> tx(a), rx(b);
  for (int i = 0; i < 10; i++) {
    Point pt{i, -i, std::string(50, 'q')};
    ASSERT_TRUE(tx.send(pt).ok());
    auto got = rx.recv(Deadline::after(seconds(30)));
    ASSERT_TRUE(got.ok()) << i << ": " << got.error().to_string();
    EXPECT_EQ(got.value(), pt);
  }
  a->close();
  b->close();
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {


// --- dedup ---

TEST(DedupTest, SuppressesReplayedDatagrams) {
  DedupChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("once")).ok());
  auto first = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().payload_str(), "once");

  // Replay the exact stamped datagram at the transport level.
  Bytes replay = dedup_stamp(1, to_bytes("once"));
  auto t = p.net->bind(Addr::mem("replayer", 0)).value();
  ASSERT_TRUE(t->send_to(Addr::mem("b", 1), replay).ok());
  EXPECT_FALSE(p.b->recv(Deadline::after(ms(150))).ok());

  // Fresh messages still flow.
  ASSERT_TRUE(p.a->send(Msg::of("twice")).ok());
  EXPECT_EQ(p.b->recv(Deadline::after(seconds(5))).value().payload_str(),
            "twice");
  p.a->close();
  p.b->close();
}

TEST(DedupTest, WindowEvictsOldIds) {
  DedupChunnel impl;
  ChunnelArgs args;
  args.set("window", "4");
  auto p = make_pair_with(impl, 0.0, 1, args);
  // Push enough messages through that id 1 leaves the window, then a
  // replay of id 1 is (incorrectly-but-by-design) delivered again:
  // dedup is bounded-memory, not exactly-once.
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(p.a->send(Msg::of("m")).ok());
    ASSERT_TRUE(p.b->recv(Deadline::after(seconds(5))).ok());
  }
  Bytes replay = dedup_stamp(1, to_bytes("m"));
  auto t = p.net->bind(Addr::mem("replayer", 0)).value();
  ASSERT_TRUE(t->send_to(Addr::mem("b", 1), replay).ok());
  EXPECT_TRUE(p.b->recv(Deadline::after(seconds(1))).ok());
  p.a->close();
  p.b->close();
}

TEST(DedupTest, BothDirectionsIndependent) {
  DedupChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("a->b")).ok());
  ASSERT_TRUE(p.b->send(Msg::of("b->a")).ok());
  // Both use id 1 for their first message; neither suppresses the other.
  EXPECT_EQ(p.b->recv(Deadline::after(seconds(5))).value().payload_str(),
            "a->b");
  EXPECT_EQ(p.a->recv(Deadline::after(seconds(5))).value().payload_str(),
            "b->a");
  p.a->close();
  p.b->close();
}

// --- telemetry ---

TEST(TelemetryTest, CountsTraffic) {
  TelemetryChunnel impl;
  ChunnelArgs args;
  args.set("label", "test-conn");
  auto p = make_pair_with(impl, 0.0, 1, args);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(p.a->send(Msg::of("12345")).ok());
    ASSERT_TRUE(p.b->recv(Deadline::after(seconds(5))).ok());
  }
  TelemetryCounters c = impl.snapshot("test-conn");
  // Both halves share the impl: a's sends + b's receives.
  EXPECT_EQ(c.msgs_sent, 3u);
  EXPECT_EQ(c.msgs_received, 3u);
  EXPECT_EQ(c.bytes_sent, 15u);
  EXPECT_EQ(c.bytes_received, 15u);
  EXPECT_EQ(c.send_errors, 0u);
  EXPECT_EQ(impl.snapshot("unknown").msgs_sent, 0u);
  impl.reset();
  EXPECT_EQ(impl.snapshot("test-conn").msgs_sent, 0u);
  p.a->close();
  p.b->close();
}

TEST(TelemetryTest, AddsNoWireBytes) {
  TelemetryChunnel impl;
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("payload")).ok());
  auto m = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().payload_str(), "payload");  // byte-identical
  p.a->close();
  p.b->close();
}

TEST(TelemetryTest, NegotiatedEndToEnd) {
  auto world = testing_support::TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  ChunnelArgs label;
  label.set("label", "kv");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("telemetry", label),
                                               ChunnelSpec("reliable")))
                      .value()
                      .listen(Addr::mem("h1", 0))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn->send(Msg::of("counted")).ok());
  ASSERT_TRUE(srv_conn->recv(Deadline::after(seconds(5))).ok());

  // The server runtime's telemetry impl saw the receive.
  uint64_t received = 0;
  for (const auto& impl : srv_rt->registry().lookup_type("telemetry")) {
    if (auto* tel = dynamic_cast<TelemetryChunnel*>(impl.get()))
      received += tel->snapshot("kv").msgs_received;
  }
  EXPECT_EQ(received, 1u);
}

}  // namespace
}  // namespace bertha

namespace bertha {
namespace {

// --- keepalive ---

TEST(KeepaliveTest, DataFlowsAndHeartbeatsAreInvisible) {
  KeepaliveOptions opts;
  opts.interval = ms(20);
  opts.dead_after = seconds(5);
  KeepaliveChunnel impl(opts);
  auto p = make_pair_with(impl);
  ASSERT_TRUE(p.a->send(Msg::of("beat")).ok());
  EXPECT_EQ(p.b->recv(Deadline::after(seconds(5))).value().payload_str(),
            "beat");
  // Idle long enough for heartbeats to flow; the app never sees them.
  EXPECT_FALSE(p.b->recv(Deadline::after(ms(150))).ok());
  // And traffic still works afterwards.
  ASSERT_TRUE(p.b->send(Msg::of("back")).ok());
  EXPECT_EQ(p.a->recv(Deadline::after(seconds(5))).value().payload_str(),
            "back");
  p.a->close();
  p.b->close();
}

TEST(KeepaliveTest, SilentPeerDetected) {
  KeepaliveOptions opts;
  opts.interval = ms(20);
  opts.dead_after = ms(120);
  KeepaliveChunnel impl(opts);
  auto p = make_pair_with(impl);
  // Kill the peer outright: its heartbeats stop.
  p.a->close();
  Stopwatch sw;
  auto r = p.b->recv(Deadline::after(seconds(5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
  EXPECT_GE(sw.elapsed(), ms(100));
  EXPECT_LT(sw.elapsed(), seconds(2));
  p.b->close();
}

TEST(KeepaliveTest, HeartbeatsKeepIdleConnectionAlive) {
  KeepaliveOptions opts;
  opts.interval = ms(20);
  opts.dead_after = ms(150);
  KeepaliveChunnel impl(opts);
  auto p = make_pair_with(impl);
  // Idle for 3x dead_after: heartbeats must prevent the liveness check
  // from firing; the caller just times out normally.
  auto r = p.b->recv(Deadline::after(ms(450)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timed_out);
  p.a->close();
  p.b->close();
}

TEST(KeepaliveTest, LivenessCarriesOverAcrossRebuild) {
  // An epoch cutover rebuilds the keepalive stack. The rebuilt side must
  // inherit the connection's liveness clock (WrapContext.liveness), not
  // restart it at "now": a peer that went silent before the cutover has
  // to be detected within the original dead_after budget.
  KeepaliveOptions opts;
  opts.interval = ms(20);
  opts.dead_after = ms(400);
  KeepaliveChunnel impl(opts);

  auto net = MemNetwork::create();
  auto ta = net->bind(Addr::mem("a", 1)).value();
  auto tb = net->bind(Addr::mem("b", 1)).value();
  Addr addr_a = ta->local_addr(), addr_b = tb->local_addr();
  ConnPtr base_a = std::make_shared<FixedPeerConnection>(std::move(ta), addr_b);
  ConnPtr base_b = std::make_shared<FixedPeerConnection>(std::move(tb), addr_a);

  // The previous epoch last heard from the peer 320ms ago; the peer is
  // dead (side a is never wrapped, so no heartbeats ever flow).
  auto carried = std::make_shared<ConnLiveness>();
  carried->last_heard = (now() - ms(320)).time_since_epoch().count();
  carried->last_sent = carried->last_heard.load();

  WrapContext ctx;
  ctx.role = Role::server;
  ctx.liveness = carried;
  auto b = impl.wrap(base_b, ctx).value();

  // Only ~80ms of the 400ms budget remains. Without carry-over the
  // rebuilt stack would take a full dead_after from wrap() to notice.
  Stopwatch sw;
  auto r = b->recv(Deadline::after(seconds(5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable) << r.error().to_string();
  EXPECT_GE(sw.elapsed(), ms(40)) << "carried timestamps misread as expired";
  EXPECT_LT(sw.elapsed(), ms(300)) << "liveness clock restarted at rebuild";
  b->close();
  base_a->close();
}

TEST(KeepaliveTest, NegotiatedEndToEnd) {
  auto world = testing_support::TestWorld::make();
  auto srv_rt = world.runtime("h1");
  auto cli_rt = world.runtime("h2");
  ChunnelArgs args;
  args.set("interval_us", "20000");
  args.set("dead_after_us", "200000");
  auto listener = srv_rt->endpoint("srv", wrap(ChunnelSpec("keepalive", args)))
                      .value()
                      .listen(Addr::mem("h1", 0))
                      .value();
  auto conn = cli_rt->endpoint("cli", ChunnelDag::empty())
                  .value()
                  .connect(listener->addr(), Deadline::after(seconds(5)))
                  .value();
  auto srv_conn = listener->accept(Deadline::after(seconds(5))).value();
  ASSERT_TRUE(conn->send(Msg::of("alive")).ok());
  EXPECT_EQ(srv_conn->recv(Deadline::after(seconds(5))).value().payload_str(),
            "alive");
  // Client goes away. Over the core connection the server may learn of
  // it explicitly (close frame -> cancelled) or, if that datagram were
  // lost, via heartbeat silence (-> unavailable). Either way recv()
  // unblocks with a terminal error instead of hanging.
  conn->close();
  auto r = srv_conn->recv(Deadline::after(seconds(5)));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.error().code == Errc::unavailable ||
              r.error().code == Errc::cancelled)
      << r.error().to_string();
}

}  // namespace
}  // namespace bertha
