#include "rigs.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "chunnels/builtin.hpp"
#include "chunnels/common.hpp"
#include "net/factory.hpp"
#include "net/udp.hpp"
#include "net/uds.hpp"

namespace bench {

using namespace bertha;

namespace {

constexpr const char* kHost = "bench-host";

[[noreturn]] void die(const char* what, const Error& e) {
  std::fprintf(stderr, "bertha_bench: %s: %s\n", what, e.to_string().c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

template <typename T>
T must(Result<T> r, const char* what) {
  if (!r.ok()) die(what, r.error());
  return std::move(r).value();
}

void must(Result<void> r, const char* what) {
  if (!r.ok()) die(what, r.error());
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::shared_ptr<Runtime> make_runtime(DiscoveryPtr discovery) {
  RuntimeConfig cfg;
  cfg.host_id = kHost;
  cfg.transports = std::make_shared<DefaultTransportFactory>();
  cfg.discovery = std::move(discovery);
  return must(Runtime::create(std::move(cfg)), "runtime");
}

ChunnelDag chain_dag(const std::vector<std::string>& chain) {
  std::vector<ChunnelSpec> specs;
  for (const auto& type : chain) specs.emplace_back(type);
  return ChunnelDag::chain(std::move(specs));
}

std::unique_ptr<Listener> listen_udp(Runtime& rt, const std::string& name,
                                     ChunnelDag dag) {
  auto ep = must(rt.endpoint(name, std::move(dag)), "endpoint");
  return must(ep.listen(Addr::udp("127.0.0.1", 0)), "listen");
}

}  // namespace

// --- inputs and output checks ------------------------------------------------

namespace {
constexpr size_t kPoolWindows = 65536;
}

Payloads::Payloads(uint64_t seed) : pool_(kPoolWindows + kMaxSize) {
  uint64_t s = mix(seed ^ 0x70a710adULL);
  for (auto& b : pool_) b = static_cast<uint8_t>((s = mix(s)) >> 56);
}

size_t Payloads::offset(uint64_t op) const { return mix(op) % kPoolWindows; }

void Payloads::fill(uint64_t op, size_t size, uint8_t* out) const {
  for (size_t i = 0; i < 8; i++) out[i] = static_cast<uint8_t>(op >> (8 * i));
  std::memcpy(out + 8, pool_.data() + offset(op), size - 8);
}

Bytes Payloads::make(uint64_t op, size_t size) const {
  Bytes b(size);
  fill(op, size, b.data());
  return b;
}

std::optional<uint64_t> Payloads::check(BytesView got, size_t size) const {
  if (got.size() != size || size < 8) return std::nullopt;
  uint64_t op = get_u64_le(got, 0);
  if (std::memcmp(got.data() + 8, pool_.data() + offset(op), size - 8) != 0)
    return std::nullopt;
  return op;
}

namespace {
constexpr size_t kLetterWindows = 4096;
}

KvValues::KvValues(uint64_t seed) : letters_(kLetterWindows + kValueSize, 'a') {
  uint64_t s = mix(seed ^ 0x6b76ULL);
  for (auto& c : letters_) c = static_cast<char>('a' + (s = mix(s)) % 26);
}

std::string KvValues::make(const std::string& key, uint64_t op) const {
  std::string v;
  v.reserve(kValueSize);
  v.append(key);
  v.push_back('=');
  v.append(letters_.data() + mix(op) % kLetterWindows, kValueSize - v.size());
  return v;
}

bool KvValues::embeds_key(const std::string& value, const std::string& key) {
  return value.size() == kValueSize && value.size() > key.size() &&
         value.compare(0, key.size(), key) == 0 && value[key.size()] == '=';
}

// --- closed loops ------------------------------------------------------------

LoopStats::LoopStats(uint64_t seed)
    : lat_ns(size_t{1} << 19, seed), send_ns(size_t{1} << 18, seed + 1) {}

void LoopStats::clear() {
  attempted = done = failed = 0;
  lat_ns.clear();
  send_ns.clear();
}

void closed_loop(Client& c, int depth, uint64_t& next_op,
                 const std::atomic<int>& phase, LoopStats& st) {
  struct Slot {
    uint64_t op = 0;
    int64_t t0 = 0;
    uint64_t span = 0;  // id of the op's root span; 0 when not sampled
    bool live = false;
    bool counted = false;  // issued while measuring
  };
  std::vector<Slot> slots(static_cast<size_t>(depth));
  Tracer& tr = tracer();

  auto issue = [&](Slot& s) {
    s.op = next_op++;
    s.counted = phase.load(std::memory_order_acquire) == kMeasure;
    s.t0 = now_ns();
    auto r = c.send(s.op);
    int64_t t1 = now_ns();
    s.span = 0;
    if (tr.sampled(s.op)) {
      s.span = tr.new_id();
      tr.record("send", s.t0, t1, s.op, tr.new_id(), s.span);
    }
    if (s.counted) {
      st.attempted++;
      st.send_ns.add(static_cast<double>(t1 - s.t0));
    }
    s.live = r.ok();
    if (!r.ok() && s.counted) st.failed++;
  };

  for (auto& s : slots) issue(s);
  for (;;) {
    int ph = phase.load(std::memory_order_acquire);
    bool any_live = false;
    for (const auto& s : slots) any_live |= s.live;
    if (!any_live) {
      if (ph == kStop) return;
      for (auto& s : slots) issue(s);
      continue;
    }
    int64_t r0 = now_ns();
    auto r = c.recv(Deadline::after(seconds(1)));
    int64_t r1 = now_ns();
    if (!r.ok()) {
      if (r.error().code == Errc::protocol_error) {
        if (st.wrong.empty()) st.wrong = r.error().message;
        return;
      }
      // Timed out or the connection broke: every op in flight is lost.
      for (auto& s : slots) {
        if (s.live && s.counted) st.failed++;
        s.live = false;
      }
      c.abandon();
      if (r.error().code != Errc::timed_out) return;
      continue;
    }
    Slot* s = nullptr;
    for (auto& cand : slots)
      if (cand.live && cand.op == r.value()) s = &cand;
    if (s == nullptr) continue;  // late reply to an abandoned op
    s->live = false;
    st.answered.store(st.answered.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    if (s->counted) {
      st.done++;
      st.lat_ns.add(static_cast<double>(r1 - s->t0));
    }
    if (s->span != 0) {
      tr.record("recv", r0, r1, s->op, tr.new_id(), s->span);
      tr.record(c.span_name(), s->t0, r1, s->op, s->span);
    }
    if (ph != kStop) issue(*s);
  }
}

// --- echo -------------------------------------------------------------------

EchoServer::EchoServer(std::unique_ptr<Listener> listener, int workers)
    : listener_(std::move(listener)) {
  for (int i = 0; i < workers; i++) threads_.emplace_back([this] { work(); });
}

EchoServer::~EchoServer() {
  stop_.store(true);
  listener_->close();
  for (auto& t : threads_) t.join();
}

void EchoServer::work() {
  Tracer& tr = tracer();
  while (!stop_.load()) {
    auto c = listener_->accept(Deadline::after(ms(100)));
    if (!c.ok()) {
      if (c.error().code == Errc::timed_out) continue;
      return;  // listener closed
    }
    ConnPtr conn = std::move(c).value();
    while (!stop_.load()) {
      int64_t t0 = now_ns();
      auto m = conn->recv(Deadline::after(ms(100)));
      if (!m.ok()) {
        if (m.error().code == Errc::timed_out) continue;
        break;  // the client closed
      }
      int64_t t1 = now_ns();
      uint64_t op = m.value().payload.size() >= 8
                        ? get_u64_le(m.value().payload, 0)
                        : 0;
      Msg reply;
      reply.dst = m.value().src;
      reply.payload = std::move(m.value().payload);
      auto sent = conn->send(std::move(reply));
      int64_t t2 = now_ns();
      echoed_.fetch_add(1, std::memory_order_release);
      if (tr.sampled(op)) {
        tr.record("server.recv", t0, t1, op, tr.new_id());
        tr.record("server.send", t1, t2, op, tr.new_id());
      }
      if (!sent.ok()) break;
    }
    conn->close();
  }
}

std::unique_ptr<RawEcho> RawEcho::start(const Addr& like) {
  auto bind = [&](const char* what) {
    return must(like.kind == AddrKind::uds ? UdsTransport::bind(like)
                                           : UdpTransport::bind(like),
                what);
  };
  std::unique_ptr<RawEcho> rig(new RawEcho());
  rig->server_ = bind("raw server");
  rig->client_ = bind("raw client");
  RawEcho* self = rig.get();
  rig->thread_ = std::thread([self] {
    for (;;) {
      auto p = self->server_->recv();
      if (!p.ok()) return;  // closed
      (void)self->server_->send_to(p.value().src, p.value().payload);
      self->echoed_.fetch_add(1, std::memory_order_release);
    }
  });
  return rig;
}

RawEcho::~RawEcho() {
  server_->close();
  thread_.join();
  client_->close();
}

IpcEcho::IpcEcho() {
  if (::socketpair(AF_UNIX, SOCK_DGRAM, 0, fd_) != 0) {
    std::perror("bertha_bench: socketpair");
    std::_Exit(1);
  }
  // The client gives up on a reply after 1 s, as the other clients do.
  timeval tv{1, 0};
  ::setsockopt(fd_[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int fd = fd_[1];
  thread_ = std::thread([fd] {
    uint8_t buf[Payloads::kMaxSize];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;  // an empty datagram asks the thread to stop
      (void)::send(fd, buf, static_cast<size_t>(n), 0);
    }
  });
}

IpcEcho::~IpcEcho() {
  (void)::send(fd_[0], "", 0, 0);
  thread_.join();
  ::close(fd_[0]);
  ::close(fd_[1]);
}

namespace {

class RawEchoClient final : public Client {
 public:
  RawEchoClient(RawEcho& rig, const Payloads& p, size_t size)
      : rig_(rig), p_(p), size_(size), buf_(size) {}
  Result<void> send(uint64_t op) override {
    p_.fill(op, size_, buf_.data());
    return rig_.client().send_to(rig_.server_addr(), buf_);
  }
  Result<uint64_t> recv(Deadline d) override {
    BERTHA_TRY_ASSIGN(pkt, rig_.client().recv(d));
    auto op = p_.check(pkt.payload, size_);
    if (!op) return err(Errc::protocol_error, "raw echo does not match");
    return *op;
  }
  const char* span_name() const override { return "raw"; }

 private:
  RawEcho& rig_;
  const Payloads& p_;
  size_t size_;
  Bytes buf_;
};

class IpcEchoClient final : public Client {
 public:
  IpcEchoClient(IpcEcho& rig, const Payloads& p, size_t size)
      : fd_(rig.client_fd()), p_(p), size_(size), buf_(size), in_(size) {}
  Result<void> send(uint64_t op) override {
    p_.fill(op, size_, buf_.data());
    if (::send(fd_, buf_.data(), size_, 0) != static_cast<ssize_t>(size_))
      return err(Errc::io_error, std::strerror(errno));
    return ok();
  }
  Result<uint64_t> recv(Deadline) override {
    ssize_t n = ::recv(fd_, in_.data(), in_.size(), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return err(Errc::timed_out, "ipc echo timed out");
    if (n < 0) return err(Errc::io_error, std::strerror(errno));
    auto op = p_.check(BytesView(in_.data(), static_cast<size_t>(n)), size_);
    if (!op) return err(Errc::protocol_error, "ipc echo does not match");
    return *op;
  }
  const char* span_name() const override { return "ipc"; }

 private:
  int fd_;
  const Payloads& p_;
  size_t size_;
  Bytes buf_, in_;
};

class ConnEchoClient final : public Client {
 public:
  ConnEchoClient(ConnPtr conn, const Payloads& p, size_t size)
      : conn_(std::move(conn)), p_(p), size_(size) {}
  Result<void> send(uint64_t op) override {
    return conn_->send(Msg(p_.make(op, size_)));
  }
  Result<uint64_t> recv(Deadline d) override {
    BERTHA_TRY_ASSIGN(m, conn_->recv(d));
    auto op = p_.check(m.payload, size_);
    if (!op) return err(Errc::protocol_error, "echo does not match");
    return *op;
  }
  const char* span_name() const override { return "rpc"; }

 private:
  ConnPtr conn_;
  const Payloads& p_;
  size_t size_;
};

}  // namespace

std::unique_ptr<Client> raw_echo_client(RawEcho& rig, const Payloads& p,
                                        size_t size) {
  return std::make_unique<RawEchoClient>(rig, p, size);
}

std::unique_ptr<Client> ipc_echo_client(IpcEcho& rig, const Payloads& p,
                                        size_t size) {
  return std::make_unique<IpcEchoClient>(rig, p, size);
}

std::unique_ptr<Client> conn_echo_client(ConnPtr conn, const Payloads& p,
                                         size_t size) {
  return std::make_unique<ConnEchoClient>(std::move(conn), p, size);
}

std::unique_ptr<RpcRig> start_rpc_rig(const std::vector<std::string>& chain) {
  auto rig = std::make_unique<RpcRig>();
  auto discovery = std::make_shared<DiscoveryState>();
  rig->srv_rt = make_runtime(discovery);
  rig->cli_rt = make_runtime(discovery);
  must(register_builtin_chunnels(*rig->srv_rt), "server chunnels");
  must(register_builtin_chunnels(*rig->cli_rt), "client chunnels");
  rig->server = std::make_unique<EchoServer>(
      listen_udp(*rig->srv_rt, "echo", chain_dag(chain)), 2);
  auto ep = must(rig->cli_rt->endpoint("echo-client", ChunnelDag::empty()),
                 "client endpoint");
  rig->conn = must(ep.connect(rig->server->addr(), Deadline::after(seconds(5))),
                   "connect");
  return rig;
}

// --- connect churn ---------------------------------------------------------

std::unique_ptr<ChurnRig> start_churn_rig(
    const std::vector<std::string>& chain) {
  auto rig = std::make_unique<ChurnRig>();
  rig->daemon = std::make_unique<DiscoveryServer>(
      must(UdsTransport::bind(Addr::uds("bench-disc-" + make_unique_id())),
           "discovery socket"),
      std::make_shared<DiscoveryState>());
  auto remote = [&] {
    return std::make_shared<RemoteDiscovery>(
        must(UdsTransport::bind(Addr::uds("")), "discovery client socket"),
        rig->daemon->addr());
  };
  rig->srv_rt = make_runtime(remote());
  rig->cli_rt = make_runtime(remote());
  must(register_builtin_chunnels(*rig->srv_rt), "server chunnels");
  must(register_builtin_chunnels(*rig->cli_rt), "client chunnels");
  rig->server = std::make_unique<EchoServer>(
      listen_udp(*rig->srv_rt, "churn", chain_dag(chain)), 2);
  rig->client.emplace(must(
      rig->cli_rt->endpoint("churn-client", ChunnelDag::empty()), "endpoint"));
  auto first = must(rig->client->connect(rig->server->addr(),
                                         Deadline::after(seconds(5))),
                    "first connect");
  first->close();
  return rig;
}

void churn_loop(ChurnRig& rig, const Payloads& p, size_t size,
                uint64_t& next_op, const std::atomic<int>& phase,
                LoopStats& st) {
  Tracer& tr = tracer();
  while (phase.load(std::memory_order_acquire) != kStop) {
    uint64_t op = next_op++;
    bool counted = phase.load(std::memory_order_acquire) == kMeasure;
    if (counted) st.attempted++;
    int64_t t0 = now_ns();
    auto c = rig.client->connect(rig.server->addr(),
                                 Deadline::after(seconds(2)));
    int64_t t1 = now_ns();
    if (!c.ok()) {
      if (counted) st.failed++;
      continue;
    }
    ConnPtr conn = std::move(c).value();
    auto sent = conn->send(Msg(p.make(op, size)));
    int64_t t2 = now_ns();
    Result<Msg> echo = sent.ok() ? conn->recv(Deadline::after(seconds(1)))
                                 : Result<Msg>(sent.error());
    int64_t t3 = now_ns();
    conn->close();
    int64_t t4 = now_ns();
    if (!echo.ok()) {
      if (counted) st.failed++;
    } else if (p.check(echo.value().payload, size) != op) {
      st.wrong = "echo after connect does not match";
      return;
    } else {
      st.answered.store(st.answered.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      if (counted) {
        st.done++;
        st.lat_ns.add(static_cast<double>(t1 - t0));
        st.send_ns.add(static_cast<double>(t2 - t1));
      }
    }
    if (tr.sampled(op)) {
      uint64_t root = tr.new_id();
      tr.record("connect", t0, t1, op, tr.new_id(), root);
      tr.record("send", t1, t2, op, tr.new_id(), root);
      tr.record("recv", t2, t3, op, tr.new_id(), root);
      tr.record("close", t3, t4, op, tr.new_id(), root);
      tr.record("churn", t0, t4, op, root);
    }
  }
}

// --- sharded KV -------------------------------------------------------------

YcsbConfig ycsb_config(uint64_t seed) {
  YcsbConfig cfg;
  cfg.workload = YcsbWorkload::a;
  cfg.distribution = KeyDistribution::uniform;
  cfg.record_count = kKvRecords;
  cfg.value_size = kValueSize;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<KvRig> start_kv_rig(ShardImpl impl, int conns) {
  auto rig = std::make_unique<KvRig>();
  auto discovery = std::make_shared<DiscoveryState>();
  rig->srv_rt = make_runtime(discovery);
  rig->cli_rt = make_runtime(discovery);
  rig->xdp = std::make_shared<ShardXdpChunnel>();
  must(rig->srv_rt->register_chunnel(rig->xdp), "server shard/xdp");
  ChunnelImplPtr client_impl;
  if (impl == ShardImpl::xdp)
    client_impl = std::make_shared<ShardXdpChunnel>();
  else
    client_impl = std::make_shared<ShardClientPushChunnel>();
  must(rig->cli_rt->register_chunnel(client_impl), "client shard chunnel");

  rig->backend = must(KvBackend::start(rig->srv_rt->transports(),
                                       Addr::udp("127.0.0.1", 0), kHost,
                                       kKvShards),
                      "kv backend");
  ChunnelArgs args;
  args.set("shards", format_addr_list(rig->backend->shard_addrs()));
  args.set_u64("field_offset", kKvShardFieldOffset);
  args.set_u64("field_len", kKvShardFieldLen);
  rig->listener = listen_udp(*rig->srv_rt, "kv", wrap(ChunnelSpec("shard", args)));
  auto ep = must(rig->cli_rt->endpoint("kv-client", ChunnelDag::empty()),
                 "kv client endpoint");
  for (int i = 0; i < conns; i++)
    rig->conns.push_back(must(
        ep.connect(rig->listener->addr(), Deadline::after(seconds(5))),
        "kv connect"));
  return rig;
}

Result<void> kv_preload(KvRig& rig, const KvValues& values) {
  constexpr size_t kDepth = 16;
  Connection& conn = *rig.conns.at(0);
  size_t sent = 0, acked = 0;
  while (acked < kKvRecords) {
    while (sent < kKvRecords && sent - acked < kDepth) {
      KvRequest put;
      put.op = KvOp::put;
      put.id = sent + 1;
      put.key = YcsbGenerator::key_for(sent);
      put.value = values.make(put.key, put.id);
      BERTHA_TRY(conn.send(Msg(encode_kv_request(put))));
      sent++;
    }
    BERTHA_TRY_ASSIGN(m, conn.recv(Deadline::after(seconds(2))));
    BERTHA_TRY_ASSIGN(rsp, decode_kv_response(m.payload));
    if (rsp.status != KvStatus::ok)
      return err(Errc::protocol_error, "preload put refused");
    acked++;
  }
  return ok();
}

namespace {

class KvLoadClient final : public Client {
 public:
  KvLoadClient(ConnPtr conn, const KvValues& values, uint64_t seed, int depth)
      : conn_(std::move(conn)),
        values_(values),
        gen_(ycsb_config(seed)),
        pending_(static_cast<size_t>(depth)) {}

  Result<void> send(uint64_t op) override {
    Pending* slot = nullptr;
    for (auto& p : pending_)
      if (!p.live) slot = &p;
    if (slot == nullptr) return err(Errc::internal, "more ops than depth");
    KvRequest req = gen_.next();
    req.id = op;
    if (req.op != KvOp::get) req.value = values_.make(req.key, op);
    slot->op = op;
    slot->key = req.key;
    slot->get = req.op == KvOp::get;
    auto r = conn_->send(Msg(encode_kv_request(req)));
    slot->live = r.ok();
    return r;
  }

  Result<uint64_t> recv(Deadline d) override {
    BERTHA_TRY_ASSIGN(m, conn_->recv(d));
    auto rsp = decode_kv_response(m.payload);
    if (!rsp.ok()) return err(Errc::protocol_error, "undecodable kv response");
    for (auto& p : pending_) {
      if (!p.live || p.op != rsp.value().id) continue;
      p.live = false;
      if (rsp.value().status != KvStatus::ok)
        return err(Errc::protocol_error, "kv op failed on the server");
      if (p.get && !KvValues::embeds_key(rsp.value().value, p.key))
        return err(Errc::protocol_error,
                   "GET " + p.key + " returned a value without its key");
      return p.op;
    }
    return rsp.value().id;  // late reply; closed_loop ignores it
  }

  void abandon() override {
    for (auto& p : pending_) p.live = false;
  }
  const char* span_name() const override { return "kv"; }

 private:
  struct Pending {
    uint64_t op = 0;
    std::string key;
    bool get = false;
    bool live = false;
  };
  ConnPtr conn_;
  const KvValues& values_;
  YcsbGenerator gen_;
  std::vector<Pending> pending_;
};

}  // namespace

std::unique_ptr<Client> kv_client(ConnPtr conn, const KvValues& values,
                                  uint64_t seed, int depth) {
  return std::make_unique<KvLoadClient>(std::move(conn), values, seed, depth);
}

}  // namespace bench
