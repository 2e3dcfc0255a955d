// The systems under test, built only from the library's public calls
// (Runtime, Endpoint, Listener, Connection, DiscoveryServer /
// RemoteDiscovery, KvBackend, kvproto, YcsbGenerator, ShardXdpChunnel,
// and the raw UDS/UDP transports), and the closed loops that drive them.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/kvproto.hpp"
#include "apps/kvserver.hpp"
#include "apps/ycsb.hpp"
#include "core/endpoint.hpp"
#include "measure.hpp"

namespace bench {

using bertha::Addr;
using bertha::Bytes;
using bertha::BytesView;
using bertha::ConnPtr;
using bertha::Deadline;
using bertha::Result;

// --- inputs and output checks ------------------------------------------------

// Seeded message bytes. Message `op` of `size` bytes is the op id (u64
// LE) followed by a window of a seeded pool chosen by the op id, so an
// echo can be checked byte for byte without storing what was sent.
class Payloads {
 public:
  static constexpr size_t kMaxSize = 16384;
  explicit Payloads(uint64_t seed);
  void fill(uint64_t op, size_t size, uint8_t* out) const;
  Bytes make(uint64_t op, size_t size) const;
  // The op id of `got` if it is exactly message (op, size); else nullopt.
  std::optional<uint64_t> check(BytesView got, size_t size) const;

 private:
  size_t offset(uint64_t op) const;
  std::vector<uint8_t> pool_;
};

// KV values embed their key ("<key>=<seeded letters>", kValueSize bytes),
// so a GET answered with another record's value is caught.
inline constexpr size_t kValueSize = 100;
class KvValues {
 public:
  explicit KvValues(uint64_t seed);
  std::string make(const std::string& key, uint64_t op) const;
  static bool embeds_key(const std::string& value, const std::string& key);

 private:
  std::string letters_;
};

// --- closed loops ------------------------------------------------------------

enum Phase : int { kWarm = 0, kMeasure = 1, kStop = 2 };

// What one load thread saw while the phase read kMeasure; closed_loop
// and churn_loop add to it, so one LoopStats can span several windows.
struct LoopStats {
  explicit LoopStats(uint64_t seed);
  // Ops answered correctly in any phase; read by other threads.
  std::atomic<uint64_t> answered{0};
  uint64_t attempted = 0;
  uint64_t done = 0;
  uint64_t failed = 0;  // timeouts, connect errors and lost replies
  Reservoir lat_ns;     // per-op latency
  Reservoir send_ns;    // duration of the client send call
  std::string wrong;    // first output that failed its check

  // Forgets the measured windows, keeping the sample buffers.
  void clear();
};

// One connection driven by one load thread with up to `depth` operations
// in flight.
class Client {
 public:
  virtual ~Client() = default;
  virtual Result<void> send(uint64_t op) = 0;
  // The op id of the next reply, once it passed its check. A reply that
  // fails its check is an Errc::protocol_error naming what was wrong.
  virtual Result<uint64_t> recv(Deadline deadline) = 0;
  // Forget every operation in flight (after a timeout).
  virtual void abandon() {}
  virtual const char* span_name() const = 0;
};

// Runs until the phase reads kStop and every op in flight is answered.
// Op ids continue from `next_op`, across calls.
void closed_loop(Client& c, int depth, uint64_t& next_op,
                 const std::atomic<int>& phase, LoopStats& st);

// --- echo -------------------------------------------------------------------

// Echoes every message on accepted connections. A fixed set of worker
// threads each serve one connection at a time until the client closes it,
// so connection churn creates no threads.
class EchoServer {
 public:
  EchoServer(std::unique_ptr<bertha::Listener> listener, int workers);
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  const Addr& addr() const { return listener_->addr(); }
  bertha::Listener& listener() { return *listener_; }
  // Echoes whose send has returned.
  uint64_t echoed() const { return echoed_.load(std::memory_order_acquire); }

 private:
  void work();
  std::unique_ptr<bertha::Listener> listener_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> echoed_{0};
  std::vector<std::thread> threads_;
};

// A raw transport pair with an echo thread: the `net` rung.
class RawEcho {
 public:
  // `like` picks the family: Addr::uds("") or Addr::udp("127.0.0.1", 0).
  static std::unique_ptr<RawEcho> start(const Addr& like);
  ~RawEcho();
  RawEcho(const RawEcho&) = delete;
  RawEcho& operator=(const RawEcho&) = delete;

  bertha::Transport& client() { return *client_; }
  const Addr& server_addr() const { return server_->local_addr(); }
  uint64_t echoed() const { return echoed_.load(std::memory_order_acquire); }

 private:
  RawEcho() = default;
  std::unique_ptr<bertha::Transport> server_;
  std::unique_ptr<bertha::Transport> client_;
  std::atomic<uint64_t> echoed_{0};
  std::thread thread_;
};

// A bare AF_UNIX datagram socketpair with an echo thread, built on system
// calls alone: the IPC round trip every end-to-end timing is divided by.
// No change to the library can make it faster or slower.
class IpcEcho {
 public:
  IpcEcho();
  ~IpcEcho();
  IpcEcho(const IpcEcho&) = delete;
  IpcEcho& operator=(const IpcEcho&) = delete;
  int client_fd() const { return fd_[0]; }

 private:
  int fd_[2] = {-1, -1};
  std::thread thread_;
};

std::unique_ptr<Client> raw_echo_client(RawEcho& rig, const Payloads& p,
                                        size_t size);
std::unique_ptr<Client> ipc_echo_client(IpcEcho& rig, const Payloads& p,
                                        size_t size);
std::unique_ptr<Client> conn_echo_client(ConnPtr conn, const Payloads& p,
                                         size_t size);

// A server and a client runtime on one host, an EchoServer listening with
// `chain` (outermost first), and one connected client. Members are
// declared so that they are destroyed client side first.
struct RpcRig {
  std::shared_ptr<bertha::Runtime> srv_rt, cli_rt;
  std::unique_ptr<EchoServer> server;
  ConnPtr conn;
};
std::unique_ptr<RpcRig> start_rpc_rig(const std::vector<std::string>& chain);

// --- connect churn ---------------------------------------------------------

// A DiscoveryServer daemon on a unix socket, server and client runtimes
// that both query it, and an EchoServer listening with `chain`.
struct ChurnRig {
  std::unique_ptr<bertha::DiscoveryServer> daemon;
  std::shared_ptr<bertha::Runtime> srv_rt, cli_rt;
  std::unique_ptr<EchoServer> server;
  std::optional<bertha::Endpoint> client;
};
std::unique_ptr<ChurnRig> start_churn_rig(const std::vector<std::string>& chain);

// One connect, one echo of `size` bytes, one close per operation;
// latency is the Endpoint::connect call.
void churn_loop(ChurnRig& rig, const Payloads& p, size_t size,
                uint64_t& next_op, const std::atomic<int>& phase,
                LoopStats& st);

// --- sharded KV -------------------------------------------------------------

inline constexpr size_t kKvRecords = 10000;
inline constexpr size_t kKvShards = 3;

enum class ShardImpl { xdp, client_push };

// KvBackend with kKvShards shards over UDP behind a `shard` listener, and
// `conns` client connections. The server registers shard/xdp; the client
// registers `impl`, which negotiation then binds.
struct KvRig {
  std::shared_ptr<bertha::Runtime> srv_rt, cli_rt;
  std::shared_ptr<bertha::ShardXdpChunnel> xdp;
  std::unique_ptr<bertha::KvBackend> backend;
  std::unique_ptr<bertha::Listener> listener;
  std::vector<ConnPtr> conns;
};
std::unique_ptr<KvRig> start_kv_rig(ShardImpl impl, int conns);

// Puts every record, values from `values`, through conns[0].
Result<void> kv_preload(KvRig& rig, const KvValues& values);

// YCSB-A over uniform keys on one connection; GET replies must carry a
// value that embeds their key.
std::unique_ptr<Client> kv_client(ConnPtr conn, const KvValues& values,
                                  uint64_t seed, int depth);

// The YCSB-A config every KV phase and probe uses.
bertha::YcsbConfig ycsb_config(uint64_t seed);

}  // namespace bench
