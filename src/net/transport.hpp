// Transport: the lowest layer of the stack — an unreliable, unordered
// datagram endpoint, deliberately minimal (the paper's "best-effort,
// end-to-end packet delivery"). Everything above it — reliability,
// ordering, sharding, multicast — is a Chunnel.
#pragma once

#include <memory>
#include <span>

#include "io/buffer_pool.hpp"
#include "net/addr.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace bertha {

// Largest payload one datagram of the socket transports (UDP, unix,
// socketpair) carries; send_to() rejects anything bigger.
inline constexpr size_t kMaxDatagram = 65507;

struct Packet {
  Addr src;
  Bytes payload;
};

// One datagram in a batch. `src` is filled on receive, `dst` consulted
// on send. Payloads live in pooled buffers so a reused Datagram array
// makes the steady-state rx path allocation-free.
struct Datagram {
  Addr src;
  Addr dst;
  PooledBytes payload;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Fire-and-forget datagram send. May drop silently (like UDP); errors
  // are returned only for local problems (bad addr, closed endpoint).
  virtual Result<void> send_to(const Addr& dst, BytesView payload) = 0;

  // Block until a datagram arrives, the deadline expires (timed_out), or
  // the endpoint is closed (cancelled). Safe to call concurrently with
  // send_to and close from other threads.
  virtual Result<Packet> recv(Deadline deadline = Deadline::never()) = 0;

  virtual const Addr& local_addr() const = 0;

  // Idempotent; wakes blocked recv() calls with cancelled.
  virtual void close() = 0;

  // OS-pollable readiness fd, readable while recv_batch has a datagram
  // to return. The io Reactor takes every registration through it on one
  // epoll set, so a transport that buffers datagrams of its own (the
  // fault decorator) leaves nothing buffered when a recv_batch returns
  // fewer datagrams than it had slots: an fd that reads empty must mean
  // nothing is waiting. -1 only when the fd cannot be created, and then
  // Reactor::add fails.
  virtual int poll_fd() const = 0;

  // Batched I/O, the syscall-amortization layer under the chunnel stack.
  // UDP/UDS override with sendmmsg/recvmmsg and mem/sim with a bulk
  // queue dequeue; the default bodies adapt the scalar calls above, so
  // every transport works through one call site.
  //
  // Sends every datagram; returns how many were handed to the network.
  // Like send_to, transient network-side pressure counts as a silent
  // drop (still "sent"); errors are local problems only, and a local
  // error may abort the batch partway (the count says where). Default:
  // a send_to loop.
  virtual Result<size_t> send_batch(std::span<const Datagram> batch);

  // Blocks until at least one datagram arrives (or deadline/close), then
  // fills as many slots of `out` as are immediately available. Returns
  // the number filled. An already-expired deadline acts as a
  // non-blocking poll. Default: one recv, then an expired-deadline drain.
  virtual Result<size_t> recv_batch(std::span<Datagram> out,
                                    Deadline deadline = Deadline::never());
};

using TransportPtr = std::unique_ptr<Transport>;

// Creates a bound transport of the same family as `bind_addr`.
// For udp/uds, port 0 / empty-suffix names are fleshed out by the OS.
// A TransportFactory is how the runtime and chunnels (e.g. the local
// fast-path chunnel dialing a UDS address) obtain endpoints without
// depending on concrete transport types.
class TransportFactory {
 public:
  virtual ~TransportFactory() = default;
  virtual Result<TransportPtr> bind(const Addr& bind_addr) = 0;
};

}  // namespace bertha
