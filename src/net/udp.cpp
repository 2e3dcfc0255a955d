#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace bertha {

namespace {

Result<sockaddr_in> to_sockaddr(const Addr& a) {
  if (a.kind != AddrKind::udp)
    return err(Errc::invalid_argument,
               "udp transport cannot send to " + a.to_string());
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1)
    return err(Errc::invalid_argument, "bad ipv4 addr: " + a.host);
  return sa;
}

Addr from_sockaddr(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return Addr::udp(buf, ntohs(sa.sin_port));
}

}  // namespace

Result<TransportPtr> UdpTransport::bind(const Addr& addr) {
  if (addr.kind != AddrKind::udp)
    return err(Errc::invalid_argument, "not a udp addr: " + addr.to_string());

  Fd sock(::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return errno_error(Errc::io_error, "socket");

  BERTHA_TRY_ASSIGN(sa, to_sockaddr(addr));
  if (::bind(sock.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0)
    return errno_error(Errc::io_error, "bind");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(sock.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0)
    return errno_error(Errc::io_error, "getsockname");

  BERTHA_TRY_ASSIGN(wake, make_wake_eventfd());
  return TransportPtr(new UdpTransport(std::move(sock), std::move(wake),
                                       from_sockaddr(bound)));
}

UdpTransport::~UdpTransport() { close(); }

Result<void> UdpTransport::send_to(const Addr& dst, BytesView payload) {
  if (closed_.load(std::memory_order_acquire))
    return err(Errc::cancelled, "transport closed");
  if (payload.size() > kMaxDatagram)
    return err(Errc::invalid_argument, "datagram too large");
  BERTHA_TRY_ASSIGN(sa, to_sockaddr(dst));
  ssize_t rc = ::sendto(sock_.get(), payload.data(), payload.size(), 0,
                        reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc < 0) {
    // Transient buffer pressure behaves like network drop for datagrams.
    if (errno == EAGAIN || errno == ENOBUFS || errno == ECONNREFUSED)
      return ok();
    return errno_error(Errc::io_error, "sendto");
  }
  return ok();
}

Result<Packet> UdpTransport::recv(Deadline deadline) {
  for (;;) {
    if (closed_.load(std::memory_order_acquire))
      return err(Errc::cancelled, "transport closed");
    BERTHA_TRY(wait_readable(sock_.get(), wake_.get(), deadline));
    if (closed_.load(std::memory_order_acquire))
      return err(Errc::cancelled, "transport closed");

    // recvfrom lands in a reusable scratch buffer: resizing a fresh
    // vector to 64 KiB would zero it on every receive, which dominates
    // small-packet latency.
    thread_local Bytes scratch(kMaxDatagram);
    Packet pkt;
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    ssize_t rc = ::recvfrom(sock_.get(), scratch.data(), scratch.size(),
                            MSG_DONTWAIT, reinterpret_cast<sockaddr*>(&sa), &len);
    if (rc < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNREFUSED)
        continue;  // spurious wakeup or ICMP error; retry
      return errno_error(Errc::io_error, "recvfrom");
    }
    pkt.payload.assign(scratch.begin(),
                       scratch.begin() + static_cast<ptrdiff_t>(rc));
    pkt.src = from_sockaddr(sa);
    return pkt;
  }
}

namespace {
// mmsghdr arrays live on the stack; larger batches go out in chunks.
constexpr size_t kMmsgChunk = 64;
}  // namespace

Result<size_t> UdpTransport::send_batch(std::span<const Datagram> batch) {
  if (closed_.load(std::memory_order_acquire))
    return err(Errc::cancelled, "transport closed");
  size_t done = 0;
  while (done < batch.size()) {
    mmsghdr hdrs[kMmsgChunk];
    iovec iovs[kMmsgChunk];
    sockaddr_in sas[kMmsgChunk];
    size_t k = std::min(kMmsgChunk, batch.size() - done);
    for (size_t i = 0; i < k; i++) {
      const Datagram& d = batch[done + i];
      if (d.payload.size() > kMaxDatagram)
        return err(Errc::invalid_argument, "datagram too large");
      BERTHA_TRY_ASSIGN(sa, to_sockaddr(d.dst));
      sas[i] = sa;
      iovs[i].iov_base = const_cast<uint8_t*>(d.payload.data());
      iovs[i].iov_len = d.payload.size();
      std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
      hdrs[i].msg_hdr.msg_name = &sas[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(sas[i]);
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
    int rc = ::sendmmsg(sock_.get(), hdrs, static_cast<unsigned>(k), 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // Transient buffer pressure behaves like network drop (cf. send_to);
      // count the chunk as handed off and keep going.
      if (errno == EAGAIN || errno == ENOBUFS || errno == ECONNREFUSED) {
        done += k;
        continue;
      }
      return errno_error(Errc::io_error, "sendmmsg");
    }
    // Partial acceptance: resume after the last datagram the kernel took.
    done += static_cast<size_t>(rc);
  }
  return done;
}

Result<size_t> UdpTransport::recv_batch(std::span<Datagram> out,
                                        Deadline deadline) {
  if (out.empty()) return size_t(0);
  size_t want = std::min(out.size(), kMmsgChunk);
  for (;;) {
    if (closed_.load(std::memory_order_acquire))
      return err(Errc::cancelled, "transport closed");
    BERTHA_TRY(wait_readable(sock_.get(), wake_.get(), deadline));
    if (closed_.load(std::memory_order_acquire))
      return err(Errc::cancelled, "transport closed");

    mmsghdr hdrs[kMmsgChunk];
    iovec iovs[kMmsgChunk];
    sockaddr_in sas[kMmsgChunk];
    for (size_t i = 0; i < want; i++) {
      // Pooled capacity is reused across calls; the kernel overwrites it,
      // so the steady state neither allocates nor zero-fills.
      PooledBytes& p = out[i].payload;
      p.resize(kMaxDatagram);
      iovs[i].iov_base = p.data();
      iovs[i].iov_len = p.size();
      std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
      hdrs[i].msg_hdr.msg_name = &sas[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(sas[i]);
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
    int rc = ::recvmmsg(sock_.get(), hdrs, static_cast<unsigned>(want),
                        MSG_DONTWAIT, nullptr);
    if (rc < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNREFUSED)
        continue;  // spurious wakeup, signal, or ICMP error; re-wait
      return errno_error(Errc::io_error, "recvmmsg");
    }
    if (rc == 0) continue;
    for (int i = 0; i < rc; i++) {
      out[static_cast<size_t>(i)].payload.resize(hdrs[i].msg_len);
      out[static_cast<size_t>(i)].src = from_sockaddr(sas[i]);
    }
    // Untouched slots keep their capacity but carry no stale bytes.
    for (size_t i = static_cast<size_t>(rc); i < want; i++)
      out[i].payload.clear();
    return static_cast<size_t>(rc);
  }
}

void UdpTransport::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  fire_wake_eventfd(wake_.get());
}

}  // namespace bertha
