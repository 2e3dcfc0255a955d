#include "net/uds.hpp"

#include <sys/socket.h>
#include <sys/un.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace bertha {

namespace {

constexpr char kPrefix[] = "bertha/";

// Abstract-namespace sockaddr: sun_path[0] == '\0', then the name.
// Returns the total socklen to pass to bind/sendto.
Result<socklen_t> to_sockaddr(const Addr& a, sockaddr_un& sa) {
  if (a.kind != AddrKind::uds)
    return err(Errc::invalid_argument,
               "uds transport cannot send to " + a.to_string());
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  std::string name = std::string(kPrefix) + a.host;
  if (name.size() + 1 > sizeof(sa.sun_path))
    return err(Errc::invalid_argument, "uds name too long: " + a.host);
  // sun_path[0] stays '\0' (abstract namespace).
  std::memcpy(sa.sun_path + 1, name.data(), name.size());
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                name.size());
}

Addr from_sockaddr(const sockaddr_un& sa, socklen_t len) {
  size_t path_len = len - offsetof(sockaddr_un, sun_path);
  if (path_len == 0) return Addr::uds("");  // unbound sender
  // Abstract addresses start with '\0'. Autobound names are 5 hex bytes
  // that may not carry our prefix; keep them verbatim (hex-escaped if
  // non-printable) so replies route correctly via the raw name.
  std::string raw(sa.sun_path + 1, path_len - 1);
  if (raw.rfind(kPrefix, 0) == 0) return Addr::uds(raw.substr(sizeof(kPrefix) - 1));
  // Autobind names are not under our prefix: mark with '@' so
  // to_sockaddr_raw can reconstruct them.
  std::string esc = "@";
  static const char* kHex = "0123456789abcdef";
  for (unsigned char c : raw) {
    esc.push_back(kHex[c >> 4]);
    esc.push_back(kHex[c & 0xf]);
  }
  return Addr::uds(esc);
}

// Handles both prefixed names and '@'-escaped autobind names.
Result<socklen_t> to_sockaddr_any(const Addr& a, sockaddr_un& sa) {
  if (!a.host.empty() && a.host[0] == '@') {
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::string_view hex(a.host);
    hex.remove_prefix(1);
    if (hex.size() % 2 != 0)
      return err(Errc::invalid_argument, "bad escaped uds addr");
    size_t n = hex.size() / 2;
    if (n + 1 > sizeof(sa.sun_path))
      return err(Errc::invalid_argument, "uds name too long");
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    for (size_t i = 0; i < n; i++) {
      int hi = nibble(hex[2 * i]), lo = nibble(hex[2 * i + 1]);
      if (hi < 0 || lo < 0)
        return err(Errc::invalid_argument, "bad escaped uds addr");
      sa.sun_path[1 + i] = static_cast<char>((hi << 4) | lo);
    }
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + n);
  }
  return to_sockaddr(a, sa);
}

}  // namespace

Result<TransportPtr> UdsTransport::bind(const Addr& addr) {
  if (addr.kind != AddrKind::uds)
    return err(Errc::invalid_argument, "not a uds addr: " + addr.to_string());

  Fd sock(::socket(AF_UNIX, SOCK_DGRAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) return errno_error(Errc::io_error, "socket");

  if (addr.host.empty()) {
    // Linux autobind: bind with just the family gets a unique abstract name.
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (::bind(sock.get(), reinterpret_cast<sockaddr*>(&sa),
               sizeof(sa_family_t)) < 0)
      return errno_error(Errc::io_error, "autobind");
  } else {
    sockaddr_un sa{};
    BERTHA_TRY_ASSIGN(len, to_sockaddr(addr, sa));
    if (::bind(sock.get(), reinterpret_cast<sockaddr*>(&sa), len) < 0)
      return errno_error(Errc::io_error, "bind uds://" + addr.host);
  }

  sockaddr_un bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(sock.get(), reinterpret_cast<sockaddr*>(&bound), &blen) < 0)
    return errno_error(Errc::io_error, "getsockname");

  BERTHA_TRY_ASSIGN(wake, make_wake_eventfd());
  return TransportPtr(new UdsTransport(std::move(sock), std::move(wake),
                                       from_sockaddr(bound, blen)));
}

UdsTransport::~UdsTransport() { close(); }

Result<void> UdsTransport::send_to(const Addr& dst, BytesView payload) {
  if (closed_.load(std::memory_order_acquire))
    return err(Errc::cancelled, "transport closed");
  if (payload.size() > kMaxDatagram)
    return err(Errc::invalid_argument, "datagram too large");
  sockaddr_un sa{};
  BERTHA_TRY_ASSIGN(len, to_sockaddr_any(dst, sa));
  ssize_t rc = ::sendto(sock_.get(), payload.data(), payload.size(), 0,
                        reinterpret_cast<sockaddr*>(&sa), len);
  if (rc < 0) {
    // A vanished peer is equivalent to packet loss at this layer.
    if (errno == ECONNREFUSED || errno == ENOENT || errno == EAGAIN ||
        errno == ENOBUFS)
      return ok();
    return errno_error(Errc::io_error, "sendto uds");
  }
  return ok();
}

Result<Packet> UdsTransport::recv(Deadline deadline) {
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
    sockaddr_un sa{};
    socklen_t len = sizeof(sa);
    ssize_t rc = ::recvfrom(sock_.get(), scratch.data(), scratch.size(),
                            MSG_DONTWAIT, reinterpret_cast<sockaddr*>(&sa), &len);
    if (rc < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return errno_error(Errc::io_error, "recvfrom uds");
    }
    pkt.payload.assign(scratch.begin(),
                       scratch.begin() + static_cast<ptrdiff_t>(rc));
    pkt.src = from_sockaddr(sa, len);
    return pkt;
  }
}

namespace {
constexpr size_t kMmsgChunk = 64;
}  // namespace

Result<size_t> UdsTransport::send_batch(std::span<const Datagram> batch) {
  if (closed_.load(std::memory_order_acquire))
    return err(Errc::cancelled, "transport closed");
  size_t done = 0;
  while (done < batch.size()) {
    mmsghdr hdrs[kMmsgChunk];
    iovec iovs[kMmsgChunk];
    sockaddr_un sas[kMmsgChunk];
    size_t k = std::min(kMmsgChunk, batch.size() - done);
    for (size_t i = 0; i < k; i++) {
      const Datagram& d = batch[done + i];
      if (d.payload.size() > kMaxDatagram)
        return err(Errc::invalid_argument, "datagram too large");
      BERTHA_TRY_ASSIGN(len, to_sockaddr_any(d.dst, sas[i]));
      iovs[i].iov_base = const_cast<uint8_t*>(d.payload.data());
      iovs[i].iov_len = d.payload.size();
      std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
      hdrs[i].msg_hdr.msg_name = &sas[i];
      hdrs[i].msg_hdr.msg_namelen = len;
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
    int rc = ::sendmmsg(sock_.get(), hdrs, static_cast<unsigned>(k), 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // Vanished peers / buffer pressure == packet loss (cf. send_to).
      if (errno == ECONNREFUSED || errno == ENOENT || errno == EAGAIN ||
          errno == ENOBUFS) {
        done += k;
        continue;
      }
      return errno_error(Errc::io_error, "sendmmsg uds");
    }
    done += static_cast<size_t>(rc);
  }
  return done;
}

Result<size_t> UdsTransport::recv_batch(std::span<Datagram> out,
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
    sockaddr_un sas[kMmsgChunk];
    for (size_t i = 0; i < want; i++) {
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
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return errno_error(Errc::io_error, "recvmmsg uds");
    }
    if (rc == 0) continue;
    for (int i = 0; i < rc; i++) {
      out[static_cast<size_t>(i)].payload.resize(hdrs[i].msg_len);
      out[static_cast<size_t>(i)].src =
          from_sockaddr(sas[i], hdrs[i].msg_hdr.msg_namelen);
    }
    for (size_t i = static_cast<size_t>(rc); i < want; i++)
      out[i].payload.clear();
    return static_cast<size_t>(rc);
  }
}

void UdsTransport::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  fire_wake_eventfd(wake_.get());
}

}  // namespace bertha
