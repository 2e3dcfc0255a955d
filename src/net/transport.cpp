#include "net/transport.hpp"

namespace bertha {

Result<size_t> Transport::send_batch(std::span<const Datagram> batch) {
  size_t sent = 0;
  for (const Datagram& d : batch) {
    BERTHA_TRY(send_to(d.dst, d.payload.view()));
    sent++;
  }
  return sent;
}

Result<size_t> Transport::recv_batch(std::span<Datagram> out,
                                     Deadline deadline) {
  if (out.empty()) return size_t(0);
  // One (possibly blocking) receive, then drain whatever is already
  // queued with expired deadlines — on both poll-based and queue-based
  // transports that behaves as a non-blocking try.
  BERTHA_TRY_ASSIGN(first, recv(deadline));
  out[0].src = std::move(first.src);
  out[0].payload.assign(first.payload);
  size_t n = 1;
  while (n < out.size()) {
    auto more = recv(Deadline::after(Duration::zero()));
    if (!more.ok()) break;  // timed_out: drained; cancelled: next call sees it
    out[n].src = std::move(more.value().src);
    out[n].payload.assign(more.value().payload);
    n++;
  }
  return n;
}

}  // namespace bertha
