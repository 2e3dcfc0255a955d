// Blocking multi-producer multi-consumer queue with deadlines and close().
//
// This is the backbone of every in-process transport and demux layer:
// closing a queue wakes all blocked consumers with Errc::cancelled, which
// is how connection close propagates through a chunnel stack. poll_fd()
// makes a queue pollable, which is how the io Reactor serves the
// in-process transports on its epoll workers.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/clock.hpp"
#include "util/result.hpp"

namespace bertha {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = 0) : capacity_(capacity) {}
  ~BlockingQueue() {
    if (ready_ >= 0) ::close(ready_);
  }
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  // Enqueue. Fails with resource_exhausted if a capacity is set and the
  // queue is full (bounded queues drop rather than block: transports are
  // datagram-like), or cancelled if closed.
  Result<void> push(T item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_) return err(Errc::cancelled, "queue closed");
      if (capacity_ != 0 && q_.size() >= capacity_)
        return err(Errc::resource_exhausted, "queue full");
      q_.push_back(std::move(item));
      if (q_.size() == 1) set_ready(true);
    }
    cv_.notify_one();
    return ok();
  }

  // Dequeue, blocking until an item arrives, the deadline expires, or the
  // queue is closed (and drained).
  Result<T> pop(Deadline deadline = Deadline::never()) {
    std::unique_lock<std::mutex> lk(mu_);
    BERTHA_TRY(wait_nonempty(lk, deadline));
    T item = std::move(q_.front());
    q_.pop_front();
    if (q_.empty()) set_ready(false);
    return item;
  }

  // Bulk dequeue under one lock acquisition: blocks like pop() for the
  // first item, then moves out up to `max` already-queued items. This is
  // the batched-receive path for queue-backed transports.
  Result<size_t> pop_batch(T* out, size_t max,
                           Deadline deadline = Deadline::never()) {
    if (max == 0) return size_t(0);
    std::unique_lock<std::mutex> lk(mu_);
    BERTHA_TRY(wait_nonempty(lk, deadline));
    size_t n = 0;
    while (n < max && !q_.empty()) {
      out[n++] = std::move(q_.front());
      q_.pop_front();
    }
    if (q_.empty()) set_ready(false);
    return n;
  }

  // Non-blocking dequeue.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T item = std::move(q_.front());
    q_.pop_front();
    if (q_.empty()) set_ready(false);
    return item;
  }

  // Wake all waiters; subsequent pushes fail. Items already queued are
  // still drained by pop().
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
      set_ready(true);
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

  // Readiness eventfd for epoll, readable exactly while an item is
  // queued or the queue is closed. Created by the first call (-1 if it
  // cannot be), so a queue nobody polls owns no fd and makes no extra
  // syscall per push.
  int poll_fd() {
    std::lock_guard<std::mutex> lk(mu_);
    if (ready_ < 0) {
      ready_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (closed_ || !q_.empty()) set_ready(true);
    }
    return ready_;
  }

 private:
  // Blocks until an item is queued (ok), the queue is closed and drained
  // (cancelled) or the deadline passes (timed_out).
  Result<void> wait_nonempty(std::unique_lock<std::mutex>& lk,
                             Deadline deadline) {
    while (q_.empty()) {
      if (closed_) return err(Errc::cancelled, "queue closed");
      if (deadline.is_never()) {
        cv_.wait(lk);
      } else if (cv_.wait_until(lk, deadline.as_time_point()) ==
                     std::cv_status::timeout &&
                 q_.empty()) {
        if (closed_) return err(Errc::cancelled, "queue closed");
        return err(Errc::timed_out, "queue pop deadline expired");
      }
    }
    return ok();
  }

  // Moves the eventfd to match the queue; callers hold mu_ and pass the
  // new state only on an edge (empty <-> non-empty, or close).
  void set_ready(bool ready) {
    if (ready_ < 0 || (!ready && closed_)) return;
    uint64_t v = 1;
    [[maybe_unused]] ssize_t rc = ready ? ::write(ready_, &v, sizeof(v))
                                        : ::read(ready_, &v, sizeof(v));
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  size_t capacity_;
  bool closed_ = false;
  int ready_ = -1;  // poll_fd(); its counter is non-zero iff readable
};

}  // namespace bertha
