#include "fabric/endpoint.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/status.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mpixccl::fabric {

namespace {

/// How long a waiter spins on its completion flag before parking.
constexpr std::chrono::microseconds kSpinBeforePark{50};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Block until `ready` is non-zero: spin for kSpinBeforePark if `spin`, then
/// park in std::atomic::wait. Acquire order pairs with Completion::publish.
void await_ready(const std::atomic<std::uint32_t>& ready, bool spin) {
  if (ready.load(std::memory_order_acquire) != 0) return;
  if (spin) {
    // Poll in batches: a clock read costs more than a poll, and the batch is
    // far shorter than the spin budget. The yield between batches hands the
    // core to a runnable thread when other processes oversubscribe the host.
    constexpr int kPollsPerBatch = 64;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    do {
      for (int i = 0; i < kPollsPerBatch; ++i) {
        if (ready.load(std::memory_order_acquire) != 0) return;
        cpu_relax();
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);
  }
  while (ready.load(std::memory_order_acquire) == 0) {
    ready.wait(0, std::memory_order_acquire);
  }
}

}  // namespace

namespace detail {

/// One message's completion, written once by the thread that closes the
/// match and read once by the handle's owner.
template <typename T>
struct Completion {
  explicit Completion(bool spin_first) : spin(spin_first) {}

  std::atomic<std::uint32_t> ready{0};
  const bool spin;
  T value{};
  std::exception_ptr error;

  void set_value(T v) {
    value = std::move(v);
    publish();
  }
  void set_error(std::exception_ptr e) {
    error = std::move(e);
    publish();
  }
  T get() {
    await_ready(ready, spin);
    if (error) std::rethrow_exception(error);
    return std::move(value);
  }

 private:
  void publish() {
    ready.store(1, std::memory_order_release);
    ready.notify_one();
  }
};

}  // namespace detail

sim::TimeUs PendingSend::wait(sim::VirtualClock& clock) {
  require(valid_, "PendingSend::wait: empty handle");
  valid_ = false;
  const sim::TimeUs t = cell_ ? std::exchange(cell_, nullptr)->get() : done_;
  clock.advance_to(t);
  return t;
}

RecvResult PendingRecv::wait(sim::VirtualClock& clock) {
  require(cell_ != nullptr, "PendingRecv::wait: empty handle");
  RecvResult r = std::exchange(cell_, nullptr)->get();
  clock.advance_to(r.completion);
  return r;
}

void Endpoint::complete(PostedRecv& r, int src, int tag, const void* data,
                        std::size_t bytes, sim::TimeUs sender_ready,
                        SendCell* send_done) {
  if (bytes > r.capacity) {
    auto err = std::make_exception_ptr(
        Error("fabric: message truncation (got " + std::to_string(bytes) +
              " bytes, capacity " + std::to_string(r.capacity) + ")"));
    r.done->set_error(err);
    // Eager senders already resolved their handle at post time.
    if (send_done != nullptr) send_done->set_error(err);
    return;
  }
  if (bytes > 0) std::memcpy(r.buf, data, bytes);

  const sim::TimeUs base = (sender_ready > r.recv_ready) ? sender_ready : r.recv_ready;
  const double transfer_us = r.cost ? r.cost(src, bytes) : 0.0;
  const sim::TimeUs completion = base + transfer_us;

  r.done->set_value(RecvResult{bytes, src, tag, completion});
  if (send_done != nullptr) send_done->set_value(completion);
}

bool Endpoint::take_pending(int src, int tag, ChannelId channel, PostedRecv& out) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (matches(*it, src, tag, channel)) {
      out = std::move(*it);
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

PendingSend Endpoint::deliver(int src, int tag, ChannelId channel, const void* data,
                              std::size_t bytes, sim::TimeUs sender_ready,
                              const SendPolicy& policy) {
  require(bytes == 0 || data != nullptr, "Endpoint::deliver: null payload");

  auto done = policy.rendezvous ? std::make_shared<SendCell>(spin_) : nullptr;
  PendingSend handle = done ? PendingSend(done)
                            : PendingSend(sender_ready + policy.eager_complete_us);

  // A receive already posted: one copy, sender buffer -> receive buffer.
  PostedRecv r{};
  bool matched = false;
  {
    std::lock_guard lock(mu_);
    matched = take_pending(src, tag, channel, r);
  }
  if (!matched) {
    // Unexpected: snapshot the payload outside the lock, then look again in
    // case the receive was posted meanwhile. Messages from one source are
    // delivered by one thread in order, so the second look cannot reorder
    // them.
    PostedSend s{src, tag, channel,
                 std::vector<std::byte>(static_cast<const std::byte*>(data),
                                        static_cast<const std::byte*>(data) + bytes),
                 sender_ready, done};
    std::lock_guard lock(mu_);
    matched = take_pending(src, tag, channel, r);
    if (!matched) {
      unexpected_.push_back(std::move(s));
      return handle;
    }
  }
  complete(r, src, tag, data, bytes, sender_ready, done.get());
  return handle;
}

PendingRecv Endpoint::post_recv(int src, int tag, ChannelId channel, void* buf,
                                std::size_t capacity, sim::TimeUs recv_ready,
                                CostFn cost) {
  require(capacity == 0 || buf != nullptr, "Endpoint::post_recv: null buffer");

  PostedRecv r{src,      tag,        channel,         buf,
               capacity, recv_ready, std::move(cost), std::make_shared<RecvCell>(spin_)};
  PendingRecv handle(r.done);

  PostedSend s{};
  {
    std::lock_guard lock(mu_);
    auto it = unexpected_.begin();
    while (it != unexpected_.end() && !matches(r, it->src, it->tag, it->channel)) ++it;
    if (it == unexpected_.end()) {
      pending_.push_back(std::move(r));
      return handle;
    }
    s = std::move(*it);
    unexpected_.erase(it);
  }
  complete(r, s.src, s.tag, s.payload.data(), s.payload.size(), s.sender_ready,
           s.done.get());
  return handle;
}

std::size_t Endpoint::unexpected_count() const {
  std::lock_guard lock(mu_);
  return unexpected_.size();
}

std::size_t Endpoint::pending_recv_count() const {
  std::lock_guard lock(mu_);
  return pending_.size();
}

}  // namespace mpixccl::fabric
