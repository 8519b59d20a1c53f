#pragma once
// Per-rank fabric endpoint: posted-send / posted-recv matching with MPI
// ordering semantics (FIFO, non-overtaking per (src, tag, channel)).
//
// Matching runs under the receiving endpoint's mutex and is closed by
// whichever thread arrives second: the sender if a receive was already
// posted, the receiver if the send was unexpected. The matched pair is taken
// off its queue under the lock; the copy and the completion happen after it
// is released.
//
// Payload copies:
//   * receive already posted: `deliver` copies once, straight from the
//     sender's buffer into the receive buffer;
//   * unexpected message (eager or rendezvous): `deliver` snapshots the
//     payload into a heap buffer, and the matching `post_recv` copies it out.
//     The snapshot is the contract callers rely on: a sender may overwrite
//     its buffer as soon as `deliver` returns, before waiting on the send.
//
// Completion: every handle that cannot be resolved at post time shares one
// single-writer cell with its queued entry. The matching thread writes the
// value (or error), then sets the cell's ready flag with release order. The
// owner's wait() spins on the flag for a short fixed time (kSpinBeforePark),
// then parks in std::atomic::wait. Spinning is enabled only for endpoints
// built by a World whose rank threads fit on the host's hardware threads;
// standalone endpoints and oversubscribed worlds park at once. Virtual
// completion times synchronize the two ranks' clocks through the handles.

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "fabric/message.hpp"
#include "sim/time.hpp"

namespace mpixccl::fabric {

namespace detail {
/// One message's completion cell (defined in endpoint.cpp).
template <typename T>
struct Completion;
}  // namespace detail

class Endpoint;

/// Handle for an in-flight send. wait() yields the sender-side virtual
/// completion time and advances the clock to it.
class PendingSend {
 public:
  PendingSend() = default;

  /// Blocks (real time) until resolved; advances `clock` to the completion.
  sim::TimeUs wait(sim::VirtualClock& clock);
  [[nodiscard]] bool valid() const { return valid_; }

 private:
  friend class Endpoint;
  /// Eager: resolved at post time.
  explicit PendingSend(sim::TimeUs done) : done_(done), valid_(true) {}
  /// Rendezvous: resolved by the match.
  explicit PendingSend(std::shared_ptr<detail::Completion<sim::TimeUs>> cell)
      : cell_(std::move(cell)), valid_(true) {}

  std::shared_ptr<detail::Completion<sim::TimeUs>> cell_;
  sim::TimeUs done_ = 0.0;
  bool valid_ = false;
};

/// Handle for an in-flight receive.
class PendingRecv {
 public:
  PendingRecv() = default;

  /// Blocks until a matching send arrives; advances `clock`.
  RecvResult wait(sim::VirtualClock& clock);
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  friend class Endpoint;
  explicit PendingRecv(std::shared_ptr<detail::Completion<RecvResult>> cell)
      : cell_(std::move(cell)) {}

  std::shared_ptr<detail::Completion<RecvResult>> cell_;
};

class Endpoint {
 public:
  /// `spin`: waiters on this endpoint's handles spin before parking (set by
  /// World when its rank threads fit on the hardware threads).
  explicit Endpoint(int rank, bool spin = false) : rank_(rank), spin_(spin) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const { return rank_; }

  /// Post a send to this endpoint (the *destination's* endpoint), called on
  /// the sending rank's thread. The payload is read before this returns:
  /// copied into a posted receive, or snapshotted if none matches yet.
  /// Returns the sender's handle.
  PendingSend deliver(int src, int tag, ChannelId channel, const void* data,
                      std::size_t bytes, sim::TimeUs sender_ready,
                      const SendPolicy& policy);

  /// Post a receive on this endpoint (the receiver's own endpoint).
  PendingRecv post_recv(int src, int tag, ChannelId channel, void* buf,
                        std::size_t capacity, sim::TimeUs recv_ready, CostFn cost);

  /// Unmatched message count (tests).
  [[nodiscard]] std::size_t unexpected_count() const;
  [[nodiscard]] std::size_t pending_recv_count() const;

 private:
  using SendCell = detail::Completion<sim::TimeUs>;
  using RecvCell = detail::Completion<RecvResult>;

  /// An unexpected message with its payload snapshot.
  struct PostedSend {
    int src;
    int tag;
    ChannelId channel;
    std::vector<std::byte> payload;
    sim::TimeUs sender_ready;
    std::shared_ptr<SendCell> done;  ///< null for eager sends
  };
  struct PostedRecv {
    int src;  // kAnySource allowed
    int tag;  // kAnyTag allowed
    ChannelId channel;
    void* buf;
    std::size_t capacity;
    sim::TimeUs recv_ready;
    CostFn cost;
    std::shared_ptr<RecvCell> done;
  };

  static bool matches(const PostedRecv& r, int src, int tag, ChannelId channel) {
    return r.channel == channel && (r.src == kAnySource || r.src == src) &&
           (r.tag == kAnyTag || r.tag == tag);
  }

  /// Complete a matched pair: copy `bytes` from `data` into the receive
  /// buffer, price the transfer, and resolve the receive cell and, for
  /// rendezvous, the send cell. Called without mu_ held.
  static void complete(PostedRecv& r, int src, int tag, const void* data,
                       std::size_t bytes, sim::TimeUs sender_ready,
                       SendCell* send_done);

  /// Remove and return the first posted receive matching the message, if any.
  /// Caller holds mu_.
  bool take_pending(int src, int tag, ChannelId channel, PostedRecv& out);

  int rank_;
  bool spin_;
  mutable std::mutex mu_;
  std::deque<PostedSend> unexpected_;
  std::deque<PostedRecv> pending_;
};

}  // namespace mpixccl::fabric
