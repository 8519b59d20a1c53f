// Tests for the fabric transport: matching semantics, protocol behaviour,
// virtual-clock rendezvous, and the World runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "fabric/endpoint.hpp"
#include "fabric/world.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::fabric {
namespace {

CostFn flat_cost(double alpha, double bw_MBps) {
  return [=](int, std::size_t bytes) {
    return alpha + static_cast<double>(bytes) / bw_MBps;
  };
}

TEST(Endpoint, EagerSendCompletesWithoutReceiver) {
  Endpoint ep(1);
  const int payload = 42;
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 3.0};
  PendingSend s = ep.deliver(0, 7, 100, &payload, sizeof(payload), 10.0, eager);

  sim::VirtualClock clock;
  // Resolves immediately at sender_ready + eager cost even though no recv.
  EXPECT_DOUBLE_EQ(s.wait(clock), 13.0);
  EXPECT_EQ(ep.unexpected_count(), 1u);

  int out = 0;
  PendingRecv r = ep.post_recv(0, 7, 100, &out, sizeof(out), 20.0, flat_cost(5, 1e6));
  sim::VirtualClock rclock;
  const RecvResult res = r.wait(rclock);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(res.src, 0);
  EXPECT_EQ(res.tag, 7);
  EXPECT_EQ(res.bytes, sizeof(int));
  // completion = max(10, 20) + 5 + 4B/1e6MBps ~ 25.
  EXPECT_NEAR(res.completion, 25.0, 1e-4);
  EXPECT_DOUBLE_EQ(rclock.now(), res.completion);
}

TEST(Endpoint, RendezvousSenderSynchronizesWithReceiver) {
  Endpoint ep(1);
  std::vector<char> data(1000, 'a');
  std::vector<char> out(1000);
  SendPolicy rndv{.rendezvous = true, .eager_complete_us = 0.0};

  // Receiver is ready *before* the sender: completion based on sender time.
  PendingRecv r = ep.post_recv(kAnySource, kAnyTag, 5, out.data(), out.size(), 2.0,
                               flat_cost(1.0, 1000.0));
  PendingSend s = ep.deliver(3, 9, 5, data.data(), data.size(), 50.0, rndv);

  sim::VirtualClock sc;
  sim::VirtualClock rc;
  const double sender_done = s.wait(sc);
  const RecvResult res = r.wait(rc);
  // base = max(50, 2) = 50; cost = 1 + 1000/1000 = 2.
  EXPECT_DOUBLE_EQ(res.completion, 52.0);
  EXPECT_DOUBLE_EQ(sender_done, 52.0);  // rendezvous: sender completes with transfer
  EXPECT_EQ(out[999], 'a');
  EXPECT_EQ(res.src, 3);
  EXPECT_EQ(res.tag, 9);
}

TEST(Endpoint, ChannelsIsolateTraffic) {
  Endpoint ep(0);
  const int a = 1;
  const int b = 2;
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  ep.deliver(5, 0, /*channel=*/111, &a, sizeof(a), 0.0, eager);
  ep.deliver(5, 0, /*channel=*/222, &b, sizeof(b), 0.0, eager);

  int out = 0;
  sim::VirtualClock clock;
  // Receive on channel 222 first: must get `b`, not the earlier `a`.
  PendingRecv r = ep.post_recv(5, 0, 222, &out, sizeof(out), 0.0, flat_cost(0, 1));
  r.wait(clock);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ep.unexpected_count(), 1u);
}

TEST(Endpoint, FifoOrderPerSourceAndTag) {
  Endpoint ep(0);
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  for (int v : {10, 20, 30}) {
    ep.deliver(1, 4, 9, &v, sizeof(v), 0.0, eager);
  }
  sim::VirtualClock clock;
  for (int expect : {10, 20, 30}) {
    int out = 0;
    PendingRecv r = ep.post_recv(1, 4, 9, &out, sizeof(out), 0.0, flat_cost(0, 1));
    r.wait(clock);
    EXPECT_EQ(out, expect);
  }
}

TEST(Endpoint, TruncationIsAnError) {
  Endpoint ep(0);
  std::vector<char> big(64, 'x');
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 0.0};
  ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, eager);

  char small[8];
  PendingRecv r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
  sim::VirtualClock clock;
  EXPECT_THROW(r.wait(clock), Error);
}

TEST(Endpoint, ZeroByteMessages) {
  Endpoint ep(0);
  SendPolicy eager{.rendezvous = false, .eager_complete_us = 1.0};
  PendingSend s = ep.deliver(2, 8, 4, nullptr, 0, 5.0, eager);
  PendingRecv r = ep.post_recv(2, 8, 4, nullptr, 0, 7.0, flat_cost(0.5, 1e6));
  sim::VirtualClock clock;
  EXPECT_DOUBLE_EQ(s.wait(clock), 6.0);
  EXPECT_DOUBLE_EQ(r.wait(clock).completion, 7.5);
}

TEST(Endpoint, PostedReceiveGetsDataWhenSendArrives) {
  for (const bool rendezvous : {false, true}) {
    SCOPED_TRACE(rendezvous ? "rendezvous" : "eager");
    Endpoint ep(1);
    std::vector<int> out(16, -1);
    PendingRecv r = ep.post_recv(0, 3, 8, out.data(), out.size() * sizeof(int),
                                 4.0, flat_cost(1.0, 1e6));
    EXPECT_EQ(ep.pending_recv_count(), 1u);

    std::vector<int> data(16);
    std::iota(data.begin(), data.end(), 100);
    const SendPolicy policy{.rendezvous = rendezvous, .eager_complete_us = 2.0};
    PendingSend s = ep.deliver(0, 3, 8, data.data(), data.size() * sizeof(int),
                               6.0, policy);
    // The match closed inside deliver: nothing was queued as unexpected.
    EXPECT_EQ(ep.pending_recv_count(), 0u);
    EXPECT_EQ(ep.unexpected_count(), 0u);

    sim::VirtualClock sc;
    sim::VirtualClock rc;
    const RecvResult res = r.wait(rc);
    EXPECT_EQ(out, data);
    EXPECT_EQ(res.bytes, data.size() * sizeof(int));
    EXPECT_EQ(res.src, 0);
    EXPECT_EQ(res.tag, 3);
    // base = max(6, 4) = 6; cost = 1 + 64 B / 1e6 MB/s.
    EXPECT_NEAR(res.completion, 7.0, 1e-4);
    EXPECT_DOUBLE_EQ(s.wait(sc), rendezvous ? res.completion : 8.0);
    EXPECT_FALSE(s.valid());
    EXPECT_FALSE(r.valid());
  }
}

TEST(Endpoint, UnexpectedSendSnapshotsPayload) {
  // A sender may reuse its buffer as soon as deliver returns, before waiting:
  // the receiver must see the bytes as they were at deliver.
  for (const bool rendezvous : {false, true}) {
    SCOPED_TRACE(rendezvous ? "rendezvous" : "eager");
    Endpoint ep(1);
    std::vector<char> data(4096, 'a');
    const SendPolicy policy{.rendezvous = rendezvous, .eager_complete_us = 0.0};
    PendingSend s = ep.deliver(0, 0, 2, data.data(), data.size(), 0.0, policy);
    EXPECT_EQ(ep.unexpected_count(), 1u);
    std::fill(data.begin(), data.end(), 'z');

    std::vector<char> out(data.size());
    PendingRecv r = ep.post_recv(0, 0, 2, out.data(), out.size(), 0.0,
                                 flat_cost(0, 1e6));
    sim::VirtualClock clock;
    r.wait(clock);
    s.wait(clock);
    EXPECT_EQ(std::count(out.begin(), out.end(), 'a'),
              static_cast<std::ptrdiff_t>(out.size()));
  }
}

TEST(Endpoint, TruncationReachesBothSidesInEitherOrder) {
  for (const bool rendezvous : {false, true}) {
    for (const bool recv_first : {false, true}) {
      SCOPED_TRACE(std::string(rendezvous ? "rendezvous" : "eager") +
                   (recv_first ? ", receive posted first" : ", send first"));
      Endpoint ep(0);
      std::vector<char> big(64, 'x');
      char small[8];
      const SendPolicy policy{.rendezvous = rendezvous, .eager_complete_us = 1.5};
      PendingRecv r;
      PendingSend s;
      if (recv_first) {
        r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
        s = ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, policy);
      } else {
        s = ep.deliver(1, 0, 3, big.data(), big.size(), 0.0, policy);
        r = ep.post_recv(1, 0, 3, small, sizeof(small), 0.0, flat_cost(0, 1));
      }
      sim::VirtualClock clock;
      EXPECT_THROW(r.wait(clock), Error);
      if (rendezvous) {
        EXPECT_THROW(s.wait(clock), Error);
      } else {
        // An eager sender completed at post time and never learns of it.
        EXPECT_DOUBLE_EQ(s.wait(clock), 1.5);
      }
      EXPECT_EQ(ep.unexpected_count(), 0u);
      EXPECT_EQ(ep.pending_recv_count(), 0u);
    }
  }
}

TEST(World, WildcardReceivesKeepFifoPerSourceTagChannel) {
  // Every rank streams messages to every peer over two channels and three
  // tags, mixing eager and rendezvous, and reuses one send buffer (so the
  // snapshot is exercised too). Each rank receives with wildcard source and
  // tag, keeping a window of receives in flight. Receives on a channel match
  // in posting order, so per (src, tag, channel) the sequence numbers must
  // arrive as 0, 1, 2, ...
  constexpr int kRanks = 4;
  constexpr int kIters = 300;
  constexpr std::size_t kWindow = 8;
  constexpr ChannelId kChannels[2] = {41, 42};
  struct Msg {
    int src, tag, ch, seq;
    unsigned char fill[48];
  };
  World world(WorldConfig{sim::thetagpu(), 1, kRanks, {}, {}});
  world.run([&](RankContext& ctx) {
    const int me = ctx.rank();
    auto& clock = ctx.clock();
    // next_seq[src][tag][ch]: the next sequence number expected.
    int next_seq[kRanks][3][2] = {};
    int sent_seq[kRanks][3][2] = {};
    std::vector<PendingSend> sends;
    struct Slot {
      PendingRecv handle;
      Msg msg;
    };
    std::deque<Slot> window;
    auto drain_one = [&] {
      Slot& slot = window.front();
      const RecvResult res = slot.handle.wait(clock);
      const Msg& m = slot.msg;
      ASSERT_EQ(res.bytes, sizeof(Msg));
      ASSERT_EQ(m.src, res.src);
      ASSERT_EQ(m.tag, res.tag);
      ASSERT_EQ(m.fill[47], static_cast<unsigned char>(m.seq));
      EXPECT_EQ(m.seq, next_seq[m.src][m.tag][m.ch]++)
          << "rank " << me << " from " << m.src << " tag " << m.tag << " ch "
          << m.ch;
      window.pop_front();
    };
    Msg out{};
    for (int i = 0; i < kIters; ++i) {
      const int ch = i % 2;
      const int tag = i % 3;
      const SendPolicy policy{.rendezvous = i % 4 == 0, .eager_complete_us = 0.0};
      for (int peer = 0; peer < kRanks; ++peer) {
        if (peer == me) continue;
        out.src = me;
        out.tag = tag;
        out.ch = ch;
        out.seq = sent_seq[peer][tag][ch]++;
        std::memset(out.fill, out.seq & 0xff, sizeof(out.fill));
        sends.push_back(ctx.endpoint_of(peer).deliver(
            me, tag, kChannels[ch], &out, sizeof(out), clock.now(), policy));
      }
      for (int k = 0; k < kRanks - 1; ++k) {
        if (window.size() == kWindow) drain_one();
        window.emplace_back();
        window.back().handle = ctx.endpoint().post_recv(
            kAnySource, kAnyTag, kChannels[ch], &window.back().msg, sizeof(Msg),
            clock.now(), flat_cost(0.1, 1e4));
      }
    }
    while (!window.empty()) drain_one();
    for (auto& s : sends) s.wait(clock);
    for (int src = 0; src < kRanks; ++src) {
      if (src == me) continue;
      int total = 0;
      for (auto& per_tag : next_seq[src]) total += per_tag[0] + per_tag[1];
      EXPECT_EQ(total, kIters) << "rank " << me << " from " << src;
    }
    EXPECT_EQ(ctx.endpoint().unexpected_count(), 0u);
    EXPECT_EQ(ctx.endpoint().pending_recv_count(), 0u);
  });
}

TEST(World, RunsAllRanksAndPropagatesExceptions) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 1, 4});
  std::atomic<int> count{0};
  world.run([&](RankContext& ctx) {
    count.fetch_add(1 + ctx.rank());
    EXPECT_EQ(ctx.size(), 4);
    EXPECT_EQ(&ctx.device(), &ctx.world().device(ctx.rank()));
  });
  EXPECT_EQ(count.load(), 1 + 2 + 3 + 4);

  EXPECT_THROW(world.run([](RankContext& ctx) {
                 if (ctx.rank() == 2) throw Error("rank 2 exploded");
               }),
               Error);
}

TEST(World, CrossThreadMessagePassing) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 1, 2});
  world.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      const double x = 3.25;
      ctx.clock().advance(10.0);
      SendPolicy rndv{.rendezvous = true};
      auto s = ctx.endpoint_of(1).deliver(0, 0, 77, &x, sizeof(x),
                                          ctx.clock().now(), rndv);
      s.wait(ctx.clock());
      EXPECT_GE(ctx.clock().now(), 10.0);
    } else {
      double out = 0.0;
      auto r = ctx.endpoint().post_recv(0, 0, 77, &out, sizeof(out),
                                        ctx.clock().now(), flat_cost(2.0, 1e6));
      const RecvResult res = r.wait(ctx.clock());
      EXPECT_EQ(out, 3.25);
      // Sender was at t=10; receiver at 0 -> completion >= 12.
      EXPECT_GE(res.completion, 12.0);
    }
  });
}

TEST(World, SyncClocksAlignsToMax) {
  sim::SystemProfile prof = sim::mri();
  World world(WorldConfig{prof, 1, 4});
  world.run([&](RankContext& ctx) {
    ctx.clock().advance(10.0 * (ctx.rank() + 1));
    ctx.sync_clocks();
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 40.0);
  });
}

TEST(World, ResetTimeClearsClocks) {
  sim::SystemProfile prof = sim::mri();
  World world(WorldConfig{prof, 1, 2});
  world.run([&](RankContext& ctx) { ctx.clock().advance(5.0); });
  world.reset_time();
  world.run([&](RankContext& ctx) { EXPECT_DOUBLE_EQ(ctx.clock().now(), 0.0); });
}

TEST(World, TopologySpansNodes) {
  sim::SystemProfile prof = sim::thetagpu();
  World world(WorldConfig{prof, 2, 0});  // 0 -> profile default (8/node)
  EXPECT_EQ(world.size(), 16);
  EXPECT_TRUE(world.topology().same_node(0, 7));
  EXPECT_FALSE(world.topology().same_node(7, 8));
}

TEST(DeriveChannel, DeterministicAndDistinct) {
  const ChannelId a = derive_channel(1, 1);
  const ChannelId b = derive_channel(1, 1);
  const ChannelId c = derive_channel(1, 2);
  const ChannelId d = derive_channel(2, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

}  // namespace
}  // namespace mpixccl::fabric
