// Tests for the persistent-collective plan layer: the PlanCache data
// structure (hit/miss byte bands, LRU eviction, invalidation), the XcclMpi
// integration (one-shot dispatch populating and hitting the cache, tuning
// reload invalidation, reset_stats hygiene), and bit-identical results and
// routing decisions across the blocking, nonblocking and persistent
// flavours, out-of-place and in-place, on all three engines and several
// topologies.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "obs/analyze.hpp"
#include "sim/profiles.hpp"

namespace mpixccl::core {
namespace {

void with_runtime(const sim::SystemProfile& prof, int nodes,
                  XcclMpiOptions options,
                  const std::function<void(XcclMpi&)>& body, int dpn = 0) {
  fabric::World world(fabric::WorldConfig{prof, nodes, dpn});
  world.run([&](fabric::RankContext& ctx) {
    XcclMpi rt(ctx, options);
    body(rt);
  });
}

PlanKey key_of(CollOp op, std::size_t bytes, std::uint64_t comm_uid = 1) {
  return PlanKey{op, DataType::Float32, ReduceOp::Sum, true,
                 plan_size_class(bytes), comm_uid};
}

std::shared_ptr<Plan> make_plan(PlanKey key, std::uint64_t id,
                                std::size_t min_b = 0,
                                std::size_t max_b = SIZE_MAX) {
  auto p = std::make_shared<Plan>();
  p->key = key;
  p->id = id;
  p->min_bytes = min_b;
  p->max_bytes = max_b;
  return p;
}

/// The three-engine tuning table every integration test routes through.
/// The other plan-backed ops switch engines at smaller sizes so their
/// per-rank blocks stay small on 16-rank worlds.
TuningTable three_engine_table() {
  TuningTable t;
  t.set_rules(CollOp::Allreduce, {{16384, Engine::Mpi},
                                  {1u << 20, Engine::Hier},
                                  {SIZE_MAX, Engine::Xccl}});
  for (const CollOp op : {CollOp::Bcast, CollOp::Reduce, CollOp::Allgather,
                          CollOp::ReduceScatter}) {
    t.set_rules(op, {{1024, Engine::Mpi},
                     {16384, Engine::Hier},
                     {SIZE_MAX, Engine::Xccl}});
  }
  return t;
}

// ---- PlanCache unit tests ---------------------------------------------------

TEST(PlanCacheUnit, HitBumpsCountersMissOnUnknownKey) {
  PlanCache cache;
  const PlanKey k = key_of(CollOp::Allreduce, 4096);
  cache.insert(make_plan(k, 1));
  auto hit = cache.find(k, 4096);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  EXPECT_EQ(hit->hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  EXPECT_EQ(cache.find(key_of(CollOp::Bcast, 4096), 4096), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheUnit, ByteBandMismatchIsMiss) {
  // Two sizes can share a size class while straddling a tuning breakpoint;
  // a cached plan only serves bytes inside the rule band it was built from.
  PlanCache cache;
  const PlanKey k = key_of(CollOp::Allreduce, 12000);
  cache.insert(make_plan(k, 7, /*min_b=*/0, /*max_b=*/10000));
  EXPECT_NE(cache.find(k, 9000), nullptr);
  EXPECT_EQ(cache.find(k, 12000), nullptr);  // same class, out of band
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheUnit, LruEvictsOldestAndHitRefreshes) {
  PlanCache cache(/*capacity=*/2);
  const PlanKey a = key_of(CollOp::Allreduce, 64);
  const PlanKey b = key_of(CollOp::Allreduce, 4096);
  const PlanKey c = key_of(CollOp::Allreduce, 1u << 20);
  cache.insert(make_plan(a, 1));
  cache.insert(make_plan(b, 2));
  ASSERT_NE(cache.find(a, 64), nullptr);  // refresh a: b is now LRU
  EXPECT_EQ(cache.insert(make_plan(c, 3)), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(b, 4096), nullptr);  // b was evicted
  EXPECT_NE(cache.find(a, 64), nullptr);
  EXPECT_NE(cache.find(c, 1u << 20), nullptr);
}

TEST(PlanCacheUnit, InsertReplacesSameKeyWithoutEvictionTick) {
  PlanCache cache(2);
  const PlanKey k = key_of(CollOp::Allreduce, 4096);
  cache.insert(make_plan(k, 1));
  EXPECT_EQ(cache.insert(make_plan(k, 2)), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.find(k, 4096)->id, 2u);
}

TEST(PlanCacheUnit, InvalidateAllEmptiesAndCounts) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 64), 1));
  cache.insert(make_plan(key_of(CollOp::Bcast, 64), 2));
  EXPECT_EQ(cache.invalidate_all(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_TRUE(cache.live_ids().empty());
}

TEST(PlanCacheUnit, InvalidateIfDropsOnlyMatchingPlans) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 64), 1, 0, 16384));
  cache.insert(make_plan(key_of(CollOp::Allreduce, 1 << 20), 2, 16385, SIZE_MAX));
  cache.insert(make_plan(key_of(CollOp::Bcast, 64), 3, 0, 16384));
  const std::size_t dropped = cache.invalidate_if([](const Plan& p) {
    return p.key.op == CollOp::Allreduce && p.max_bytes <= 16384;
  });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The survivors still serve.
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 1 << 20), 1 << 20), nullptr);
  EXPECT_NE(cache.find(key_of(CollOp::Bcast, 64), 64), nullptr);
  EXPECT_EQ(cache.find(key_of(CollOp::Allreduce, 64), 64), nullptr);
  // A predicate matching nothing drops nothing.
  EXPECT_EQ(cache.invalidate_if([](const Plan&) { return false; }), 0u);
}

TEST(PlanCacheUnit, ShrinkingCapacityEvictsTail) {
  PlanCache cache;
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(make_plan(key_of(CollOp::Allreduce, 64u << i), i + 1));
  }
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // Newest two survive.
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 64u << 3), 64u << 3), nullptr);
  EXPECT_NE(cache.find(key_of(CollOp::Allreduce, 64u << 2), 64u << 2), nullptr);
}

TEST(PlanCacheUnit, ReportListsPlansAndCounters) {
  PlanCache cache;
  cache.insert(make_plan(key_of(CollOp::Allreduce, 4096), 42));
  cache.find(key_of(CollOp::Allreduce, 4096), 4096);
  const std::string r = cache.report();
  EXPECT_NE(r.find("allreduce"), std::string::npos);
  EXPECT_NE(r.find("42"), std::string::npos);
  EXPECT_NE(r.find("hits 1"), std::string::npos);
}

// ---- Flight-recorder purge --------------------------------------------------

TEST(FlightPurge, DropsDeadPlanRecordsForRankOnly) {
  auto& fr = obs::FlightRecorder::instance();
  fr.clear();
  auto rec = [&](int rank, std::uint64_t plan_id, double dur) {
    obs::FlightRecord r;
    r.rank = rank;
    r.plan_id = plan_id;
    r.begin_us = 0.0;
    r.end_us = dur;
    fr.record(r);
  };
  rec(0, 10, 100.0);  // dead plan, rank 0 -> purged
  rec(0, 11, 90.0);   // live plan, rank 0 -> kept
  rec(0, 0, 80.0);    // planless, rank 0 -> kept
  rec(1, 10, 70.0);   // other rank -> kept even though plan 10 is dead
  EXPECT_EQ(fr.purge_plan_records(0, {11}), 1u);
  const auto records = fr.records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_FALSE(r.rank == 0 && r.plan_id == 10);
  }
  fr.clear();
}

// ---- XcclMpi integration ----------------------------------------------------

TEST(PlanRuntime, OneShotPopulatesAndHitsCache) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, 1u << 20);
    device::DeviceBuffer recv(dev, 1u << 20);
    auto ar = [&](std::size_t floats) {
      rt.allreduce(send.get(), recv.get(), floats, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
    };
    ar(64);   // 256 bytes: build (miss)
    ar(64);   // replay (hit)
    ar(100);  // 400 bytes, same log2 class as 256 -> hit
    ar(1 << 18);  // new size class -> miss
    const auto& st = rt.plan_cache().stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(rt.plan_cache().size(), 2u);

    // A persistent init for a cached tuple reuses the compiled plan.
    Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), 64,
                                     mini::kFloat, ReduceOp::Sum,
                                     rt.comm_world());
    EXPECT_TRUE(h.valid());
    EXPECT_EQ(rt.plan_cache().stats().hits, 3u);
    h.free();
    EXPECT_FALSE(h.valid());
  });
}

TEST(PlanRuntime, TuningReloadInvalidatesPlans) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 1u << 20);
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    ASSERT_EQ(rt.plan_cache().size(), 1u);

    rt.set_tuning(three_engine_table());
    EXPECT_EQ(rt.plan_cache().size(), 0u);
    EXPECT_EQ(rt.plan_cache().stats().invalidations, 1u);

    // The next call rebuilds under the new table.
    rt.allreduce(buf.get(), buf.get(), 64, mini::kFloat, ReduceOp::Sum,
                 rt.comm_world());
    EXPECT_EQ(rt.plan_cache().size(), 1u);
    EXPECT_EQ(rt.plan_cache().stats().misses, 2u);

    // Mode changes invalidate too.
    rt.set_mode(Mode::PureXccl);
    EXPECT_EQ(rt.plan_cache().size(), 0u);
  });
}

TEST(PlanRuntime, ResetStatsClearsPlanCountersAndPurgesFlightRecords) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    obs::FlightRecorder::instance().clear();
    auto& dev = rt.context().device();
    device::DeviceBuffer buf(dev, 1u << 20);
    for (int i = 0; i < 3; ++i) {
      rt.allreduce(buf.get(), buf.get(), 1 << 18, mini::kFloat, ReduceOp::Sum,
                   rt.comm_world());
    }
    ASSERT_GT(rt.plan_cache().stats().misses, 0u);

    // Free every plan, then reset: the counters must zero and this rank's
    // flight records referencing the freed plans must disappear (they can
    // no longer join against a cache entry).
    rt.invalidate_plans();
    rt.reset_stats();
    const auto& st = rt.plan_cache().stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.invalidations, 0u);
    for (const auto& r : obs::FlightRecorder::instance().records()) {
      EXPECT_FALSE(r.rank == rt.rank() && r.plan_id != 0)
          << "stale flight record for freed plan " << r.plan_id;
    }
  });
}

TEST(PlanRuntime, StartWaitLifecycleIsEnforced) {
  with_runtime(sim::thetagpu(), 1, {}, [](XcclMpi& rt) {
    auto& dev = rt.context().device();
    device::DeviceBuffer send(dev, 4096), recv(dev, 4096);
    Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(), 64,
                                     mini::kFloat, ReduceOp::Sum,
                                     rt.comm_world());
    EXPECT_THROW(h.wait(), Error);  // wait before start
    h.start();
    EXPECT_TRUE(h.active());
    EXPECT_THROW(h.start(), Error);  // overlapping start on one handle
    EXPECT_THROW(h.free(), Error);   // free while in flight
    h.wait();
    EXPECT_FALSE(h.active());
    h.free();
    h.free();  // safe to call twice
  });
}

// ---- Flavour equivalence: blocking, i* + wait, persistent ------------------

enum class Way { Blocking, Nonblocking, Persistent };

/// Issues one collective in flavour `w`: the blocking call, the i* request
/// waited, or a fresh persistent handle started and waited (twice when
/// `replays` is 2: a reused handle must reproduce the same bytes).
template <class Blocking, class Nonblocking, class Init>
void issue(XcclMpi& rt, Way w, Blocking blocking, Nonblocking nonblocking,
           Init init, int replays = 1) {
  switch (w) {
    case Way::Blocking:
      blocking();
      return;
    case Way::Nonblocking: {
      mini::Request req = nonblocking();
      rt.wait(req);
      return;
    }
    case Way::Persistent: {
      Persistent h = init();
      for (int i = 0; i < replays; ++i) {
        h.start();
        h.wait();
      }
      return;
    }
  }
}

/// Runs `call` once per flavour, each into a fresh device buffer holding
/// `init` (the in-place input, or zeros), and expects every flavour's bytes
/// and routing decision to match the blocking call's.
void expect_flavours_agree(XcclMpi& rt, const std::string& what,
                           const std::vector<float>& init, bool has_i,
                           const std::function<void(Way, float*)>& call) {
  const std::size_t bytes = init.size() * sizeof(float);
  std::vector<float> ref(init.size());
  obs::DispatchDecision first;
  for (const Way w : {Way::Blocking, Way::Nonblocking, Way::Persistent}) {
    if (w == Way::Nonblocking && !has_i) continue;
    device::DeviceBuffer out(rt.context().device(), bytes);
    std::memcpy(out.get(), init.data(), bytes);
    call(w, out.as<float>());
    const obs::DispatchDecision& d = rt.last_decision();
    if (w == Way::Blocking) {
      std::memcpy(ref.data(), out.get(), bytes);
      first = d;
      continue;
    }
    const std::string where =
        what + " flavour " + std::to_string(static_cast<int>(w));
    EXPECT_EQ(std::memcmp(out.get(), ref.data(), bytes), 0) << where;
    EXPECT_EQ(d.engine, first.engine) << where;
    EXPECT_EQ(d.reason, first.reason) << where;
    EXPECT_EQ(d.fell_back, first.fell_back) << where;
    EXPECT_EQ(d.composed, first.composed) << where;
    EXPECT_EQ(d.level_path, first.level_path) << where;
  }
}

/// Runs every plan-backed collective in every flavour, out-of-place and
/// in-place, at one size per engine of the three-engine table (hier
/// degrades to its fallback on single-node worlds and still must agree).
void check_equivalence(const sim::SystemProfile& prof, int nodes, int dpn) {
  with_runtime(
      prof, nodes, {.tuning = three_engine_table()},
      [](XcclMpi& rt) {
        auto& comm = rt.comm_world();
        const int rank = rt.rank();
        const auto p = static_cast<std::size_t>(rt.size());
        const mini::Datatype f = mini::kFloat;
        const auto none = [] { return mini::Request{}; };
        // Rank-dependent input of n floats (small integers: exact sums).
        const auto input = [&](std::size_t n) {
          std::vector<float> v(n);
          for (std::size_t i = 0; i < n; ++i) {
            v[i] = static_cast<float>(rank + 1) + static_cast<float>(i % 17);
          }
          return v;
        };

        for (const std::size_t n :
             {std::size_t{1024}, std::size_t{65536}, std::size_t{1u << 20}}) {
          const std::string at = " at " + std::to_string(n) + " floats";
          device::DeviceBuffer src(rt.context().device(), n * sizeof(float));
          const std::vector<float> in = input(n);
          std::memcpy(src.get(), in.data(), n * sizeof(float));
          for (const bool inplace : {false, true}) {
            const void* s = inplace ? mini::kInPlace : src.get();
            expect_flavours_agree(
                rt, (inplace ? "in-place allreduce" : "allreduce") + at,
                inplace ? in : std::vector<float>(n), true,
                [&](Way w, float* out) {
                  issue(
                      rt, w,
                      [&] { rt.allreduce(s, out, n, f, ReduceOp::Sum, comm); },
                      [&] {
                        return rt.iallreduce(s, out, n, f, ReduceOp::Sum, comm);
                      },
                      [&] {
                        return rt.allreduce_init(s, out, n, f, ReduceOp::Sum,
                                                 comm);
                      },
                      inplace ? 1 : 2);
                });
          }
        }

        // The other four at one size per engine: MPI, hier, xCCL.
        for (const std::size_t n :
             {std::size_t{64}, std::size_t{1024}, std::size_t{8192}}) {
          const std::string at = " at " + std::to_string(n) + " floats";
          const std::vector<float> in = input(n);
          device::DeviceBuffer src(rt.context().device(),
                                   n * p * sizeof(float));
          for (std::size_t b = 0; b < p; ++b) {
            std::memcpy(src.as<float>() + b * n, in.data(), n * sizeof(float));
          }

          expect_flavours_agree(
              rt, "bcast" + at, in, true, [&](Way w, float* out) {
                issue(
                    rt, w, [&] { rt.bcast(out, n, f, 0, comm); },
                    [&] { return rt.ibcast(out, n, f, 0, comm); },
                    [&] { return rt.bcast_init(out, n, f, 0, comm); });
              });

          for (const bool inplace : {false, true}) {
            const std::string tag = inplace ? "in-place " : "";
            // In-place reduce: only the root passes MPI_IN_PLACE; the
            // others still send from src.
            const bool root_inplace = inplace && rank == 0;
            expect_flavours_agree(
                rt, tag + "reduce" + at,
                inplace ? in : std::vector<float>(n), true,
                [&](Way w, float* out) {
                  const void* s = root_inplace ? mini::kInPlace : src.get();
                  issue(
                      rt, w,
                      [&] {
                        rt.reduce(s, out, n, f, ReduceOp::Max, 0, comm);
                      },
                      [&] {
                        return rt.ireduce(s, out, n, f, ReduceOp::Max, 0, comm);
                      },
                      [&] {
                        return rt.reduce_init(s, out, n, f, ReduceOp::Max, 0,
                                              comm);
                      });
                });

            // In-place allgather: this rank's block already sits at its
            // slot of the receive buffer.
            std::vector<float> gathered(n * p);
            if (inplace) {
              std::memcpy(gathered.data() + n * static_cast<std::size_t>(rank),
                          in.data(), n * sizeof(float));
            }
            const void* gs = inplace ? mini::kInPlace : src.get();
            expect_flavours_agree(
                rt, tag + "allgather" + at, gathered, true,
                [&](Way w, float* out) {
                  issue(
                      rt, w,
                      [&] { rt.allgather(gs, n, f, out, n, f, comm); },
                      [&] { return rt.iallgather(gs, n, f, out, n, f, comm); },
                      [&] {
                        return rt.allgather_init(gs, n, f, out, n, f, comm);
                      });
                });
          }

          expect_flavours_agree(
              rt, "reduce_scatter" + at, std::vector<float>(n), false,
              [&](Way w, float* out) {
                issue(
                    rt, w,
                    [&] {
                      rt.reduce_scatter_block(src.get(), out, n, f,
                                              ReduceOp::Sum, comm);
                    },
                    none,
                    [&] {
                      return rt.reduce_scatter_init(src.get(), out, n, f,
                                                    ReduceOp::Sum, comm);
                    });
              });
          // Reduce-scatter has no in-place form: every flavour rejects it
          // before any engine sees the sentinel.
          EXPECT_THROW(rt.reduce_scatter_block(mini::kInPlace, src.get(), n, f,
                                               ReduceOp::Sum, comm),
                       Error);
          EXPECT_THROW(rt.reduce_scatter_init(mini::kInPlace, src.get(), n, f,
                                              ReduceOp::Sum, comm),
                       Error);
        }
      },
      dpn);
}

TEST(PersistentEquivalence, OneNodeEightDevices) {
  check_equivalence(sim::thetagpu(), 1, 8);
}

TEST(PersistentEquivalence, TwoNodesFourDevices) {
  check_equivalence(sim::thetagpu(), 2, 4);
}

TEST(PersistentEquivalence, FourNodesFourDevices) {
  check_equivalence(sim::thetagpu(), 4, 4);
}

TEST(PersistentEquivalence, EnginesMatchTheTable) {
  // On a hier-capable topology the three allreduce size classes compile to
  // the three engines, and the persistent handles expose which.
  with_runtime(
      sim::thetagpu(), 2, {.tuning = three_engine_table()},
      [](XcclMpi& rt) {
        auto& dev = rt.context().device();
        device::DeviceBuffer send(dev, 4u << 20);
        device::DeviceBuffer recv(dev, 4u << 20);
        auto engine_at = [&](std::size_t floats) {
          Persistent h = rt.allreduce_init(send.as<float>(), recv.as<float>(),
                                           floats, mini::kFloat, ReduceOp::Sum,
                                           rt.comm_world());
          return h.plan().pick.engine;
        };
        EXPECT_EQ(engine_at(1024), Engine::Mpi);
        EXPECT_EQ(engine_at(65536), Engine::Hier);
        EXPECT_EQ(engine_at(1u << 20), Engine::Xccl);
      },
      2);
}

}  // namespace
}  // namespace mpixccl::core
