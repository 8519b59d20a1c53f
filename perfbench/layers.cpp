// Per-layer replays for the traced run: the workload's own seeded calls,
// issued directly at each module's public API with spans around every call.

#include <algorithm>

#include "bench.hpp"
#include "common/reduce.hpp"
#include "common/rng.hpp"
#include "device/buffer_registry.hpp"
#include "fabric/message.hpp"

namespace perfbench {

namespace {

constexpr fabric::ChannelId kPingChannel = 0x70657266'62656e63ull;

/// Median of `samples` on rank 0 (other ranks hold none).
double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

class Replay {
 public:
  Replay(fabric::RankContext& ctx, RankBuffers& bufs, SpanLog* log,
         LayerRun& run)
      : ctx_(ctx), bufs_(bufs), log_(log), run_(run) {}

  /// Half round trip of a `bytes` ping-pong between ranks 0 and 1 through
  /// Endpoint::deliver / post_recv / wait, in host us (rank 0's samples).
  std::vector<double> pingpong(std::size_t bytes, double seconds) {
    const Span phase(log_, bytes < 65536 ? "layer.fabric.small" : "layer.fabric.large");
    std::vector<std::byte> sbuf(bytes, std::byte{0x5a});
    std::vector<std::byte> rbuf(bytes);
    const fabric::ChannelId ch = fabric::derive_channel(kPingChannel, bytes);
    const fabric::CostFn cost = [](int, std::size_t b) {
      return 1.0 + 1e-4 * static_cast<double>(b);
    };
    const fabric::SendPolicy policy{bytes >= 65536, 0.5};
    const int me = ctx_.rank();
    std::vector<double> samples;
    run_.gate.arm(ctx_, seconds);
    std::uint64_t tick = 0;
    std::uint64_t id = 0;
    while (run_.gate.next(ctx_, tick)) {
      auto& clock = ctx_.clock();
      if (me == 0) {
        const double h0 = now_s();
        {
          const Span s(log_, "fabric.pingpong", id++);
          auto send = ctx_.endpoint_of(1).deliver(0, 0, ch, sbuf.data(), bytes,
                                                  clock.now(), policy);
          auto recv = ctx_.endpoint().post_recv(1, 0, ch, rbuf.data(), bytes,
                                                clock.now(), cost);
          send.wait(clock);
          recv.wait(clock);
        }
        samples.push_back((now_s() - h0) * 1e6 / 2);
      } else if (me == 1) {
        auto recv = ctx_.endpoint().post_recv(0, 0, ch, rbuf.data(), bytes,
                                              clock.now(), cost);
        recv.wait(clock);
        auto send = ctx_.endpoint_of(0).deliver(1, 0, ch, rbuf.data(), bytes,
                                                clock.now(), policy);
        send.wait(clock);
      }
    }
    if (me == 0 || me == 1) tally(tick > 1 && rbuf == sbuf);
    return samples;
  }

  /// Cycle through `calls` for `seconds`, taking body's sample (host us)
  /// per call on rank 0 and checking the result it leaves; `skip` filters
  /// calls the layer cannot serve (decided identically on every rank).
  template <typename Skip, typename Body>
  std::vector<double> cycle(const char* phase_name, double seconds,
                            const std::vector<Call>& calls, Skip skip, Body body) {
    const Span phase(log_, phase_name);
    std::vector<double> samples;
    run_.gate.arm(ctx_, seconds);
    std::uint64_t tick = 0;
    if (std::all_of(calls.begin(), calls.end(), skip)) return samples;
    for (std::size_t k = 0;; ++k) {
      const Call& c = calls[k % calls.size()];
      if (skip(c)) continue;
      bufs_.prepare(c);
      if (!run_.gate.next(ctx_, tick)) break;
      const double us = body(c, k);
      tally(bufs_.check(c));
      if (ctx_.rank() == 0) samples.push_back(us);
    }
    return samples;
  }

  /// Time `fn` on this rank, inside a span named `name`; host us.
  template <typename Fn>
  double time(const char* name, std::uint64_t id, Fn&& fn) {
    const double h0 = now_s();
    {
      const Span s(log_, name, id);
      fn();
    }
    return (now_s() - h0) * 1e6;
  }

  void tally(bool ok) {
    run_.attempted.fetch_add(1);
    if (!ok) run_.failed.fetch_add(1);
  }

  fabric::RankContext& ctx_;
  RankBuffers& bufs_;
  SpanLog* log_;
  LayerRun& run_;
};

}  // namespace

void measure_layers(fabric::RankContext& ctx, core::XcclMpi& rt,
                    std::vector<core::Persistent>& handles, RankBuffers& bufs,
                    const Workload& wl, double budget_s, SpanLog* log,
                    LayerRun& run) {
  Replay r(ctx, bufs, log, run);
  LayerFigures& f = run.fig;
  const bool rank0 = ctx.rank() == 0;
  const double slice = budget_s / 9;
  auto none = [](const Call&) { return false; };

  // fabric: one message each way per sample.
  {
    const auto small = r.pingpong(4096, slice);
    const auto large = r.pingpong(1 << 20, slice);
    if (rank0) {
      f.fabric_msg_us = median(small);
      f.fabric_copy_MBps = static_cast<double>(1 << 20) / median(large);
    }
  }

  // mpi: the same calls on mini::Mpi, no dispatch layer above it.
  {
    const auto s =
        r.cycle("layer.mpi", slice, wl.calls, none, [&](const Call& c, std::size_t k) {
          return r.time("mpi.call", k,
                        [&] { run_call(rt.mpi(), c, bufs, rt.comm_world()); });
        });
    if (rank0) f.mpi_call_us = median(s);
  }

  // xccl: a separate backend instance and communicator on its own channel.
  const xccl::CclKind kind = xccl::native_ccl(ctx.profile().vendor);
  std::unique_ptr<xccl::CclBackend> be =
      xccl::make_backend(kind, ctx, ctx.profile().ccl);
  xccl::CclComm cc;
  throw_if_error(be->comm_init_rank(cc, ctx.size(),
                                    xccl::UniqueId::derive(0x9e7fb, wl.calls.size()),
                                    ctx.rank()),
                 "perfbench ccl init");
  {
    const auto s = r.cycle(
        "layer.xccl", slice, wl.calls, [](const Call& c) { return c.cplx; },
        [&](const Call& c, std::size_t k) {
          return r.time("xccl.call", k, [&] { run_xccl(*be, cc, c, bufs, ctx); });
        });
    if (rank0) f.xccl_call_us = median(s);
  }

  // hier: the runtime's engine through a prepared chain; the prepare cost
  // on fresh communicators is its own figure.
  hier::HierEngine& he = rt.hier();
  hier::HierEngine::HierComms& hc = he.prepare(rt.comm_world());
  {
    const auto s = r.cycle(
        "layer.hier", slice, wl.calls,
        [&](const Call& c) { return c.cplx || c.op == Op::Alltoall || !hc.usable; },
        [&](const Call& c, std::size_t k) {
          return r.time("hier.call", k, [&] {
            if (!run_hier(he, hc, c, bufs, rt.comm_world())) {
              throw Error("hier engine declined an eligible call");
            }
          });
        });
    if (rank0) f.hier_call_us = median(s);
  }
  {
    const Span phase(log, "layer.hier.prepare");
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      mini::Comm dup = rt.mpi().dup(rt.comm_world());
      ctx.sync_clocks();
      ms.push_back(r.time("hier.prepare", static_cast<std::uint64_t>(i),
                          [&] { (void)he.prepare(dup); }) /
                   1e3);
    }
    if (rank0) f.hier_prepare_ms = median(ms);
  }

  // core: each dispatched call paired with the same call issued straight to
  // the engine it picked; the difference is the dispatch layer's cost.
  {
    const auto diff = r.cycle(
        "layer.core.dispatch", slice, wl.calls,
        [](const Call& c) { return c.handle >= 0; },
        [&](const Call& c, std::size_t k) {
          const double via_core = r.time("core.dispatch", k, [&] {
            run_call(rt, c, bufs, rt.comm_world());
          });
          r.tally(bufs.check(c));
          const core::Engine engine = rt.last_dispatch().engine;
          bufs.prepare(c);
          ctx.sync_clocks();
          return via_core - r.time("core.engine_direct", k, [&] {
            bool served = false;
            if (engine == core::Engine::Xccl) {
              served = run_xccl(*be, cc, c, bufs, ctx);
            } else if (engine == core::Engine::Hier) {
              served = run_hier(he, hc, c, bufs, rt.comm_world());
            }
            if (!served) run_call(rt.mpi(), c, bufs, rt.comm_world());
          });
        });
    if (rank0) f.dispatch_us = median(diff);
  }

  // core: persistent start/wait on the workload's handles.
  {
    const auto s = r.cycle("layer.core.persistent", slice, wl.handles, none,
                           [&](const Call& c, std::size_t k) {
                             return r.time("core.persistent", k, [&] {
                               core::Persistent& h =
                                   handles[static_cast<std::size_t>(c.handle)];
                               h.start();
                               h.wait();
                             });
                           });
    if (rank0) f.persistent_us = median(s);
  }

  // core: routing and plan-cache counts over exactly one pass (they repeat).
  {
    const Span phase(log, "layer.core.pass");
    rt.reset_stats();
    for (std::size_t k = 0; k < wl.calls.size(); ++k) {
      const Call& c = wl.calls[k];
      bufs.prepare(c);
      ctx.sync_clocks();
      if (c.handle >= 0) {
        core::Persistent& h = handles[static_cast<std::size_t>(c.handle)];
        h.start();
        h.wait();
      } else {
        run_call(rt, c, bufs, rt.comm_world());
      }
      r.tally(bufs.check(c));
    }
    if (rank0) {
      const core::PathStats& ps = rt.stats();
      const core::PlanCacheStats& pc = rt.plan_cache().stats();
      f.calls_mpi = ps.mpi_calls;
      f.calls_xccl = ps.xccl_calls;
      f.calls_hier = ps.hier_calls;
      f.fallbacks = ps.fallbacks;
      const double probes = static_cast<double>(pc.hits + pc.misses);
      f.plan_hit_ratio = probes > 0 ? static_cast<double>(pc.hits) / probes : 0.0;
    }
  }

  // common/reduce and device: single-threaded kernels, on rank 0 while the
  // other ranks wait.
  if (rank0) {
    const Span phase(log, "layer.reduce");
    Rng rng(splitmix64(wl.calls.size()) ^ 0x7265647563ull);
    constexpr std::size_t kMax = (4u << 20) / sizeof(float);
    std::vector<float> in(kMax, 1.0f);
    std::vector<float> acc(kMax, 0.0f);
    std::vector<double> mbps;
    const double until = now_s() + slice;
    std::uint64_t id = 0;
    while (now_s() < until || mbps.empty()) {
      const std::size_t count = rng.log_uniform(1u << 20, 4u << 20) / sizeof(float);
      const double us = r.time("reduce.apply", id++, [&] {
        throw_if_error(apply_reduce(DataType::Float32, ReduceOp::Sum, in.data(),
                                    acc.data(), count),
                       "apply_reduce");
      });
      mbps.push_back(static_cast<double>(count * sizeof(float)) / us);
    }
    // Every element was summed at least once, each time adding exactly 1.
    const auto sums = static_cast<float>(mbps.size());
    r.tally(acc[0] == sums && acc[kMax / 4 - 1] == sums);
    f.reduce_MBps = median(mbps);

    const Span phase2(log, "layer.device");
    const auto& reg = device::BufferRegistry::instance();
    const auto* base = static_cast<const std::byte*>(bufs.send_buffer().get());
    const std::size_t span = bufs.send_buffer().size();
    std::vector<double> ns;
    bool classified = true;
    const double until2 = now_s() + slice;
    while (now_s() < until2 || ns.empty()) {
      constexpr int kBatch = 256;
      const double us = r.time("device.classify", id++, [&] {
        for (int i = 0; i < kBatch; ++i) {
          const auto info = reg.lookup(base + rng.below(span));
          classified = classified && info.has_value() && info->device_id == ctx.rank();
        }
      });
      ns.push_back(us * 1e3 / kBatch);
    }
    r.tally(classified);
    f.classify_ns = median(ns);
  }
  ctx.barrier();
}

void add_layer_metrics(Result& r, const LayerFigures& f, double dl_wait_share,
                       double dl_buckets, double trace_overhead) {
  add(r.metrics, "fabric.msg_host_us.p50", "us", f.fabric_msg_us);
  add(r.metrics, "fabric.copy_MBps", "MB/s", f.fabric_copy_MBps);
  add(r.metrics, "mpi.call_host_us.p50", "us", f.mpi_call_us);
  add(r.metrics, "xccl.call_host_us.p50", "us", f.xccl_call_us);
  add(r.metrics, "hier.call_host_us.p50", "us", f.hier_call_us);
  add(r.metrics, "hier.prepare_host_ms", "ms", f.hier_prepare_ms);
  add(r.metrics, "core.dispatch_host_us.p50", "us", f.dispatch_us);
  add(r.metrics, "core.persistent_host_us.p50", "us", f.persistent_us);
  add(r.metrics, "core.plan_hit_ratio", "ratio", f.plan_hit_ratio);
  add(r.metrics, "core.calls.mpi", "count", static_cast<double>(f.calls_mpi));
  add(r.metrics, "core.calls.xccl", "count", static_cast<double>(f.calls_xccl));
  add(r.metrics, "core.calls.hier", "count", static_cast<double>(f.calls_hier));
  add(r.metrics, "core.fallbacks", "count", static_cast<double>(f.fallbacks));
  add(r.metrics, "reduce.host_MBps", "MB/s", f.reduce_MBps);
  add(r.metrics, "device.classify_host_ns", "ns", f.classify_ns);
  add(r.metrics, "dl.comm_wait_share", "ratio", dl_wait_share);
  add(r.metrics, "dl.buckets_per_step", "count", dl_buckets);
  add(r.metrics, "trace.overhead_ratio", "ratio", trace_overhead);
}

}  // namespace perfbench
