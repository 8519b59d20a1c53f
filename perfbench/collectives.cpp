// Workload definitions, input patterns and checks, and the closed loop of the
// two collective workloads (small-mix, large-hier).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dl/horovod.hpp"
#include "dl/model.hpp"

namespace perfbench {

namespace {

using Cplx = std::complex<double>;

/// The seeded input pattern: rank r holds pat(i) + r at float element i and
/// (pat(i) + r, pat(i + 3) - r) at complex element i. Small integers keep
/// every sum exact in any reduction order.
float pat(std::size_t i) {
  return static_cast<float>(static_cast<int>((i * 37 + 11) % 101) - 50);
}

std::size_t send_elems(const Call& c, int n) {
  return (c.op == Op::Alltoall || c.op == Op::ReduceScatter)
             ? c.count * static_cast<std::size_t>(n)
             : c.count;
}

std::size_t recv_elems(const Call& c, int n) {
  return (c.op == Op::Allgather || c.op == Op::Alltoall)
             ? c.count * static_cast<std::size_t>(n)
             : c.count;
}

/// p[j] == mul * pat(base + j) + add for every j < count. pat() has period
/// 101, so the expected values come from one precomputed period.
bool check_f(const float* p, std::size_t count, std::size_t base, float mul,
             float add) {
  constexpr std::size_t kPeriod = 101;
  float want[kPeriod];
  for (std::size_t t = 0; t < kPeriod; ++t) want[t] = mul * pat(base + t) + add;
  for (std::size_t j = 0, t = 0; j < count; ++j) {
    if (p[j] != want[t]) return false;
    if (++t == kPeriod) t = 0;
  }
  return true;
}

constexpr std::uint64_t name_salt(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char ch : s) h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  return h;
}

constexpr std::size_t kPad = 4096;  ///< send-window offsets are below this

core::TuningTable large_hier_table(const sim::SystemProfile& p) {
  // 16 KB - 1 MB to xCCL, >= 1 MB to the hierarchical engine.
  core::TuningTable t = core::TuningTable::default_for(p);
  for (core::CollOp op : {core::CollOp::Allreduce, core::CollOp::Allgather}) {
    t.set_rules(op, {{16383, core::Engine::Mpi},
                     {(std::size_t{1} << 20) - 1, core::Engine::Xccl},
                     {SIZE_MAX, core::Engine::Hier}});
  }
  return t;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::Allreduce: return "allreduce";
    case Op::Bcast: return "bcast";
    case Op::Allgather: return "allgather";
    case Op::Alltoall: return "alltoall";
    case Op::ReduceScatter: return "reduce_scatter_block";
  }
  return "?";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload wl;
  wl.name = name;
  Rng rng(splitmix64(seed) ^ name_salt(name));
  if (name == "small-mix" || name == "large-hier") {
    wl.profile = sim::thetagpu();
    wl.nodes = 2;
    wl.devices_per_node = 2;
  } else if (name == "train-resnet50") {
    wl.profile = sim::mri();
    wl.nodes = 2;
  } else {
    throw Error("unknown workload '" + name +
                "' (small-mix | large-hier | train-resnet50)");
  }
  const int dpn = wl.devices_per_node > 0 ? wl.devices_per_node
                                          : wl.profile.devices_per_node;
  wl.nranks = wl.nodes * dpn;
  const auto n = static_cast<std::size_t>(wl.nranks);

  // Each kind of call gets a fixed share of the pass, with sizes spread
  // evenly over its log range (one per stratum, seeded within it), in a
  // seeded order. A seed changes sizes, windows, roots and order but not the
  // mix, so aggregate figures stay comparable across seeds.
  auto add_kind = [&](Op op, int share, std::size_t lo, std::size_t hi,
                      std::size_t elem, std::size_t per) {
    for (int k = 0; k < share; ++k) {
      Call c;
      c.op = op;
      c.cplx = elem == sizeof(Cplx);
      c.count = std::max<std::size_t>(
          1, rng.log_stratified(lo, hi, k, share) / elem / per);
      c.root = static_cast<int>(rng.below(n));
      c.offset = rng.below(kPad);
      wl.calls.push_back(c);
    }
  };
  auto add_handles = [&](int count, std::size_t lo, std::size_t hi) {
    for (int h = 0; h < count; ++h) {
      wl.handles.push_back(Call{Op::Allreduce, false, h,
                                rng.log_stratified(lo, hi, h, count) / sizeof(float),
                                0, rng.below(kPad)});
    }
  };

  if (name == "small-mix") {
    // Latency-bound: 4 B - 64 KB over five collectives; of the allreduces a
    // quarter are double complex (MPI fallback) and a quarter replay one of
    // 8 persistent handles. 2048 calls leave 20 samples beyond the p99.
    add_handles(8, 4, 65536);
    add_kind(Op::Allreduce, 410, 4, 65536, sizeof(float), 1);
    add_kind(Op::Allreduce, 205, 16, 65536, sizeof(Cplx), 1);
    for (int k = 0; k < 205; ++k) wl.calls.push_back(wl.handles[k % 8]);
    for (Op op : {Op::Bcast, Op::Allgather, Op::Alltoall, Op::ReduceScatter}) {
      add_kind(op, 307, 4, 65536, sizeof(float), 1);
    }
  } else if (name == "large-hier") {
    // Bandwidth-bound: allreduce 256 KB - 4 MB plus allgathers of the same
    // totals, routed 16 KB - 1 MB to xCCL and >= 1 MB to hier. Four
    // persistent shapes serve the layer replay of persistent starts.
    wl.tuning = large_hier_table(wl.profile);
    add_handles(4, 256u << 10, 4u << 20);
    add_kind(Op::Allreduce, 96, 256u << 10, 4u << 20, sizeof(float), 1);
    add_kind(Op::Allgather, 32, 256u << 10, 4u << 20, sizeof(float), n);
  } else {
    // The trainer's fusion buckets (Horovod tensor fusion over the reversed
    // layers), as float allreduces; every bucket also gets a persistent
    // handle, as TrainerConfig::persistent would compile.
    const dl::Model model = dl::Model::resnet50();
    const std::size_t fusion = dl::default_fusion_bytes();
    std::size_t params = 0;
    auto flush = [&] {
      const int h = static_cast<int>(wl.handles.size());
      const Call c{Op::Allreduce, false, -1, params, 0, rng.below(kPad)};
      wl.calls.push_back(c);
      wl.handles.push_back(Call{Op::Allreduce, false, h, params, 0, c.offset});
      params = 0;
    };
    for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
      params += it->params;
      if (params * sizeof(float) >= fusion) flush();
    }
    if (params > 0) flush();
    return wl;  // in the trainer's bucket order
  }
  for (std::size_t i = wl.calls.size(); i > 1; --i) {
    std::swap(wl.calls[i - 1], wl.calls[rng.below(i)]);
  }
  return wl;
}

std::size_t payload_bytes(const Call& c, int nranks) {
  return recv_elems(c, nranks) * (c.cplx ? sizeof(Cplx) : sizeof(float));
}

// ---- RankBuffers ---------------------------------------------------------------

RankBuffers::RankBuffers(fabric::RankContext& ctx, const Workload& wl)
    : rank_(ctx.rank()), nranks_(wl.nranks) {
  std::size_t sf = 1, rf = 1, sc = 1, rc = 1;
  auto grow = [&](const Call& c) {
    if (c.cplx) {
      sc = std::max(sc, c.offset + c.count);
      rc = std::max(rc, c.count);
    } else {
      sf = std::max(sf, c.offset + send_elems(c, nranks_));
      rf = std::max(rf, recv_elems(c, nranks_));
    }
  };
  for (const Call& c : wl.calls) grow(c);
  for (const Call& c : wl.handles) grow(c);
  send_f_ = device::DeviceBuffer(ctx.device(), sf * sizeof(float));
  recv_f_ = device::DeviceBuffer(ctx.device(), rf * sizeof(float));
  send_c_ = device::DeviceBuffer(ctx.device(), sc * sizeof(Cplx));
  recv_c_ = device::DeviceBuffer(ctx.device(), rc * sizeof(Cplx));
  auto* f = send_f_.as<float>();
  for (std::size_t i = 0; i < sf; ++i) f[i] = pat(i) + static_cast<float>(rank_);
  auto* z = send_c_.as<Cplx>();
  for (std::size_t i = 0; i < sc; ++i) {
    z[i] = Cplx(pat(i) + rank_, pat(i + 3) - rank_);
  }
}

const void* RankBuffers::send_c(std::size_t off) const {
  return send_c_.as<Cplx>() + off;
}

void RankBuffers::prepare(const Call& c) {
  if (c.cplx) {
    std::memset(recv_c_.get(), 0xff, c.count * sizeof(Cplx));
  } else if (c.op == Op::Bcast && c.root == rank_) {
    std::memcpy(recv_f(), send_f(c.offset), c.count * sizeof(float));
  } else {
    // 0xffffffff is a NaN: it never compares equal to an expected value.
    std::memset(recv_f(), 0xff, recv_elems(c, nranks_) * sizeof(float));
  }
}

bool RankBuffers::check(const Call& c) const {
  const auto n = static_cast<float>(nranks_);
  const float tri = n * (n - 1) / 2;  // sum of the rank shifts
  const float* out = recv_f();
  const std::size_t me = static_cast<std::size_t>(rank_) * c.count;
  switch (c.op) {
    case Op::Allreduce:
      if (c.cplx) {
        const auto* z = recv_c_.as<Cplx>();
        for (std::size_t j = 0; j < c.count; ++j) {
          const std::size_t i = c.offset + j;
          const Cplx want(n * pat(i) + tri, n * pat(i + 3) - tri);
          if (z[j] != want) return false;
        }
        return true;
      }
      return check_f(out, c.count, c.offset, n, tri);
    case Op::Bcast:
      return check_f(out, c.count, c.offset, 1, static_cast<float>(c.root));
    case Op::Allgather:
    case Op::Alltoall:
      for (int p = 0; p < nranks_; ++p) {
        const std::size_t base = c.offset + (c.op == Op::Alltoall ? me : 0);
        if (!check_f(out + static_cast<std::size_t>(p) * c.count, c.count, base,
                     1, static_cast<float>(p))) {
          return false;
        }
      }
      return true;
    case Op::ReduceScatter:
      return check_f(out, c.count, c.offset + me, n, tri);
  }
  return false;
}

void RankBuffers::corrupt(const Call& c) {
  if (c.cplx) {
    recv_c_.as<Cplx>()[0] += 1.0;
  } else {
    recv_f()[0] += 1.0f;
  }
}

std::vector<core::Persistent> make_handles(core::XcclMpi& rt,
                                           const RankBuffers& b,
                                           const Workload& wl) {
  std::vector<core::Persistent> handles;
  for (const Call& h : wl.handles) {
    handles.push_back(rt.allreduce_init(b.send_f(h.offset), b.recv_f(), h.count,
                                        mini::kFloat, ReduceOp::Sum,
                                        rt.comm_world()));
  }
  return handles;
}

// ---- Direct engine executors ---------------------------------------------------

bool run_xccl(xccl::CclBackend& be, xccl::CclComm& cc, const Call& c,
              RankBuffers& b, fabric::RankContext& ctx) {
  if (c.cplx) return false;
  device::Stream& s = ctx.stream();
  const DataType f32 = DataType::Float32;
  switch (c.op) {
    case Op::Allreduce:
      throw_if_error(be.all_reduce(b.send_f(c.offset), b.recv_f(), c.count, f32,
                                   ReduceOp::Sum, cc, s),
                     "xccl all_reduce");
      break;
    case Op::Bcast:
      throw_if_error(be.broadcast(b.recv_f(), c.count, f32, c.root, cc, s),
                     "xccl broadcast");
      break;
    case Op::Allgather:
      throw_if_error(be.all_gather(b.send_f(c.offset), b.recv_f(), c.count, f32,
                                   cc, s),
                     "xccl all_gather");
      break;
    case Op::ReduceScatter:
      throw_if_error(be.reduce_scatter(b.send_f(c.offset), b.recv_f(), c.count,
                                       f32, ReduceOp::Sum, cc, s),
                     "xccl reduce_scatter");
      break;
    case Op::Alltoall:
      throw_if_error(be.group_start(), "xccl group_start");
      for (int p = 0; p < cc.nranks(); ++p) {
        const std::size_t blk = static_cast<std::size_t>(p) * c.count;
        throw_if_error(be.send(b.send_f(c.offset + blk), c.count, f32, p, cc, s),
                       "xccl send");
        throw_if_error(be.recv(b.recv_f() + blk, c.count, f32, p, cc, s),
                       "xccl recv");
      }
      throw_if_error(be.group_end(), "xccl group_end");
      break;
  }
  s.synchronize(ctx.clock());
  return true;
}

bool run_hier(hier::HierEngine& he, hier::HierEngine::HierComms& hc,
              const Call& c, RankBuffers& b, mini::Comm& comm) {
  if (c.cplx || !hc.usable) return false;
  switch (c.op) {
    case Op::Allreduce:
      return he.allreduce(hc, b.send_f(c.offset), b.recv_f(), c.count,
                          mini::kFloat, ReduceOp::Sum, comm);
    case Op::Bcast:
      return he.bcast(hc, b.recv_f(), c.count, mini::kFloat, c.root, comm);
    case Op::Allgather:
      return he.allgather(hc, b.send_f(c.offset), c.count, mini::kFloat,
                          b.recv_f(), c.count, mini::kFloat, comm);
    case Op::ReduceScatter:
      return he.reduce_scatter_block(hc, b.send_f(c.offset), b.recv_f(),
                                     c.count, mini::kFloat, ReduceOp::Sum, comm);
    case Op::Alltoall: return false;
  }
  return false;
}

// ---- Gate ---------------------------------------------------------------------

void Gate::arm(fabric::RankContext& ctx, double seconds) {
  if (ctx.rank() == 0) deadline_ = now_s() + seconds;
  ctx.barrier();
}

bool Gate::next(fabric::RankContext& ctx, std::uint64_t& tick) {
  std::atomic<bool>& slot = go_[tick++ & 1];
  if (ctx.rank() == 0) slot.store(now_s() < deadline_, std::memory_order_relaxed);
  ctx.sync_clocks();
  return slot.load(std::memory_order_relaxed);
}

// ---- The closed loop ------------------------------------------------------------

namespace {

/// Rank 0's host samples of one timed phase.
struct HostSamples {
  std::vector<double> call_us;   ///< per call
  std::vector<double> pass_ms;   ///< per complete pass over the sequence
  std::vector<double> pass_p99;  ///< call_us p99 within each complete pass
};

/// State shared by the rank threads of one run.
struct Shared {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> virt;  ///< [rank][call]: reference pass
  std::atomic<std::uint64_t> attempted{0}, failed{0}, virt_mismatch{0};
  Gate gate;
  HostSamples untraced, traced;
  LayerRun layers;
};

class Loop {
 public:
  Loop(fabric::RankContext& ctx, core::XcclMpi& rt,
       std::vector<core::Persistent>& handles, RankBuffers& bufs,
       const Workload& wl, Shared& sh)
      : ctx_(ctx), rt_(rt), handles_(handles), bufs_(bufs), wl_(wl), sh_(sh) {}

  /// One untimed pass (warm-up, or the virtual reference when `record`).
  void pass(bool record) {
    std::vector<double>& ref = sh_.virt[static_cast<std::size_t>(ctx_.rank())];
    for (std::size_t i = 0; i < wl_.calls.size(); ++i) {
      bufs_.prepare(wl_.calls[i]);
      ctx_.sync_clocks();
      const double v = timed(wl_.calls[i], nullptr, 0, false).second;
      if (record) ref[i] = v;
    }
  }

  /// Cycle through the sequence until the gate closes; every call's virtual
  /// time must reproduce the reference pass.
  void run(double seconds, SpanLog* log, HostSamples& out, bool corrupt_first) {
    const std::vector<double>& ref =
        sh_.virt[static_cast<std::size_t>(ctx_.rank())];
    const bool rank0 = ctx_.rank() == 0;
    sh_.gate.arm(ctx_, seconds);
    std::uint64_t tick = 0;
    double pass_us = 0;
    std::size_t pass_start = 0;
    auto close_pass = [&](double scale) {
      out.pass_ms.push_back(pass_us / 1e3 * scale);
      out.pass_p99.push_back(quantile(
          {out.call_us.begin() + static_cast<std::ptrdiff_t>(pass_start),
           out.call_us.end()},
          0.99));
      pass_us = 0;
      pass_start = out.call_us.size();
    };
    for (std::size_t k = 0;; ++k) {
      const std::size_t i = k % wl_.calls.size();
      const Call& c = wl_.calls[i];
      if (i == 0 && k > 0 && rank0) close_pass(1.0);
      bufs_.prepare(c);
      if (!sh_.gate.next(ctx_, tick)) break;
      const auto [host_us, virt_us] = timed(c, log, k, corrupt_first && k == 0);
      // Clocks keep advancing, so a call's duration carries rounding of the
      // order of the absolute clock's ulp; a picosecond is far above that
      // and far below any change to the cost model.
      if (std::abs(virt_us - ref[i]) > 1e-6) sh_.virt_mismatch.fetch_add(1);
      if (rank0) {
        out.call_us.push_back(host_us);
        pass_us += host_us;
      }
    }
    if (rank0 && out.pass_ms.empty() && !out.call_us.empty()) {
      // Less than one pass fit: extrapolate the partial one.
      close_pass(static_cast<double>(wl_.calls.size()) /
                 static_cast<double>(out.call_us.size()));
    }
  }

 private:
  /// Run and check one call; returns (host us, virtual us).
  std::pair<double, double> timed(const Call& c, SpanLog* log, std::uint64_t id,
                                  bool corrupt) {
    const double v0 = ctx_.clock().now();
    const double h0 = now_s();
    bool ok = true;
    try {
      const Span span(log, op_name(c.op), id);
      if (c.handle >= 0) {
        core::Persistent& h = handles_[static_cast<std::size_t>(c.handle)];
        h.start();
        h.wait();
      } else {
        run_call(rt_, c, bufs_, rt_.comm_world());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: rank %d %s threw: %s\n", ctx_.rank(),
                   op_name(c.op), e.what());
      ok = false;
    }
    const double h1 = now_s();
    const double v1 = ctx_.clock().now();
    if (corrupt) bufs_.corrupt(c);
    ok = ok && bufs_.check(c);
    sh_.attempted.fetch_add(1);
    if (!ok) sh_.failed.fetch_add(1);
    return {(h1 - h0) * 1e6, v1 - v0};
  }

  fabric::RankContext& ctx_;
  core::XcclMpi& rt_;
  std::vector<core::Persistent>& handles_;
  RankBuffers& bufs_;
  const Workload& wl_;
  Shared& sh_;
};

}  // namespace

Result run_collectives(const Options& opt) {
  const Workload wl = make_workload(opt.workload, opt.seed);
  const std::size_t nranks = static_cast<std::size_t>(wl.nranks);
  const int setups = (opt.smoke || opt.trace) ? 1 : 5;
  Shared sh;
  sh.virt.assign(nranks, std::vector<double>(wl.calls.size(), 0.0));
  std::vector<SpanLog> logs(nranks);

  for (int s = 0; s < setups; ++s) {
    const bool last = s + 1 == setups;
    const double t0 = now_s();
    fabric::World world(wl.world_config());
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpiOptions o;
      o.tuning = wl.tuning;
      core::XcclMpi rt(ctx, o);
      RankBuffers bufs(ctx, wl);
      std::vector<core::Persistent> handles = make_handles(rt, bufs, wl);
      Loop loop(ctx, rt, handles, bufs, wl, sh);
      loop.pass(false);  // builds CCL comms, hier chains and plans
      ctx.barrier();
      if (ctx.rank() == 0) sh.setup_s.push_back(now_s() - t0);
      if (!last) return;

      if (ctx.rank() == 0) reset_peak_rss();
      ctx.barrier();
      loop.pass(true);
      ctx.barrier();
      const bool corrupt = opt.corrupt && ctx.rank() == 0;
      if (!opt.trace) {
        loop.run(opt.seconds, nullptr, sh.untraced, corrupt);
        return;
      }
      SpanLog* log = &logs[static_cast<std::size_t>(ctx.rank())];
      loop.run(opt.seconds * 0.25, nullptr, sh.untraced, corrupt);
      {
        const Span phase(log, "e2e.traced");
        loop.run(opt.seconds * 0.25, log, sh.traced, false);
      }
      measure_layers(ctx, rt, handles, bufs, wl, opt.seconds * 0.5, log,
                     sh.layers);
    });
  }

  Result r;
  r.profile = wl.profile.name;
  r.ranks = wl.nranks;
  r.topology = std::to_string(wl.nodes) + "x" +
               std::to_string(wl.nranks / wl.nodes);
  r.attempted = sh.attempted.load() + sh.layers.attempted.load();
  r.failed = sh.failed.load() + sh.layers.failed.load();
  if (sh.virt_mismatch.load() > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu calls did not reproduce their reference "
                 "virtual time\n",
                 static_cast<unsigned long long>(sh.virt_mismatch.load()));
    r.failed += sh.virt_mismatch.load();
  }

  // Virtual time per call: the maximum across ranks, as OMB reports it.
  std::vector<double> virt(wl.calls.size(), 0.0);
  double pass_bytes = 0;
  for (std::size_t i = 0; i < wl.calls.size(); ++i) {
    for (const auto& per_rank : sh.virt) virt[i] = std::max(virt[i], per_rank[i]);
    pass_bytes += static_cast<double>(payload_bytes(wl.calls[i], wl.nranks));
  }
  double virt_total = 0;
  for (double v : virt) virt_total += v;
  r.virt_digest = digest(virt);
  add(r.virt, "call_virt_us.p50", "us", quantile(virt, 0.5));
  add(r.virt, "call_virt_us.p99", "us", quantile(virt, 0.99));
  add(r.virt, "virt_MBps", "MB/s", pass_bytes / virt_total);

  // Throughput and tail come from per-pass figures, medians over passes: a
  // burst of load from elsewhere on the host then moves few passes, not the
  // whole figure.
  const HostSamples& h = sh.untraced;
  const double pass_ms = quantile(h.pass_ms, 0.5);
  std::vector<Metric> e2e;
  add(e2e, "setup_s", "s", quantile(sh.setup_s, 0.5));
  add(e2e, "calls_per_s", "1/s",
      static_cast<double>(wl.calls.size()) / (pass_ms * 1e-3));
  add(e2e, "host_MBps", "MB/s", pass_bytes / (pass_ms * 1e3));
  add(e2e, "call_host_us.p50", "us", quantile(h.call_us, 0.5));
  add(e2e, "step_host_ms.p50", "ms", pass_ms);
  add(e2e, "virt_MBps", "MB/s", pass_bytes / virt_total);
  add(e2e, "peak_rss_mb", "MB", peak_rss_mb());
  add(r.info, "call_host_us.p99", "us", quantile(h.pass_p99, 0.5));
  add(r.info, "host_samples", "count", static_cast<double>(h.call_us.size()));

  if (!opt.trace) {
    r.metrics = std::move(e2e);
    return r;
  }
  r.info.insert(r.info.end(), e2e.begin(), e2e.end());
  const double untraced_p50 = quantile(h.call_us, 0.5);
  const double traced_p50 = quantile(sh.traced.call_us, 0.5);
  add(r.info, "traced.call_host_us.p50", "us", traced_p50);
  const std::size_t spans = write_spans(opt, logs);
  add(r.info, "trace.spans", "count", static_cast<double>(spans));
  const DlFigures dl = measure_dl();
  add_layer_metrics(r, sh.layers.fig, dl.comm_wait_share, dl.buckets_per_step,
                    traced_p50 / untraced_p50);
  return r;
}

}  // namespace perfbench
