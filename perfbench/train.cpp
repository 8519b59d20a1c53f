// train-resnet50: dl::run_training on MRI, 2 nodes (4 ranks), ResNet-50,
// batch 32, Hybrid with the default iallreduce overlap.
//
// The trainer is a single call that builds its own world, so step
// boundaries are observed from outside: a poller thread watches the
// library's "dl.steps" counter, which every rank bumps as it finishes a
// step; a step is over once all ranks have bumped it.

#include <chrono>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "dl/horovod.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

dl::TrainerConfig trainer_config(int warmup, int steps) {
  dl::TrainerConfig cfg;
  cfg.model = dl::Model::resnet50();
  cfg.batch_size = 32;
  cfg.flavor = omb::Flavor::HybridXccl;
  cfg.overlap = true;
  cfg.warmup_steps = warmup;
  cfg.steps = steps;
  return cfg;
}

/// Run one trainer call of 1 warm-up and `steps` timed steps; appends the
/// host duration of every timed step, in ms, to `step_ms`, and with a log,
/// records the call and its timed steps as spans.
dl::TrainerResult train_block(const Workload& wl, int steps,
                              std::vector<double>& step_ms, SpanLog* log,
                              std::uint64_t id) {
  obs::Counter& done = obs::Registry::instance().counter("dl.steps");
  const std::uint64_t base = done.value();
  const auto ranks = static_cast<std::uint64_t>(wl.nranks);
  const auto total = static_cast<std::uint64_t>(steps + 1);
  std::vector<double> marks;
  marks.reserve(total);
  std::atomic<std::size_t> seen{0};  // marks published by the poller
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    std::uint64_t next = 1;
    while (next <= total && !stop.load(std::memory_order_relaxed)) {
      const std::uint64_t v = done.value() - base;
      while (next <= total && v >= next * ranks) {
        marks.push_back(now_s());
        seen.store(marks.size(), std::memory_order_release);
        ++next;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  struct Joiner {
    std::thread& t;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true);
      t.join();
    }
  };
  dl::TrainerResult res;
  const int block = log != nullptr ? log->open("dl.run_training", id) : -1;
  {
    const Joiner join{poller, stop};
    res = dl::run_training(wl.profile, wl.nodes, trainer_config(1, steps));
    // Let the poller see the last bump before it is told to stop.
    const double until = now_s() + 0.05;
    while (seen.load(std::memory_order_acquire) < total && now_s() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (log != nullptr) log->close(block);
  for (std::size_t k = 1; k < marks.size(); ++k) {
    step_ms.push_back((marks[k] - marks[k - 1]) * 1e3);
    if (log != nullptr) {
      log->add("dl.step", span_us(marks[k - 1]), span_us(marks[k]), block, id);
    }
  }
  return res;
}

}  // namespace

DlFigures measure_dl() {
  const Workload wl = make_workload("train-resnet50", 1);
  const dl::TrainerResult res =
      dl::run_training(wl.profile, wl.nodes, trainer_config(1, 1));
  return DlFigures{res.comm_wait_us / res.step_time_us,
                   static_cast<double>(res.buckets_per_step)};
}

Result run_train(const Options& opt) {
  const Workload wl = make_workload(opt.workload, opt.seed);
  Result r;
  r.profile = wl.profile.name;
  r.ranks = wl.nranks;
  r.topology = std::to_string(wl.nodes) + "x" +
               std::to_string(wl.nranks / wl.nodes);

  // Set-up: time to the first trained step (world, runtimes, CCL
  // communicators and plans all built by the trainer itself).
  std::vector<double> setup;
  for (int s = 0; s < ((opt.smoke || opt.trace) ? 1 : 3); ++s) {
    const double t0 = now_s();
    (void)dl::run_training(wl.profile, wl.nodes, trainer_config(0, 1));
    setup.push_back(now_s() - t0);
  }

  const int steps = opt.smoke ? 1 : 6;
  const auto expected_buckets = static_cast<int>(wl.calls.size());
  const double grad_bytes =
      static_cast<double>(dl::Model::resnet50().gradient_bytes());
  std::optional<dl::TrainerResult> first;
  std::vector<double> block_p99;  // step-time p99 within each trainer call
  auto run_blocks = [&](double seconds, std::vector<double>& step_ms,
                        SpanLog* log) {
    const double until = now_s() + seconds;
    do {
      const auto from = static_cast<std::ptrdiff_t>(step_ms.size());
      dl::TrainerResult res = train_block(wl, steps, step_ms, log, r.attempted);
      if (log == nullptr) {
        block_p99.push_back(quantile({step_ms.begin() + from, step_ms.end()}, 0.99));
      }
      if (!first) first = res;
      if (opt.corrupt) res.images_per_sec = std::nextafter(res.images_per_sec, 0.0);
      // The virtual clock is deterministic: every block must reproduce the
      // first one bit for bit, with the expected fusion buckets.
      const double img_s = 32.0 * wl.nranks / (res.step_time_us * 1e-6);
      const bool ok = res.buckets_per_step == expected_buckets &&
                      std::isfinite(res.images_per_sec) &&
                      res.images_per_sec > 0 && res.images_per_sec == img_s &&
                      res.images_per_sec == first->images_per_sec &&
                      res.comm_wait_us == first->comm_wait_us;
      ++r.attempted;
      if (!ok) ++r.failed;
    } while (now_s() < until);
  };

  reset_peak_rss();
  std::vector<double> step_ms;
  std::vector<double> traced_ms;
  std::vector<SpanLog> logs(static_cast<std::size_t>(wl.nranks));
  LayerRun layers;
  if (!opt.trace) {
    run_blocks(opt.seconds, step_ms, nullptr);
  } else {
    run_blocks(opt.seconds * 0.25, step_ms, nullptr);
    run_blocks(opt.seconds * 0.25, traced_ms, &logs[0]);
    fabric::World world(wl.world_config());
    world.run([&](fabric::RankContext& ctx) {
      core::XcclMpi rt(ctx);
      RankBuffers bufs(ctx, wl);
      std::vector<core::Persistent> handles = make_handles(rt, bufs, wl);
      measure_layers(ctx, rt, handles, bufs, wl, opt.seconds * 0.5,
                     &logs[static_cast<std::size_t>(ctx.rank())], layers);
    });
  }

  const dl::TrainerResult& res = *first;
  r.virt_digest = digest({res.images_per_sec, res.step_time_us, res.comm_wait_us});
  add(r.virt, "train_img_s", "img/s", res.images_per_sec);
  add(r.virt, "step_virt_ms", "ms", res.step_time_us / 1e3);
  add(r.virt, "comm_wait_virt_us", "us", res.comm_wait_us);
  add(r.virt, "virt_MBps", "MB/s", grad_bytes / res.step_time_us);

  // A call is one bucket reduction, amortized over its step. As for the
  // collective workloads, throughput comes from the median step and the tail
  // is the median over trainer calls of the p99 within each.
  const double step = quantile(step_ms, 0.5);
  const double buckets = static_cast<double>(expected_buckets);
  std::vector<Metric> e2e;
  add(e2e, "setup_s", "s", quantile(setup, 0.5));
  add(e2e, "calls_per_s", "1/s", buckets / (step * 1e-3));
  add(e2e, "host_MBps", "MB/s", grad_bytes / (step * 1e3));
  add(e2e, "call_host_us.p50", "us", step * 1e3 / buckets);
  add(e2e, "step_host_ms.p50", "ms", step);
  add(e2e, "virt_MBps", "MB/s", grad_bytes / res.step_time_us);
  add(e2e, "peak_rss_mb", "MB", peak_rss_mb());
  add(r.info, "call_host_us.p99", "us", quantile(block_p99, 0.5) * 1e3 / buckets);
  add(r.info, "host_samples", "count", static_cast<double>(step_ms.size()));

  if (!opt.trace) {
    r.metrics = std::move(e2e);
    return r;
  }
  r.info.insert(r.info.end(), e2e.begin(), e2e.end());
  const double traced_p50 = quantile(traced_ms, 0.5);
  add(r.info, "traced.step_host_ms.p50", "ms", traced_p50);
  r.attempted += layers.attempted.load();
  r.failed += layers.failed.load();
  const std::size_t spans = write_spans(opt, logs);
  add(r.info, "trace.spans", "count", static_cast<double>(spans));
  add_layer_metrics(r, layers.fig, res.comm_wait_us / res.step_time_us,
                    static_cast<double>(res.buckets_per_step),
                    traced_p50 / quantile(step_ms, 0.5));
  return r;
}

}  // namespace perfbench
