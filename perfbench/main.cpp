// perfbench: the end-to-end benchmark of MPI-xCCL (see README.md).
//
//   perfbench --workload small-mix|large-hier|train-resnet50 --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt] [--out-dir DIR]
//
// Prints a context stamp, every metric by name and unit (host clock, then the
// virtual clock), and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 only when every
// checked result was right; 2 on a usage or set-up error.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/format.hpp"
#include "obs/obs.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Rng::next() {
  s_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::log_uniform(std::size_t lo, std::size_t hi) {
  return log_stratified(lo, hi, 0, 1);
}

std::size_t Rng::log_stratified(std::size_t lo, std::size_t hi, int k, int n) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi));
  const double u = (k + uniform()) / n;
  const auto v = static_cast<std::size_t>(std::llround(std::exp(a + u * (b - a))));
  return std::clamp(v, lo, hi);
}

double span_us(double host_s) {
  static const double origin = now_s();
  return (host_s - origin) * 1e6;
}

int SpanLog::open(const char* name, std::uint64_t call) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(SpanRec{name, span_us(now_s()), 0.0, parent, call});
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_us = span_us(now_s());
  stack_.pop_back();
}

void SpanLog::add(const char* name, double start_us, double end_us, int parent,
                  std::uint64_t call) {
  spans_.push_back(SpanRec{name, start_us, end_us, parent, call});
}

std::size_t write_spans(const Options& opt, const std::vector<SpanLog>& logs) {
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  std::ofstream out(path);
  std::size_t n = 0;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto& spans = logs[r].spans();
    for (std::size_t i = 0; i < spans.size(); ++i, ++n) {
      const SpanRec& s = spans[i];
      out << "{\"rank\":" << r << ",\"idx\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << fmt::json_double(s.start_us)
          << ",\"end_us\":" << fmt::json_double(s.end_us)
          << ",\"parent\":" << s.parent << ",\"call\":" << s.call << "}\n";
    }
  }
  if (!out) throw Error("cannot write spans to " + path);
  return n;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw Error("no VmHWM in /proc/self/status");
}

std::string digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_lines(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("perfbench: %-9s %-28s = %s %s\n", kind, m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
  }
}

/// Human-readable report, then the one-line JSON result.
void print_report(const Options& opt, Result& r) {
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      ++r.failed;
    }
  }
  std::printf(
      "perfbench: context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"rank_threads\":%d,\"nproc\":%u,\"build_type\":\"%s\","
      "\"obs_level\":\"%s\",\"profile\":\"%s\",\"topology\":\"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      num(opt.seconds).c_str(), opt.trace ? 1 : 0,
      r.ranks,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      std::string(obs::to_string(obs::level())).c_str(), r.profile.c_str(),
      r.topology.c_str());
  print_lines(opt.trace ? "layer" : "e2e", r.metrics);
  print_lines("info", r.info);
  print_lines("virtual", r.virt);
  std::printf("perfbench: virtual   %-28s = %s\n", "digest", r.virt_digest.c_str());
  std::printf(
      "perfbench: note      virtual-clock figures are deterministic for a "
      "seed: a host-only change must leave them and the digest bit-identical\n");
  const double fail_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("perfbench: checked   attempted=%llu failed=%llu fail_ratio=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), num(fail_ratio).c_str());

  std::string json = "{\"correct\": ";
  json += (r.failed == 0 && r.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            (std::isfinite(m.value) ? num(m.value) : "0") + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "small-mix|large-hier|train-resnet50 --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--out-dir") {
        opt.out_dir = value();
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 120)) usage("--seconds must be in (0, 120]");
  if (opt.smoke) opt.seconds = std::min(opt.seconds, 1.0);
  return opt;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  mpixccl::obs::init_from_env();
  try {
    Result r = opt.workload == "train-resnet50" ? run_train(opt)
                                                : run_collectives(opt);
    print_report(opt, r);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
