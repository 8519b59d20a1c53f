#pragma once
// Shared plumbing of the end-to-end benchmark: options, the seeded call
// sequences, closed-form input patterns and result checks, statistics, the
// in-memory span log, and the metric report.
//
// The library only ever sees buffers and calls. Every input comes from the
// seeded generators here, and every collective result is compared against a
// closed form of those inputs outside the timed interval.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tuning.hpp"
#include "core/xccl_mpi.hpp"
#include "device/device.hpp"
#include "fabric/world.hpp"
#include "hier/hier.hpp"
#include "mpi/mpi.hpp"
#include "sim/profiles.hpp"
#include "xccl/backend.hpp"

namespace perfbench {

using namespace mpixccl;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    ///< one set-up and short phases (self-test)
  bool corrupt = false;  ///< damage one result so the checker must fail it
  std::string out_dir = ".";
};

/// Host steady clock in seconds.
double now_s();

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (the numpy default). Empty samples give 0.
double quantile(std::vector<double> v, double q);

/// splitmix64-based stream: the same seed gives the same sequence on every
/// platform (unlike the std:: distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Log-uniform integer in [lo, hi].
  std::size_t log_uniform(std::size_t lo, std::size_t hi);
  /// Log-uniform integer in stratum k of n equal strata of log [lo, hi].
  std::size_t log_stratified(std::size_t lo, std::size_t hi, int k, int n);

 private:
  std::uint64_t s_;
};

// ---- Call sequences ---------------------------------------------------------

enum class Op : std::uint8_t { Allreduce, Bcast, Allgather, Alltoall, ReduceScatter };
const char* op_name(Op op);

/// One collective call of a workload. Counts follow the MPI argument of the
/// same name (allgather/alltoall: per-rank block; reduce_scatter_block: the
/// per-rank receive count). `offset` shifts the send window inside the
/// pre-filled pattern buffer, so consecutive calls see different inputs
/// without a refill.
struct Call {
  Op op = Op::Allreduce;
  bool cplx = false;     ///< double complex (NCCL cannot reduce it)
  int handle = -1;       ///< >= 0: replayed through persistent handle #handle
  std::size_t count = 0;
  int root = 0;
  std::size_t offset = 0;
};

/// Everything a collective workload runs: the world, the routing table, one
/// pass of seeded calls, and the shapes of its persistent handles.
struct Workload {
  std::string name;
  sim::SystemProfile profile;
  int nodes = 2;
  int devices_per_node = 0;
  std::optional<core::TuningTable> tuning;
  std::vector<Call> calls;    ///< one pass; the closed loop cycles through it
  std::vector<Call> handles;  ///< persistent allreduce shapes
  int nranks = 0;

  [[nodiscard]] fabric::WorldConfig world_config() const {
    return fabric::WorldConfig{profile, nodes, devices_per_node, {}, {}};
  }
};

/// small-mix / large-hier call sequences, or the ResNet-50 gradient buckets
/// (train-resnet50) as a sequence of float allreduces for the layer replays.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Bytes one call delivers into each rank's receive buffer.
std::size_t payload_bytes(const Call& c, int nranks);

/// Per-rank device buffers holding the seeded input pattern and the
/// receive windows every call of a workload writes.
class RankBuffers {
 public:
  RankBuffers(fabric::RankContext& ctx, const Workload& wl);

  [[nodiscard]] const float* send_f(std::size_t off) const {
    return send_f_.as<float>() + off;
  }
  [[nodiscard]] float* recv_f() const { return recv_f_.as<float>(); }
  [[nodiscard]] const void* send_c(std::size_t off) const;
  [[nodiscard]] void* recv_c() const { return recv_c_.get(); }
  [[nodiscard]] const device::DeviceBuffer& send_buffer() const { return send_f_; }

  /// Poison the receive window (and seed the root's bcast buffer) so a call
  /// that writes nothing fails its check.
  void prepare(const Call& c);
  /// Compare the receive window with the closed form of the inputs.
  [[nodiscard]] bool check(const Call& c) const;
  /// Damage one received element (self-test of check()).
  void corrupt(const Call& c);

 private:
  int rank_;
  int nranks_;
  device::DeviceBuffer send_f_, recv_f_, send_c_, recv_c_;
};

/// One persistent allreduce handle per shape in wl.handles (collective).
std::vector<core::Persistent> make_handles(core::XcclMpi& rt,
                                           const RankBuffers& b,
                                           const Workload& wl);

/// Execute one call through an MPI-shaped runtime (core::XcclMpi or
/// mini::Mpi, whose collective signatures are identical). Persistent calls
/// are the caller's business.
template <typename Runtime>
void run_call(Runtime& m, const Call& c, RankBuffers& b, mini::Comm& comm) {
  switch (c.op) {
    case Op::Allreduce:
      if (c.cplx) {
        m.allreduce(b.send_c(c.offset), b.recv_c(), c.count,
                    mini::kDoubleComplex, ReduceOp::Sum, comm);
      } else {
        m.allreduce(b.send_f(c.offset), b.recv_f(), c.count, mini::kFloat,
                    ReduceOp::Sum, comm);
      }
      return;
    case Op::Bcast:
      m.bcast(b.recv_f(), c.count, mini::kFloat, c.root, comm);
      return;
    case Op::Allgather:
      m.allgather(b.send_f(c.offset), c.count, mini::kFloat, b.recv_f(),
                  c.count, mini::kFloat, comm);
      return;
    case Op::Alltoall:
      m.alltoall(b.send_f(c.offset), c.count, mini::kFloat, b.recv_f(),
                 c.count, mini::kFloat, comm);
      return;
    case Op::ReduceScatter:
      m.reduce_scatter_block(b.send_f(c.offset), b.recv_f(), c.count,
                             mini::kFloat, ReduceOp::Sum, comm);
      return;
  }
}

/// The same call on a CCL backend directly: built-in collectives, alltoall
/// as one group of send/recv pairs, then a stream sync. Returns false for
/// calls the backend cannot serve (double complex).
bool run_xccl(xccl::CclBackend& be, xccl::CclComm& cc, const Call& c,
              RankBuffers& b, fabric::RankContext& ctx);

/// The same call on the hierarchical engine through a prepared chain.
/// Returns false where the engine does not apply (alltoall, double complex).
bool run_hier(hier::HierEngine& he, hier::HierEngine::HierComms& hc,
              const Call& c, RankBuffers& b, mini::Comm& comm);

/// Closed-loop stop decision shared by the rank threads. Rank 0 compares
/// the host clock with the deadline; every rank reads the verdict after the
/// clock-aligning barrier that precedes each timed call, so all ranks stop
/// after the same call. Slots alternate so rank 0 never overwrites a verdict
/// a peer has yet to read.
class Gate {
 public:
  /// Collective: rank 0 arms the deadline `seconds` from now.
  void arm(fabric::RankContext& ctx, double seconds);
  /// Collective: aligns clocks, then true while the deadline has not passed.
  bool next(fabric::RankContext& ctx, std::uint64_t& tick);

 private:
  double deadline_ = 0.0;
  std::atomic<bool> go_[2]{};
};

// ---- Tracing ----------------------------------------------------------------

/// One span: a named interval around a call into a layer. Spans of one
/// benchmark call share `call`; `parent` indexes the enclosing span of the
/// same rank (-1 at top level).
struct SpanRec {
  const char* name;
  double start_us;
  double end_us;
  int parent;
  std::uint64_t call;
};

/// Span timestamps: host us since the first span of the process.
double span_us(double host_s);

/// Per-rank in-memory span log; written out once the run ends.
class SpanLog {
 public:
  int open(const char* name, std::uint64_t call);
  void close(int idx);
  /// A span observed from outside (start and end already known).
  void add(const char* name, double start_us, double end_us, int parent,
           std::uint64_t call);
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log records nothing (the untraced path).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t call = 0)
      : log_(log), idx_(log != nullptr ? log->open(name, call) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

/// Write every rank's spans as JSON lines to
/// <out_dir>/spans-<workload>-<seed>.jsonl; returns the span count.
std::size_t write_spans(const Options& opt, const std::vector<SpanLog>& logs);

// ---- Report -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

inline void add(std::vector<Metric>& m, std::string name, std::string unit,
                double v) {
  m.push_back(Metric{std::move(name), std::move(unit), v});
}

struct Result {
  std::vector<Metric> metrics;  ///< the JSON set: end-to-end or per-layer
  std::vector<Metric> virt;     ///< virtual-clock figures, printed only
  std::vector<Metric> info;     ///< other printed figures
  std::string virt_digest;      ///< hash of every per-call virtual time
  std::uint64_t attempted = 0;  ///< rank-level results checked
  std::uint64_t failed = 0;     ///< of those, wrong or thrown
  std::string profile;
  std::string topology;  ///< nodes x ranks per node
  int ranks = 0;         ///< rank threads
};

/// Release free heap to the OS and restart the peak-resident-set count, so
/// the peak covers only what follows (the measured phase, not set-up).
void reset_peak_rss();
/// Peak resident set of this process in MB since the last reset.
double peak_rss_mb();

/// FNV-1a over the bit patterns of `values`, as 16 hex digits.
std::string digest(const std::vector<double>& values);

// ---- Workload entry points ----------------------------------------------------

/// small-mix and large-hier (collectives.cpp).
Result run_collectives(const Options& opt);
/// train-resnet50 (train.cpp).
Result run_train(const Options& opt);

/// Per-layer figures, filled by rank 0 of measure_layers().
struct LayerFigures {
  double fabric_msg_us = 0, fabric_copy_MBps = 0;
  double mpi_call_us = 0, xccl_call_us = 0, hier_call_us = 0;
  double hier_prepare_ms = 0;
  double dispatch_us = 0, persistent_us = 0;
  double plan_hit_ratio = 0;
  std::uint64_t calls_mpi = 0, calls_xccl = 0, calls_hier = 0, fallbacks = 0;
  double reduce_MBps = 0, classify_ns = 0;
};

/// What the rank threads of measure_layers() share.
struct LayerRun {
  Gate gate;
  LayerFigures fig;
  std::atomic<std::uint64_t> attempted{0}, failed{0};
};

/// Replay `wl`'s calls directly at each module's public API, inside a rank
/// thread of a world built from wl.world_config(); collective over ranks.
/// `rt` is a warmed runtime and `handles` its persistent handles for
/// wl.handles.
void measure_layers(fabric::RankContext& ctx, core::XcclMpi& rt,
                    std::vector<core::Persistent>& handles, RankBuffers& bufs,
                    const Workload& wl, double budget_s, SpanLog* log,
                    LayerRun& run);

/// Names, units and values of the per-layer JSON set; `dl_*` come from a
/// training run.
void add_layer_metrics(Result& r, const LayerFigures& f, double dl_wait_share,
                       double dl_buckets, double trace_overhead);

/// Run one short ResNet-50 training on MRI (the dl layer figures).
struct DlFigures {
  double comm_wait_share = 0;
  double buckets_per_step = 0;
};
DlFigures measure_dl();

}  // namespace perfbench
