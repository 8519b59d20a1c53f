#include "core/xccl_mpi.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/log.hpp"
#include "device/buffer_registry.hpp"
#include "obs/analyze.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/topology.hpp"
#include "sim/trace.hpp"

namespace mpixccl::core {

namespace {
const std::byte* cat(const void* p, std::size_t off) {
  return static_cast<const std::byte*>(p) + off;
}
std::byte* mat(void* p, std::size_t off) { return static_cast<std::byte*>(p) + off; }
}  // namespace

namespace {
TuningTable resolve_tuning(const XcclMpiOptions& options,
                           const sim::SystemProfile& profile) {
  if (options.tuning) return *options.tuning;
  if (options.tuning_file) return TuningTable::load_file(*options.tuning_file);
  if (const char* env = std::getenv("MPIXCCL_TUNING_FILE"); env != nullptr) {
    return TuningTable::load_file(env);
  }
  return TuningTable::default_for(profile);
}
}  // namespace

XcclMpi::XcclMpi(fabric::RankContext& ctx, XcclMpiOptions options)
    : mpi_(ctx, ctx.profile().mpi),
      options_(std::move(options)),
      tuning_(resolve_tuning(options_, ctx.profile())) {
  const xccl::CclKind kind =
      options_.backend.value_or(xccl::native_ccl(ctx.profile().vendor));
  const sim::CclProfile& cp =
      (kind == xccl::CclKind::Msccl && ctx.profile().msccl.has_value())
          ? *ctx.profile().msccl
          : ctx.profile().ccl;
  backend_ = xccl::make_backend(kind, ctx, cp);
  hier_ = std::make_unique<hier::HierEngine>(mpi_);
  if (options_.hier_levels) hier_->set_levels(*options_.hier_levels);
  if (options_.hier_single_copy_min) {
    hier_->set_single_copy_min(*options_.hier_single_copy_min);
  }
  auto& reg = obs::Registry::instance();
  ctr_plan_hit_ = &reg.counter("plan.cache.hit");
  ctr_plan_miss_ = &reg.counter("plan.cache.miss");
  ctr_plan_evict_ = &reg.counter("plan.cache.evict");
  ctr_plan_invalidate_ = &reg.counter("plan.cache.invalidate");
  // Identity stamp for exported snapshots: which rank out of how many, on
  // which profile/topology (degrades to rank -1 once a second distinct rank
  // constructs a runtime in this process — the threads-as-ranks norm).
  const sim::Topology& topo = ctx.topology();
  obs::set_snapshot_meta(
      ctx.rank(), topo.world_size(), ctx.profile().name,
      sim::describe_levels(topo.sub_levels()) + "(" +
          std::to_string(topo.devices_per_node()) + ").net(" +
          std::to_string(topo.nodes()) + ")");
  MPIXCCL_LOG_INFO("core", "rank ", ctx.rank(), ": MPI-xCCL over ",
                   backend_->name(), " (", ctx.profile().name, ")");
}

void XcclMpi::reset_stats() {
  stats_ = {};
  op_profiles_.clear();
  last_ = {};
  last_decision_ = {};
  plans_.reset_stats();
  // Flight records carry the id of the plan that routed them; entries from
  // this rank whose plan has since been evicted or invalidated would join
  // against nothing, so drop them with the counters they accompanied.
  obs::FlightRecorder::instance().purge_plan_records(rank(), plans_.live_ids());
}

void XcclMpi::invalidate_plans() {
  const std::size_t dropped = plans_.invalidate_all();
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
}

bool XcclMpi::set_hier_levels(const std::string& spec) {
  if (!hier_->set_levels(spec)) return false;
  // Every plan holding a subcomm chain was built against the old hierarchy;
  // its splits (and any reserved scratch shape) are stale. Flat plans keep
  // their compiled state.
  const std::size_t dropped =
      plans_.invalidate_if([](const Plan& p) { return p.hier != nullptr; });
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
  return true;
}

std::size_t XcclMpi::retune_range(CollOp op, std::size_t lo, std::size_t hi,
                                  Engine engine) {
  if (!adaptive_.manages(op)) adapt_op(op);
  adaptive_.set_range(op, lo, hi, engine);
  // Targeted invalidation: a plan survives iff its validity band still sits
  // inside a single effective rule whose engine matches the plan's original
  // table choice. Only Hybrid device plans consulted the table; everything
  // else decided independently of it and is untouched.
  const auto* rules = effective_rules(op);
  const std::size_t dropped = plans_.invalidate_if([&](const Plan& p) {
    if (p.key.op != op) return false;
    if (p.mode != Mode::Hybrid || !p.key.device) return false;
    if (rules == nullptr) return true;
    for (const TuningTable::Entry& e : *rules) {
      if (p.min_bytes <= e.max_bytes) {
        return p.max_bytes > e.max_bytes || e.engine != p.pick.table_choice;
      }
    }
    return true;
  });
  if (dropped > 0) ctr_plan_invalidate_->add(dropped, rank());
  return dropped;
}

void XcclMpi::clear_adaptive() {
  if (adaptive_.empty()) return;
  adaptive_.clear();
  invalidate_plans();
}

bool XcclMpi::any_device_buffer(const void* a, const void* b) const {
  const auto& reg = device::BufferRegistry::instance();
  return (a != nullptr && reg.lookup(a).has_value()) ||
         (b != nullptr && reg.lookup(b).has_value());
}

EnginePick XcclMpi::pick_from_entry(CollOp op, const TuningTable::Entry& e) {
  EnginePick pick;
  pick.table_choice = e.engine;
  pick.breakpoint = e.max_bytes;
  pick.engine = e.engine;
  // A table may route an op the hierarchical engine does not implement;
  // remap to the flat CCL rather than failing (recorded as a redirect).
  if (pick.engine == Engine::Hier && !engine_hier_supports(op)) {
    pick.engine = Engine::Xccl;
    pick.reason = obs::FallbackReason::HierOpUnsupported;
  }
  return pick;
}

EnginePick XcclMpi::pick_from_table(const TuningTable& tuning,
                                    CollOp op, std::size_t bytes) {
  return pick_from_entry(op, tuning.select_entry(op, bytes));
}

EnginePick XcclMpi::pick_table(CollOp op, std::size_t bytes) const {
  if (adaptive_.manages(op)) {
    return pick_from_entry(op, adaptive_.select_entry(op, bytes));
  }
  return pick_from_table(tuning_, op, bytes);
}

EnginePick XcclMpi::pick_classified(CollOp op, std::size_t bytes,
                                    bool device) const {
  if (options_.mode == Mode::PureMpi) return {};
  // Device Buffer Identify: CCLs only accept device memory; host buffers
  // always take the MPI path regardless of mode.
  if (!device) {
    return {Engine::Mpi, Engine::Mpi, 0, obs::FallbackReason::HostBuffer};
  }
  if (options_.mode == Mode::PureXccl) {
    return {Engine::Xccl, Engine::Xccl, 0, obs::FallbackReason::None};
  }
  return pick_table(op, bytes);
}

EnginePick XcclMpi::pick_engine(CollOp op, std::size_t bytes,
                                const void* a, const void* b) {
  return pick_classified(op, bytes, any_device_buffer(a, b));
}

EnginePick XcclMpi::pick_engine_agreed(CollOp op,
                                       std::size_t local_bytes,
                                       const void* a, const void* b,
                                       mini::Comm& comm) {
  if (options_.mode == Mode::PureMpi) return {};
  if (!any_device_buffer(a, b)) {
    return {Engine::Mpi, Engine::Mpi, 0, obs::FallbackReason::HostBuffer};
  }
  if (options_.mode == Mode::PureXccl) {
    return {Engine::Xccl, Engine::Xccl, 0, obs::FallbackReason::None};
  }
  const double agreed =
      mpi_.max_over_ranks(static_cast<double>(local_bytes), comm);
  return pick_table(op, static_cast<std::size_t>(agreed));
}

xccl::CclComm& XcclMpi::ccl_comm(mini::Comm& comm) {
  const fabric::ChannelId key = comm.p2p_channel();
  auto it = ccl_comms_.find(key);
  if (it != ccl_comms_.end()) return it->second;

  // Collective creation, mirroring the real bootstrap: the root generates a
  // unique id and broadcasts it over MPI; everyone joins.
  xccl::UniqueId id{};
  if (comm.rank() == 0) id = xccl::UniqueId::derive(key, ++ccl_comm_seq_);
  mpi_.bcast(&id, sizeof(id), mini::kByte, 0, comm);

  std::vector<int> world_ranks(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    world_ranks[static_cast<std::size_t>(r)] = comm.world_rank(r);
  }
  xccl::CclComm cc;
  throw_if_error(
      backend_->comm_init_rank(cc, comm.size(), id, comm.rank(), world_ranks),
      "XcclMpi: CCL communicator bootstrap");
  return ccl_comms_.emplace(key, std::move(cc)).first->second;
}

// ---- Plan/execute split -----------------------------------------------------

std::shared_ptr<const Plan> XcclMpi::plan_for(const CollArgs& a) {
  const std::size_t bytes = a.bytes();
  PlanKey key;
  key.op = a.op;
  key.base = a.dt.base;
  key.redop = a.redop;
  key.device = any_device_buffer(a.sendbuf, a.recvbuf);
  key.size_class = plan_size_class(bytes);
  key.comm_uid = a.comm->uid();
  if (std::shared_ptr<Plan> hit = plans_.find(key, bytes)) {
    // Chain validity: a hier plan is only good at the level-config epoch it
    // captured (the spec changing between reconfigurations must miss, not
    // replay stale subcommunicators). set_hier_levels purges eagerly; this
    // guards direct hier().set_levels() callers too.
    if (hit->hier == nullptr || hit->hier_epoch == hier_->config_epoch()) {
      ctr_plan_hit_->add(1, rank());
      return hit;
    }
  }
  // Every key component is identical on every member of `comm` for a given
  // call site (uids are rank-local values but assigned in the same order),
  // so hit/miss agrees across ranks and the collective build cannot skew.
  ctr_plan_miss_->add(1, rank());
  std::shared_ptr<Plan> plan = build_plan(key, a.op, bytes, *a.comm);
  const std::size_t evicted = plans_.insert(plan);
  if (evicted > 0) ctr_plan_evict_->add(evicted, rank());
  return plan;
}

std::shared_ptr<Plan> XcclMpi::build_plan(const PlanKey& key, CollOp op,
                                          std::size_t bytes, mini::Comm& comm) {
  const double t0 = context().clock().now();
  obs::Span span(rank(), context().clock(), "plan.build", "core.plan");
  auto plan = std::make_shared<Plan>();
  plan->key = key;
  plan->id = next_plan_id();
  plan->mode = options_.mode;
  plan->pick = pick_classified(op, bytes, key.device);
  // Validity band: the byte range over which the matched tuning rule (and
  // thus this plan's engine) holds. Only Hybrid device dispatches consult
  // the table; everything else decides independently of the byte count.
  if (options_.mode == Mode::Hybrid && key.device) {
    if (const auto* rules = effective_rules(op); rules != nullptr) {
      std::size_t lo = 0;
      for (const TuningTable::Entry& e : *rules) {
        // select_entry extends the last rule to SIZE_MAX.
        const std::size_t hi = (&e == &rules->back()) ? SIZE_MAX : e.max_bytes;
        if (bytes <= hi) {
          plan->min_bytes = lo;
          plan->max_bytes = hi;
          break;
        }
        lo = e.max_bytes + 1;
      }
    }
  }
  // Resolve per-communicator resources now so start()/cache hits never pay
  // the bootstrap or the splits. Both resolutions are collective on first
  // use, which is safe exactly because builds are rank-uniform (above).
  if (plan->pick.engine == Engine::Xccl) {
    plan->ccl = &ccl_comm(comm);
  } else if (plan->pick.engine == Engine::Hier) {
    plan->hier = &hier_->prepare(comm);
    plan->hier_epoch = hier_->config_epoch();
    if (op == CollOp::Allreduce && plan->hier->usable && bytes > 0) {
      plan->resident_bytes = hier_->reserve_allreduce(
          *plan->hier, bytes / datatype_size(key.base), key.base);
    }
  }
  plan->build_us = context().clock().now() - t0;
  return plan;
}

XcclMpi::ScopedOpTimer::ScopedOpTimer(XcclMpi& rt, CollOp op)
    : rt_(&rt),
      op_(op),
      t0_(rt.context().clock().now()),
      seq0_(rt.note_seq_),
      fleet_seq_(obs::fleet::dispatch_enter(rt.rank(), op, t0_)) {
  // Cleared so a dispatch that never consults the plan cache (composed ops,
  // scan) does not inherit the previous call's plan id in its flight record.
  rt.current_plan_id_ = 0;
}

XcclMpi::ScopedOpTimer::~ScopedOpTimer() {
  // The dispatch never reached note() (it threw first): there is no current
  // engine/byte record for this call, so recording anything would attribute
  // the sample to the previous call. Drop it.
  if (rt_->note_seq_ == seq0_) {
    obs::fleet::dispatch_abort(rt_->rank());
    return;
  }
  const double now = rt_->context().clock().now();
  const double elapsed = now - t0_;
  OpProfile& prof = rt_->op_profiles_[op_];
  const std::uint64_t bytes = rt_->last_bytes_;
  switch (rt_->last_.engine) {
    case Engine::Xccl:
      ++prof.xccl_calls;
      prof.xccl_bytes += bytes;
      prof.xccl_us += elapsed;
      break;
    case Engine::Hier:
      ++prof.hier_calls;
      prof.hier_bytes += bytes;
      prof.hier_us += elapsed;
      break;
    case Engine::Mpi:
      ++prof.mpi_calls;
      prof.mpi_bytes += bytes;
      prof.mpi_us += elapsed;
      break;
  }
  obs::Registry::instance().record_latency(op_, rt_->last_.engine, bytes,
                                           elapsed);
  // Slow-call hook: the flight recorder keeps the top-K slowest dispatches
  // joined with the decision that routed them (fast path: one relaxed load).
  obs::FlightRecorder::instance().record(
      obs::FlightRecord{op_, rt_->last_.engine, bytes, rt_->rank(), t0_, now,
                        rt_->last_decision_, rt_->current_plan_id_});
  sim::Trace::instance().record(rt_->rank(), to_string(op_),
                                to_string(rt_->last_.engine), t0_, now);
  obs::fleet::dispatch_exit(rt_->rank(), fleet_seq_, op_, bytes,
                            rt_->last_.engine, now);
}

std::string XcclMpi::profile_report() const {
  std::ostringstream os;
  os << "collective        mpi-calls   mpi-us  mpi-bytes  xccl-calls  xccl-us "
        "xccl-bytes  hier-calls  hier-us hier-bytes\n";
  for (const auto& [op, prof] : op_profiles_) {
    char line[240];
    std::snprintf(
        line, sizeof(line),
        "%-16s %10llu %10.1f %10llu %10llu %10.1f %10llu %10llu %10.1f "
        "%10llu\n",
        std::string(to_string(op)).c_str(),
        static_cast<unsigned long long>(prof.mpi_calls), prof.mpi_us,
        static_cast<unsigned long long>(prof.mpi_bytes),
        static_cast<unsigned long long>(prof.xccl_calls), prof.xccl_us,
        static_cast<unsigned long long>(prof.xccl_bytes),
        static_cast<unsigned long long>(prof.hier_calls), prof.hier_us,
        static_cast<unsigned long long>(prof.hier_bytes));
    os << line;
  }
  return os.str();
}

void XcclMpi::note(const Route& route, Engine engine, bool fell_back,
                   bool composed, obs::FallbackReason reason,
                   std::string level_path) {
  note(engine, route.bytes, fell_back, composed);

  obs::DispatchDecision d;
  d.rank = rank();
  d.op = route.op;
  d.bytes = route.bytes;
  d.mode = route.mode;
  d.breakpoint = route.pick.breakpoint;
  d.table_choice = route.pick.table_choice;
  d.engine = engine;
  d.reason = reason;
  d.fell_back = fell_back;
  d.composed = composed;
  d.level_path = std::move(level_path);
  d.time_us = context().clock().now();
  // A replay's routing is explained by its init-time ring entry; its record
  // keeps seq 0, marking it synthetic.
  if (route.flavor != Flavor::Replay) {
    d.seq = obs::DecisionLog::instance().push(d);
  }
  last_decision_ = std::move(d);

  obs::Registry::instance().record_call(route.op, engine, rank(), route.bytes);
}

void XcclMpi::note(Engine engine, std::size_t bytes, bool fell_back,
                   bool composed) {
  ++note_seq_;
  last_ = Dispatch{engine, fell_back, composed};
  last_bytes_ = bytes;
  switch (engine) {
    case Engine::Xccl:
      ++stats_.xccl_calls;
      stats_.xccl_bytes += bytes;
      break;
    case Engine::Hier:
      ++stats_.hier_calls;
      stats_.hier_bytes += bytes;
      break;
    case Engine::Mpi:
      ++stats_.mpi_calls;
      stats_.mpi_bytes += bytes;
      break;
  }
  if (fell_back) ++stats_.fallbacks;
}

bool XcclMpi::settle_xccl(XcclResult r, const Route& route, bool composed) {
  if (ok(r)) {
    if (route.flavor == Flavor::Blocking) {
      context().stream().synchronize(context().clock());
    }
    // Success keeps the pick's own reason: a hier->xccl remap made at pick
    // time (HierOpUnsupported) stays visible in the decision log.
    note(route, Engine::Xccl, false, composed, route.pick.reason);
    return true;
  }
  if (!options_.allow_fallback || !is_fallback_result(r)) {
    throw Error("XcclMpi::" + std::string(to_string(route.op)) +
                ": xccl path failed: " + std::string(to_string(r)));
  }
  MPIXCCL_LOG_DEBUG("core", "fallback to MPI: ", to_string(r));
  note(route, Engine::Mpi, true, false, obs::fallback_reason_of(r));
  return false;
}

// ---- Plan-backed collectives: one path for every flavour -------------------

CollArgs CollArgs::allreduce(const void* sendbuf, void* recvbuf,
                             std::size_t count, mini::Datatype dt, ReduceOp op,
                             mini::Comm& comm) {
  if (sendbuf == mini::kInPlace) sendbuf = recvbuf;
  return {CollOp::Allreduce, sendbuf, recvbuf, count, dt, count, dt, op, 0,
          &comm};
}

CollArgs CollArgs::bcast(void* buf, std::size_t count, mini::Datatype dt,
                         int root, mini::Comm& comm) {
  return {CollOp::Bcast, nullptr, buf, count, dt, count, dt, ReduceOp::Sum,
          root, &comm};
}

CollArgs CollArgs::reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                          mini::Datatype dt, ReduceOp op, int root,
                          mini::Comm& comm) {
  if (sendbuf == mini::kInPlace && comm.rank() == root) sendbuf = recvbuf;
  return {CollOp::Reduce, sendbuf, recvbuf, count, dt, count, dt, op, root,
          &comm};
}

CollArgs CollArgs::allgather(const void* sendbuf, std::size_t sendcount,
                             mini::Datatype st, void* recvbuf,
                             std::size_t recvcount, mini::Datatype rt,
                             mini::Comm& comm) {
  if (sendbuf == mini::kInPlace) {
    sendbuf = cat(recvbuf, static_cast<std::size_t>(comm.rank()) * recvcount *
                               rt.size());
    sendcount = recvcount;
    st = rt;
  }
  return {CollOp::Allgather, sendbuf, recvbuf, sendcount, st, recvcount, rt,
          ReduceOp::Sum, 0, &comm};
}

CollArgs CollArgs::reduce_scatter(const void* sendbuf, void* recvbuf,
                                  std::size_t recvcount, mini::Datatype dt,
                                  ReduceOp op, mini::Comm& comm) {
  // Rejected up front so no engine ever sees the sentinel (the CCL path
  // would read through it).
  require(sendbuf != mini::kInPlace,
          "reduce_scatter_block: MPI_IN_PLACE not supported");
  return {CollOp::ReduceScatter, sendbuf, recvbuf, recvcount, dt, recvcount, dt,
          op, 0, &comm};
}

mini::Request XcclMpi::start(const Plan& p, const CollArgs& a,
                             Flavor flavor) {
  std::optional<obs::Span> span;
  if (flavor == Flavor::Replay) {
    span.emplace(rank(), context().clock(), "plan.exec", "core.plan");
  }
  current_plan_id_ = p.id;
  obs::fleet::note_plan(rank(), p.id);
  const Route route{a.op, a.bytes(), p.pick, p.mode, flavor};
  if (p.pick.engine == Engine::Hier) {
    // The hierarchical engine is host-driven (its stages block on MiniMPI),
    // so like the MPI engine it completes before returning.
    if (run_hier(p, a)) {
      note(route, Engine::Hier, false, true, obs::FallbackReason::None,
           p.hier->level_path);
      return mini::Request::completed(context().clock().now());
    }
    // Not node-blocked (or op/type outside hier's set): flat MPI.
    note(route, Engine::Mpi, true, false,
         p.hier->usable ? obs::FallbackReason::HierOpUnsupported
                        : obs::FallbackReason::HierTopoMismatch);
  } else if (p.pick.engine == Engine::Xccl && a.dt.size() == a.rdt.size()) {
    // Nonblocking and replayed launches leave the work on the stream: the
    // request completes at its tail, so the caller overlaps compute.
    if (settle_xccl(run_xccl(p, a), route, false)) {
      return mini::Request::completed(context().stream().tail());
    }
  } else {
    // pick==Xccl with differing element sizes means the 1:1 builtin cannot
    // serve the call (mixed datatypes); the table's Mpi picks land here too.
    note(route, Engine::Mpi, false, false,
         p.pick.engine == Engine::Xccl ? obs::FallbackReason::MixedDatatype
                                       : p.pick.reason);
  }
  run_mpi(a);
  return mini::Request::completed(context().clock().now());
}

XcclResult XcclMpi::run_xccl(const Plan& p, const CollArgs& a) {
  device::Stream& stream = context().stream();
  const std::size_t n = a.count * a.dt.count;
  switch (a.op) {
    case CollOp::Allreduce:
      return backend_->all_reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop,
                                  *p.ccl, stream);
    case CollOp::Bcast:
      return backend_->broadcast(a.recvbuf, n, a.dt.base, a.root, *p.ccl,
                                 stream);
    case CollOp::Reduce:
      return backend_->reduce(a.sendbuf, a.recvbuf, n, a.dt.base, a.redop,
                              a.root, *p.ccl, stream);
    case CollOp::Allgather:
      return backend_->all_gather(a.sendbuf, a.recvbuf, n, a.dt.base, *p.ccl,
                                  stream);
    case CollOp::ReduceScatter:
      return backend_->reduce_scatter(a.sendbuf, a.recvbuf, n, a.dt.base,
                                      a.redop, *p.ccl, stream);
    default:
      return XcclResult::InvalidUsage;  // no CollArgs builder makes these
  }
}

bool XcclMpi::run_hier(const Plan& p, const CollArgs& a) {
  mini::Comm& comm = *a.comm;
  switch (a.op) {
    case CollOp::Allreduce:
      return hier_->allreduce(*p.hier, a.sendbuf, a.recvbuf, a.count, a.dt,
                              a.redop, comm);
    case CollOp::Bcast:
      return hier_->bcast(*p.hier, a.recvbuf, a.count, a.dt, a.root, comm);
    case CollOp::Reduce:
      return hier_->reduce(*p.hier, a.sendbuf, a.recvbuf, a.count, a.dt,
                           a.redop, a.root, comm);
    case CollOp::Allgather:
      return hier_->allgather(*p.hier, a.sendbuf, a.count, a.dt, a.recvbuf,
                              a.rcount, a.rdt, comm);
    case CollOp::ReduceScatter:
      return hier_->reduce_scatter_block(*p.hier, a.sendbuf, a.recvbuf,
                                         a.count, a.dt, a.redop, comm);
    default:
      return false;  // no CollArgs builder makes these
  }
}

void XcclMpi::run_mpi(const CollArgs& a) {
  mini::Comm& comm = *a.comm;
  switch (a.op) {
    case CollOp::Allreduce:
      mpi_.allreduce(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop, comm);
      return;
    case CollOp::Bcast:
      mpi_.bcast(a.recvbuf, a.count, a.dt, a.root, comm);
      return;
    case CollOp::Reduce:
      mpi_.reduce(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop, a.root, comm);
      return;
    case CollOp::Allgather:
      mpi_.allgather(a.sendbuf, a.count, a.dt, a.recvbuf, a.rcount, a.rdt,
                     comm);
      return;
    case CollOp::ReduceScatter:
      mpi_.reduce_scatter_block(a.sendbuf, a.recvbuf, a.count, a.dt, a.redop,
                                comm);
      return;
    default:
      throw Error("XcclMpi: " + std::string(to_string(a.op)) +
                  " has no plan-backed path");
  }
}

void XcclMpi::barrier(mini::Comm& comm) {
  // Barriers carry no data: the MPI dissemination barrier is strictly
  // cheaper than a CCL launch, so the hybrid always routes it to MPI.
  note(Engine::Mpi, 0, false, false);
  mpi_.barrier(comm);
}

void XcclMpi::allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Allreduce);
  const CollArgs a = CollArgs::allreduce(sendbuf, recvbuf, count, dt, op, comm);
  start(*plan_for(a), a, Flavor::Blocking);
}

void XcclMpi::bcast(void* buf, std::size_t count, mini::Datatype dt, int root,
                    mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Bcast);
  const CollArgs a = CollArgs::bcast(buf, count, dt, root, comm);
  start(*plan_for(a), a, Flavor::Blocking);
}

void XcclMpi::reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     mini::Datatype dt, ReduceOp op, int root, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Reduce);
  const CollArgs a =
      CollArgs::reduce(sendbuf, recvbuf, count, dt, op, root, comm);
  start(*plan_for(a), a, Flavor::Blocking);
}

void XcclMpi::allgather(const void* sendbuf, std::size_t sendcount,
                        mini::Datatype st, void* recvbuf, std::size_t recvcount,
                        mini::Datatype rt, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Allgather);
  const CollArgs a = CollArgs::allgather(sendbuf, sendcount, st, recvbuf,
                                         recvcount, rt, comm);
  start(*plan_for(a), a, Flavor::Blocking);
}

void XcclMpi::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype dt,
                                   ReduceOp op, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::ReduceScatter);
  const CollArgs a =
      CollArgs::reduce_scatter(sendbuf, recvbuf, recvcount, dt, op, comm);
  start(*plan_for(a), a, Flavor::Blocking);
}

// ---- Nonblocking collectives -------------------------------------------------

mini::Request XcclMpi::iallreduce(const void* sendbuf, void* recvbuf,
                                  std::size_t count, mini::Datatype dt,
                                  ReduceOp op, mini::Comm& comm) {
  const CollArgs a = CollArgs::allreduce(sendbuf, recvbuf, count, dt, op, comm);
  return start(*plan_for(a), a, Flavor::Nonblocking);
}

mini::Request XcclMpi::ibcast(void* buf, std::size_t count, mini::Datatype dt,
                              int root, mini::Comm& comm) {
  const CollArgs a = CollArgs::bcast(buf, count, dt, root, comm);
  return start(*plan_for(a), a, Flavor::Nonblocking);
}

mini::Request XcclMpi::iallgather(const void* sendbuf, std::size_t sendcount,
                                  mini::Datatype st, void* recvbuf,
                                  std::size_t recvcount, mini::Datatype rt,
                                  mini::Comm& comm) {
  const CollArgs a = CollArgs::allgather(sendbuf, sendcount, st, recvbuf,
                                         recvcount, rt, comm);
  return start(*plan_for(a), a, Flavor::Nonblocking);
}

mini::Request XcclMpi::ireduce(const void* sendbuf, void* recvbuf,
                               std::size_t count, mini::Datatype dt, ReduceOp op,
                               int root, mini::Comm& comm) {
  const CollArgs a =
      CollArgs::reduce(sendbuf, recvbuf, count, dt, op, root, comm);
  return start(*plan_for(a), a, Flavor::Nonblocking);
}

// ---- Persistent collectives -------------------------------------------------

Persistent XcclMpi::make_persistent(const CollArgs& a) {
  Persistent h;
  h.rt_ = this;
  h.plan_ = plan_for(a);
  h.args_ = a;
  // One init-time decision-log entry explains every subsequent start():
  // replays update last_decision() but never the ring (Flavor::Replay).
  const Plan& p = *h.plan_;
  obs::DispatchDecision d;
  d.rank = rank();
  d.op = a.op;
  d.bytes = a.bytes();
  d.mode = p.mode;
  d.breakpoint = p.pick.breakpoint;
  d.table_choice = p.pick.table_choice;
  d.engine = p.pick.engine;
  d.reason = p.pick.reason;
  if (p.hier != nullptr && p.hier->usable) d.level_path = p.hier->level_path;
  d.time_us = context().clock().now();
  obs::DecisionLog::instance().push(d);
  return h;
}

Persistent XcclMpi::allreduce_init(const void* sendbuf, void* recvbuf,
                                   std::size_t count, mini::Datatype dt,
                                   ReduceOp op, mini::Comm& comm) {
  return make_persistent(
      CollArgs::allreduce(sendbuf, recvbuf, count, dt, op, comm));
}

Persistent XcclMpi::bcast_init(void* buf, std::size_t count, mini::Datatype dt,
                               int root, mini::Comm& comm) {
  return make_persistent(CollArgs::bcast(buf, count, dt, root, comm));
}

Persistent XcclMpi::reduce_init(const void* sendbuf, void* recvbuf,
                                std::size_t count, mini::Datatype dt,
                                ReduceOp op, int root, mini::Comm& comm) {
  return make_persistent(
      CollArgs::reduce(sendbuf, recvbuf, count, dt, op, root, comm));
}

Persistent XcclMpi::allgather_init(const void* sendbuf, std::size_t sendcount,
                                   mini::Datatype st, void* recvbuf,
                                   std::size_t recvcount, mini::Datatype rt,
                                   mini::Comm& comm) {
  return make_persistent(CollArgs::allgather(sendbuf, sendcount, st, recvbuf,
                                             recvcount, rt, comm));
}

Persistent XcclMpi::reduce_scatter_init(const void* sendbuf, void* recvbuf,
                                        std::size_t recvcount,
                                        mini::Datatype dt, ReduceOp op,
                                        mini::Comm& comm) {
  return make_persistent(
      CollArgs::reduce_scatter(sendbuf, recvbuf, recvcount, dt, op, comm));
}

// ---- Composed send/recv collectives (paper Sec. 3.3, Listing 1) -----------

template <class Compose>
bool XcclMpi::composed_xccl(CollOp op, std::size_t bytes,
                            const EnginePick& pick, Compose&& compose) {
  const Route route{op, bytes, pick, options_.mode, Flavor::Blocking};
  if (pick.engine != Engine::Xccl) {
    note(route, Engine::Mpi, false, false, pick.reason);
    return false;
  }
  return settle_xccl(compose(), route, true);
}

template <class Post>
XcclResult XcclMpi::grouped(std::string_view span_name, mini::Datatype st,
                            mini::Datatype rt, mini::Comm& comm, Post&& post) {
  const auto& caps = backend_->capabilities();
  if (!caps.can_move(st.base) || !caps.can_move(rt.base)) {
    return XcclResult::UnsupportedDatatype;
  }
  xccl::CclComm& cc = ccl_comm(comm);
  obs::Span span(rank(), context().clock(), span_name, "xccl.stage");
  throw_if_error(backend_->group_start(), "xccl group_start");
  post(cc, context().stream());
  throw_if_error(backend_->group_end(), "xccl group_end");
  return XcclResult::Success;
}

XcclResult XcclMpi::x_alltoallv(const void* sendbuf,
                                std::span<const std::size_t> sendcounts,
                                std::span<const std::size_t> sdispls,
                                mini::Datatype st, void* recvbuf,
                                std::span<const std::size_t> recvcounts,
                                std::span<const std::size_t> rdispls,
                                mini::Datatype rt, mini::Comm& comm) {
  // Listing 1: one group enclosing a send and a recv per peer.
  return grouped(
      "alltoallv.group", st, rt, comm,
      [&](xccl::CclComm& cc, device::Stream& stream) {
        for (int r = 0; r < comm.size(); ++r) {
          const auto ur = static_cast<std::size_t>(r);
          throw_if_error(backend_->send(cat(sendbuf, sdispls[ur] * st.size()),
                                        sendcounts[ur] * st.count, st.base, r,
                                        cc, stream),
                         "x_alltoallv send");
          throw_if_error(backend_->recv(mat(recvbuf, rdispls[ur] * rt.size()),
                                        recvcounts[ur] * rt.count, rt.base, r,
                                        cc, stream),
                         "x_alltoallv recv");
        }
      });
}

void XcclMpi::alltoall(const void* sendbuf, std::size_t sendcount,
                       mini::Datatype st, void* recvbuf, std::size_t recvcount,
                       mini::Datatype rt, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Alltoall);
  if (sendbuf == mini::kInPlace) {
    // In-place alltoall reads and writes the same blocks; the MPI engine
    // snapshots the buffer, the grouped xCCL composition cannot.
    note({CollOp::Alltoall, recvcount * rt.size(), {}, options_.mode,
          Flavor::Blocking},
         Engine::Mpi, false, false, obs::FallbackReason::InPlace);
    mpi_.alltoall(sendbuf, sendcount, st, recvbuf, recvcount, rt, comm);
    return;
  }
  const std::size_t bytes = sendcount * st.size();
  const EnginePick pick = pick_engine(CollOp::Alltoall, bytes, sendbuf, recvbuf);
  if (composed_xccl(CollOp::Alltoall, bytes, pick, [&] {
        const auto up = static_cast<std::size_t>(comm.size());
        std::vector<std::size_t> counts(up, sendcount);
        std::vector<std::size_t> sdispls(up);
        std::vector<std::size_t> rdispls(up);
        for (std::size_t r = 0; r < up; ++r) {
          sdispls[r] = r * sendcount;
          rdispls[r] = r * recvcount;
        }
        return x_alltoallv(sendbuf, counts, sdispls, st, recvbuf, counts,
                           rdispls, rt, comm);
      })) {
    return;
  }
  mpi_.alltoall(sendbuf, sendcount, st, recvbuf, recvcount, rt, comm);
}

void XcclMpi::alltoallv(const void* sendbuf,
                        std::span<const std::size_t> sendcounts,
                        std::span<const std::size_t> sdispls, mini::Datatype st,
                        void* recvbuf, std::span<const std::size_t> recvcounts,
                        std::span<const std::size_t> rdispls, mini::Datatype rt,
                        mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Alltoallv);
  std::size_t max_block = 0;
  for (std::size_t c : sendcounts) max_block = std::max(max_block, c * st.size());
  const EnginePick pick =
      pick_engine_agreed(CollOp::Alltoallv, max_block, sendbuf, recvbuf, comm);
  if (composed_xccl(CollOp::Alltoallv, max_block, pick, [&] {
        return x_alltoallv(sendbuf, sendcounts, sdispls, st, recvbuf,
                           recvcounts, rdispls, rt, comm);
      })) {
    return;
  }
  mpi_.alltoallv(sendbuf, sendcounts, sdispls, st, recvbuf, recvcounts, rdispls,
                 rt, comm);
}

XcclResult XcclMpi::x_gatherv(const void* sendbuf, std::size_t sendcount,
                              mini::Datatype st, void* recvbuf,
                              std::span<const std::size_t> recvcounts,
                              std::span<const std::size_t> displs,
                              mini::Datatype rt, int root, mini::Comm& comm) {
  return grouped(
      "gatherv.group", st, rt, comm,
      [&](xccl::CclComm& cc, device::Stream& stream) {
        throw_if_error(backend_->send(sendbuf, sendcount * st.count, st.base,
                                      root, cc, stream),
                       "x_gatherv send");
        if (comm.rank() != root) return;
        for (int r = 0; r < comm.size(); ++r) {
          const auto ur = static_cast<std::size_t>(r);
          throw_if_error(backend_->recv(mat(recvbuf, displs[ur] * rt.size()),
                                        recvcounts[ur] * rt.count, rt.base, r,
                                        cc, stream),
                         "x_gatherv recv");
        }
      });
}

void XcclMpi::gather(const void* sendbuf, std::size_t sendcount, mini::Datatype st,
                     void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                     int root, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Gather);
  const std::size_t bytes = sendcount * st.size();
  const EnginePick pick = pick_engine(CollOp::Gather, bytes, sendbuf, recvbuf);
  if (composed_xccl(CollOp::Gather, bytes, pick, [&] {
        const auto up = static_cast<std::size_t>(comm.size());
        std::vector<std::size_t> counts(up, recvcount);
        std::vector<std::size_t> displs(up);
        for (std::size_t r = 0; r < up; ++r) displs[r] = r * recvcount;
        return x_gatherv(sendbuf, sendcount, st, recvbuf, counts, displs, rt,
                         root, comm);
      })) {
    return;
  }
  mpi_.gather(sendbuf, sendcount, st, recvbuf, recvcount, rt, root, comm);
}

void XcclMpi::gatherv(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf,
                      std::span<const std::size_t> recvcounts,
                      std::span<const std::size_t> displs, mini::Datatype rt,
                      int root, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Gather);
  const std::size_t bytes = sendcount * st.size();
  const EnginePick pick =
      pick_engine_agreed(CollOp::Gather, bytes, sendbuf, recvbuf, comm);
  if (composed_xccl(CollOp::Gather, bytes, pick, [&] {
        return x_gatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs,
                         rt, root, comm);
      })) {
    return;
  }
  mpi_.gatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs, rt, root,
               comm);
}

XcclResult XcclMpi::x_scatterv(const void* sendbuf,
                               std::span<const std::size_t> sendcounts,
                               std::span<const std::size_t> displs,
                               mini::Datatype st, void* recvbuf,
                               std::size_t recvcount, mini::Datatype rt, int root,
                               mini::Comm& comm) {
  return grouped(
      "scatterv.group", st, rt, comm,
      [&](xccl::CclComm& cc, device::Stream& stream) {
        if (comm.rank() == root) {
          for (int r = 0; r < comm.size(); ++r) {
            const auto ur = static_cast<std::size_t>(r);
            throw_if_error(backend_->send(cat(sendbuf, displs[ur] * st.size()),
                                          sendcounts[ur] * st.count, st.base, r,
                                          cc, stream),
                           "x_scatterv send");
          }
        }
        throw_if_error(backend_->recv(recvbuf, recvcount * rt.count, rt.base,
                                      root, cc, stream),
                       "x_scatterv recv");
      });
}

void XcclMpi::scatter(const void* sendbuf, std::size_t sendcount,
                      mini::Datatype st, void* recvbuf, std::size_t recvcount,
                      mini::Datatype rt, int root, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Scatter);
  const std::size_t bytes = recvcount * rt.size();
  const EnginePick pick = pick_engine(CollOp::Scatter, bytes, sendbuf, recvbuf);
  if (composed_xccl(CollOp::Scatter, bytes, pick, [&] {
        const auto up = static_cast<std::size_t>(comm.size());
        std::vector<std::size_t> counts(up, sendcount);
        std::vector<std::size_t> displs(up);
        for (std::size_t r = 0; r < up; ++r) displs[r] = r * sendcount;
        return x_scatterv(sendbuf, counts, displs, st, recvbuf, recvcount, rt,
                          root, comm);
      })) {
    return;
  }
  mpi_.scatter(sendbuf, sendcount, st, recvbuf, recvcount, rt, root, comm);
}

void XcclMpi::scatterv(const void* sendbuf,
                       std::span<const std::size_t> sendcounts,
                       std::span<const std::size_t> displs, mini::Datatype st,
                       void* recvbuf, std::size_t recvcount, mini::Datatype rt,
                       int root, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Scatter);
  const std::size_t bytes = recvcount * rt.size();
  const EnginePick pick =
      pick_engine_agreed(CollOp::Scatter, bytes, sendbuf, recvbuf, comm);
  if (composed_xccl(CollOp::Scatter, bytes, pick, [&] {
        return x_scatterv(sendbuf, sendcounts, displs, st, recvbuf, recvcount,
                          rt, root, comm);
      })) {
    return;
  }
  mpi_.scatterv(sendbuf, sendcounts, displs, st, recvbuf, recvcount, rt, root,
                comm);
}

XcclResult XcclMpi::x_allgatherv(const void* sendbuf, std::size_t sendcount,
                                 mini::Datatype st, void* recvbuf,
                                 std::span<const std::size_t> recvcounts,
                                 std::span<const std::size_t> displs,
                                 mini::Datatype rt, mini::Comm& comm) {
  // Every rank sends its block to everyone and receives all blocks (no CCL
  // builtin handles ragged blocks).
  return grouped(
      "allgatherv.group", st, rt, comm,
      [&](xccl::CclComm& cc, device::Stream& stream) {
        for (int r = 0; r < comm.size(); ++r) {
          const auto ur = static_cast<std::size_t>(r);
          throw_if_error(backend_->send(sendbuf, sendcount * st.count, st.base,
                                        r, cc, stream),
                         "x_allgatherv send");
          throw_if_error(backend_->recv(mat(recvbuf, displs[ur] * rt.size()),
                                        recvcounts[ur] * rt.count, rt.base, r,
                                        cc, stream),
                         "x_allgatherv recv");
        }
      });
}

void XcclMpi::allgatherv(const void* sendbuf, std::size_t sendcount,
                         mini::Datatype st, void* recvbuf,
                         std::span<const std::size_t> recvcounts,
                         std::span<const std::size_t> displs, mini::Datatype rt,
                         mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Allgatherv);
  const std::size_t bytes = sendcount * st.size();
  const EnginePick pick =
      pick_engine_agreed(CollOp::Allgatherv, bytes, sendbuf, recvbuf, comm);
  if (composed_xccl(CollOp::Allgatherv, bytes, pick, [&] {
        return x_allgatherv(sendbuf, sendcount, st, recvbuf, recvcounts,
                            displs, rt, comm);
      })) {
    return;
  }
  mpi_.allgatherv(sendbuf, sendcount, st, recvbuf, recvcounts, displs, rt, comm);
}

void XcclMpi::scan(const void* sendbuf, void* recvbuf, std::size_t count,
                   mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Scan);
  // No CCL builtin and a serial dependency chain: always MPI.
  note({CollOp::Scan, count * dt.size(), {}, options_.mode, Flavor::Blocking},
       Engine::Mpi, false, false, obs::FallbackReason::None);
  mpi_.scan(sendbuf, recvbuf, count, dt, op, comm);
}

void XcclMpi::exscan(const void* sendbuf, void* recvbuf, std::size_t count,
                     mini::Datatype dt, ReduceOp op, mini::Comm& comm) {
  ScopedOpTimer timer(*this, CollOp::Scan);
  note({CollOp::Scan, count * dt.size(), {}, options_.mode, Flavor::Blocking},
       Engine::Mpi, false, false, obs::FallbackReason::None);
  mpi_.exscan(sendbuf, recvbuf, count, dt, op, comm);
}

}  // namespace mpixccl::core
