// sam_bench: runs one benchmark workload once, in-process, and prints one
// `name value unit` line per metric. benchmark/run.py builds it and drives
// it, one process per repetition:
//
//   sam_bench --workload=jacobi256|strided16|kv_zipf|kv_write --seed=N
//             [--traced] [--smoke]
//
// Two kinds of numbers come out, and the unit says which:
//   * host time (units s, ns): what the simulator costs on this machine.
//     setup_s and wall_s are always printed; --traced adds the per-layer
//     split of wall_s described below.
//   * virtual quantities (units virt_s, virt_us, ops/virt_s, count, B,
//     ratio): what the simulated platform does. They are deterministic, so
//     one workload and seed gives bit-identical lines on every run, traced
//     or not.
//
// Host-time attribution (--traced). TimedRuntime wraps the runtime and hands
// every kernel a TimedCtx, which forwards each rt::ThreadCtx call and reads
// steady_clock at its entry and exit. All fibers run on one host thread, so
// those boundaries form one time line, and each interval between two
// consecutive boundaries goes to exactly one bucket:
//   * entry -> exit of the same call, with no other fiber run in between
//     (sim_thread_resumes() advanced by less than 2): the call's bucket;
//   * exit (or body start) -> entry (or body end) on the same fiber: apps,
//     the kernel's own arithmetic;
//   * anything else, which always spans a fiber switch: sim.switch.
// A view counts as a miss when metrics(i).cache_misses moved across it.
// index(), nthreads() and view_granularity() are counted but not timed;
// their cost stays in the apps interval around them.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "api/sam_api.hpp"
#include "apps/jacobi.hpp"
#include "apps/kvstore.hpp"
#include "apps/microbench.hpp"
#include "core/samhita_runtime.hpp"

namespace {

using namespace sam;

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- host-time attribution ---------------------------------------------------

enum Bucket : int {
  kApps,
  kViewHit,
  kViewMiss,
  kSyncLock,  // lock, unlock, atomics
  kSyncCond,
  kSyncBarrier,
  kAlloc,
  kClock,  // charge_*, now, sleep_until, begin/end_measurement
  kSwitch,
  kBuckets
};

constexpr const char* kBucketNames[kBuckets] = {
    "apps.kernel_host_s",    "core.view_hit_host_s",     "core.view_miss_host_s",
    "core.sync_lock_host_s", "core.sync_cond_host_s",    "core.sync_barrier_host_s",
    "core.alloc_host_s",     "api.clock_host_s",         "sim.switch_host_s"};

class Tracer {
 public:
  void begin_run(const core::SamhitaRuntime* rt) {
    rt_ = rt;
    last_t_ = host_ns();
    last_fiber_ = kNoFiber;
    last_mark_ = Mark::kRun;
  }
  void end_run() {
    boundary(kNoFiber, Mark::kRun, kSwitch);
    resumes_ += rt_->sim_thread_resumes();
    rt_ = nullptr;
  }
  void body_start(std::uint32_t fiber) { boundary(fiber, Mark::kStart, kApps); }
  void body_end(std::uint32_t fiber) { boundary(fiber, Mark::kEnd, kApps); }
  void enter(std::uint32_t fiber) { boundary(fiber, Mark::kEnter, kApps); }
  void exit(std::uint32_t fiber, Bucket call) {
    const std::int64_t clean_ns = boundary(fiber, Mark::kExit, call);
    ++timed_calls_;
    if (call == kViewHit || call == kViewMiss) ++views_[call == kViewMiss];
    if (clean_ns < 0) {
      ++switched_calls_;
    } else if (call == kViewHit || call == kViewMiss || call == kSyncLock) {
      call_ns_[call].add(static_cast<double>(clean_ns));
    }
  }
  void count_call() { ++calls_; }
  void generator_lag(SimDuration lag_ns) { lag_.add(static_cast<double>(lag_ns)); }

  double bucket_s(Bucket b) const { return seconds(bucket_ns_[b]); }
  std::int64_t attributed_ns() const {
    std::int64_t sum = 0;
    for (const std::int64_t ns : bucket_ns_) sum += ns;
    return sum;
  }
  std::uint64_t api_calls() const { return calls_ + timed_calls_; }
  std::uint64_t timed_calls() const { return timed_calls_; }
  std::uint64_t switched_calls() const { return switched_calls_; }
  std::uint64_t resumes() const { return resumes_; }
  std::uint64_t views(bool miss) const { return views_[miss]; }
  double call_ns(Bucket b, double pct) const {
    return call_ns_[b].count() ? call_ns_[b].percentile(pct) : 0.0;
  }
  double generator_lag_p99_ns() const { return lag_.count() ? lag_.percentile(99.0) : 0.0; }

 private:
  enum class Mark { kRun, kStart, kEnd, kEnter, kExit };
  static constexpr std::uint32_t kNoFiber = ~0u;

  /// Closes the interval since the previous boundary, charging it to one
  /// bucket, and opens the next. Returns the interval's length when it was a
  /// call of `fiber` with no switch inside it, else -1.
  std::int64_t boundary(std::uint32_t fiber, Mark mark, Bucket call) {
    const std::int64_t t = host_ns();
    const std::uint64_t resumes = rt_->sim_thread_resumes();
    const std::int64_t d = t - last_t_;
    Bucket b = kSwitch;
    std::int64_t clean_ns = -1;
    if (fiber == last_fiber_ && fiber != kNoFiber) {
      if (last_mark_ == Mark::kEnter && mark == Mark::kExit) {
        if (resumes - last_resumes_ < 2) {
          b = call;
          clean_ns = d;
        }
      } else if ((last_mark_ == Mark::kExit || last_mark_ == Mark::kStart) &&
                 (mark == Mark::kEnter || mark == Mark::kEnd)) {
        b = kApps;
      }
    }
    bucket_ns_[b] += d;
    last_t_ = t;
    last_fiber_ = fiber;
    last_mark_ = mark;
    last_resumes_ = resumes;
    return clean_ns;
  }

  const core::SamhitaRuntime* rt_ = nullptr;
  std::int64_t last_t_ = 0;
  std::uint32_t last_fiber_ = kNoFiber;
  Mark last_mark_ = Mark::kRun;
  std::uint64_t last_resumes_ = 0;

  std::int64_t bucket_ns_[kBuckets] = {};
  std::uint64_t calls_ = 0;  // untimed accessor calls
  std::uint64_t timed_calls_ = 0;
  std::uint64_t switched_calls_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t views_[2] = {};  // [hit, miss]
  util::Histogram call_ns_[kBuckets];
  util::Histogram lag_;
};

/// Forwards every rt::ThreadCtx call to the runtime's own context and
/// reports its boundaries to the Tracer. Observes only: virtual results are
/// bit-identical with and without it, which run.py checks.
class TimedCtx final : public api::ThreadCtx {
 public:
  TimedCtx(api::ThreadCtx& inner, Tracer& tracer, const core::Metrics& metrics)
      : inner_(inner), tracer_(tracer), metrics_(metrics), fiber_(inner.index()) {}

 private:
  // Defined ahead of the overrides: their deduced return types are used there.
  template <typename Fn>
  auto timed(Bucket b, Fn&& fn) const {
    tracer_.enter(fiber_);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      tracer_.exit(fiber_, b);
    } else {
      auto r = fn();
      tracer_.exit(fiber_, b);
      return r;
    }
  }

  template <typename Fn>
  auto view(Fn&& fn) {
    const std::uint64_t misses = metrics_.cache_misses;
    tracer_.enter(fiber_);
    auto r = fn();
    tracer_.exit(fiber_, metrics_.cache_misses != misses ? kViewMiss : kViewHit);
    return r;
  }

 public:
  std::uint32_t index() const override {
    tracer_.count_call();
    return inner_.index();
  }
  std::uint32_t nthreads() const override {
    tracer_.count_call();
    return inner_.nthreads();
  }
  std::size_t view_granularity() const override {
    tracer_.count_call();
    return inner_.view_granularity();
  }
  SimTime now() const override {
    return timed(kClock, [&] { return inner_.now(); });
  }

  api::Addr alloc(std::size_t bytes) override {
    return timed(kAlloc, [&] { return inner_.alloc(bytes); });
  }
  api::Addr alloc_shared(std::size_t bytes) override {
    return timed(kAlloc, [&] { return inner_.alloc_shared(bytes); });
  }
  void free(api::Addr addr) override {
    timed(kAlloc, [&] { inner_.free(addr); });
  }

  std::span<const std::byte> read_view(api::Addr addr, std::size_t bytes) override {
    return view([&] { return inner_.read_view(addr, bytes); });
  }
  std::span<std::byte> write_view(api::Addr addr, std::size_t bytes) override {
    return view([&] { return inner_.write_view(addr, bytes); });
  }

  void charge_flops(double flops) override {
    timed(kClock, [&] { inner_.charge_flops(flops); });
  }
  void charge_mem_ops(std::uint64_t loads, std::uint64_t stores) override {
    timed(kClock, [&] { inner_.charge_mem_ops(loads, stores); });
  }

  void lock(api::MutexId m) override {
    timed(kSyncLock, [&] { inner_.lock(m); });
  }
  void unlock(api::MutexId m) override {
    timed(kSyncLock, [&] { inner_.unlock(m); });
  }
  std::uint64_t atomic_rmw(api::Addr addr, std::size_t width, rt::RmwOp op,
                           std::uint64_t a, std::uint64_t b) override {
    return timed(kSyncLock, [&] { return inner_.atomic_rmw(addr, width, op, a, b); });
  }
  void cond_wait(api::CondId c, api::MutexId m) override {
    timed(kSyncCond, [&] { inner_.cond_wait(c, m); });
  }
  void cond_signal(api::CondId c) override {
    timed(kSyncCond, [&] { inner_.cond_signal(c); });
  }
  void cond_broadcast(api::CondId c) override {
    timed(kSyncCond, [&] { inner_.cond_broadcast(c); });
  }
  void barrier(api::BarrierId b) override {
    timed(kSyncBarrier, [&] { inner_.barrier(b); });
  }

  void sleep_until(SimTime t) override {
    // The open-loop generator's lateness: how far past its scheduled
    // arrival the client already was when it asked to wait for it.
    const SimTime at = inner_.now();
    tracer_.generator_lag(at > t ? at - t : 0);
    timed(kClock, [&] { inner_.sleep_until(t); });
  }
  void begin_measurement() override {
    timed(kClock, [&] { inner_.begin_measurement(); });
  }
  void end_measurement() override {
    timed(kClock, [&] { inner_.end_measurement(); });
  }

 private:
  api::ThreadCtx& inner_;
  Tracer& tracer_;
  const core::Metrics& metrics_;
  std::uint32_t fiber_;
};

/// Forwards rt::Runtime to a SamhitaRuntime, accumulating the host wall
/// time of parallel_run. With a Tracer, each kernel sees a TimedCtx.
class TimedRuntime final : public api::Runtime {
 public:
  TimedRuntime(core::SamhitaRuntime& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  const std::string& name() const override { return inner_.name(); }
  api::MutexId create_mutex() override { return inner_.create_mutex(); }
  api::CondId create_cond() override { return inner_.create_cond(); }
  api::BarrierId create_barrier(std::uint32_t parties) override {
    return inner_.create_barrier(parties);
  }

  void parallel_run(std::uint32_t nthreads,
                    const std::function<void(api::ThreadCtx&)>& body) override {
    const std::int64_t t0 = host_ns();
    if (tracer_ == nullptr) {
      inner_.parallel_run(nthreads, body);
    } else {
      tracer_->begin_run(&inner_);
      inner_.parallel_run(nthreads, [&](api::ThreadCtx& ctx) {
        TimedCtx timed(ctx, *tracer_, inner_.metrics(ctx.index()));
        tracer_->body_start(ctx.index());
        body(timed);
        tracer_->body_end(ctx.index());
      });
      tracer_->end_run();
    }
    wall_ns_ += host_ns() - t0;
  }

  api::ThreadReport report(std::uint32_t thread) const override {
    return inner_.report(thread);
  }
  std::uint32_t ran_threads() const override { return inner_.ran_threads(); }
  void read_global(api::Addr addr, std::byte* out, std::size_t bytes) const override {
    inner_.read_global(addr, out, bytes);
  }

  std::int64_t wall_ns() const { return wall_ns_; }

 private:
  core::SamhitaRuntime& inner_;
  Tracer* tracer_;
  std::int64_t wall_ns_ = 0;
};

// --- output ---------------------------------------------------------------

void emit(const char* name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name, value, unit);
}

/// What one workload run produced besides its metric lines.
struct Outcome {
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t attempted = 0;  ///< kv ops, or 1 per app run
  std::uint64_t failed = 0;
};

void check(Outcome& o, bool ok, std::uint64_t attempted, const std::string& what) {
  if (ok) return;
  o.failed += attempted;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

bool rel_close(double got, double want, double tol) {
  return std::abs(got - want) <= tol * std::abs(want);
}

/// Virtual per-layer counts, read after the runs through public inspection
/// and summed over every runtime the workload used.
void emit_layer_counts(const std::vector<const core::SamhitaRuntime*>& runtimes) {
  core::Metrics m;
  double mem_requests = 0, mem_busy = 0, mem_wait = 0, mem_read = 0, mem_written = 0;
  double mgr_requests = 0, mgr_busy = 0, mgr_wait = 0;
  double net_messages = 0, net_bytes = 0, retries = 0, timeouts = 0, resumes = 0;
  std::size_t window_max = 0;
  for (const core::SamhitaRuntime* rt : runtimes) {
    for (std::uint32_t i = 0; i < rt->ran_threads(); ++i) {
      const core::Metrics& t = rt->metrics(i);
      m.sync_lock_ns += t.sync_lock_ns;
      m.sync_barrier_ns += t.sync_barrier_ns;
      m.cache_hits += t.cache_hits;
      m.cache_misses += t.cache_misses;
      m.prefetch_issued += t.prefetch_issued;
      m.prefetch_hits += t.prefetch_hits;
      m.evictions += t.evictions;
      m.invalidations += t.invalidations;
      m.twins_created += t.twins_created;
      m.diffs_flushed += t.diffs_flushed;
      m.bytes_flushed += t.bytes_flushed;
      m.update_set_bytes += t.update_set_bytes;
    }
    for (const mem::MemoryServer& s : rt->servers()) {
      mem_requests += static_cast<double>(s.service().request_count());
      mem_busy += to_seconds(s.service().busy_time());
      mem_wait += s.service().total_wait_seconds();
      mem_read += static_cast<double>(s.counters().bytes_read);
      mem_written += static_cast<double>(s.counters().bytes_written);
    }
    const core::ServiceDirectory& services = rt->services();
    for (unsigned s = 0; s < services.shard_count(); ++s) {
      const core::ManagerShard& shard = services.shard(s);
      mgr_requests += static_cast<double>(shard.service().request_count());
      mgr_busy += to_seconds(shard.service().busy_time());
      mgr_wait += shard.service().total_wait_seconds();
      for (const api::MutexId id : shard.owned_mutexes()) {
        window_max = std::max(window_max, shard.mutex(id).window.size());
      }
    }
    net_messages += static_cast<double>(rt->network_messages());
    net_bytes += static_cast<double>(rt->network_bytes());
    retries += static_cast<double>(rt->scl().counters().retries);
    timeouts += static_cast<double>(rt->scl().counters().timeouts);
    resumes += static_cast<double>(rt->sim_thread_resumes());
  }
  const double views = static_cast<double>(m.cache_hits + m.cache_misses);
  emit("core.cache_hit_ratio", views > 0 ? static_cast<double>(m.cache_hits) / views : 0.0,
       "ratio");
  emit("core.prefetch_useful_ratio",
       m.prefetch_issued > 0
           ? static_cast<double>(m.prefetch_hits) / static_cast<double>(m.prefetch_issued)
           : 0.0,
       "ratio");
  emit("core.prefetch_issued", static_cast<double>(m.prefetch_issued), "count");
  emit("core.evictions", static_cast<double>(m.evictions), "count");
  emit("core.sync_lock_s", to_seconds(m.sync_lock_ns), "virt_s");
  emit("core.sync_barrier_s", to_seconds(m.sync_barrier_ns), "virt_s");
  emit("core.manager_requests", mgr_requests, "count");
  emit("core.manager_busy_s", mgr_busy, "virt_s");
  emit("core.manager_wait_s", mgr_wait, "virt_s");
  emit("regc.twins", static_cast<double>(m.twins_created), "count");
  emit("regc.diffs_flushed", static_cast<double>(m.diffs_flushed), "count");
  emit("regc.invalidations", static_cast<double>(m.invalidations), "count");
  emit("regc.bytes_flushed", static_cast<double>(m.bytes_flushed), "B");
  emit("regc.update_set_bytes", static_cast<double>(m.update_set_bytes), "B");
  emit("regc.update_window_max", static_cast<double>(window_max), "count");
  emit("mem.requests", mem_requests, "count");
  emit("mem.busy_s", mem_busy, "virt_s");
  emit("mem.wait_s", mem_wait, "virt_s");
  emit("mem.bytes_read", mem_read, "B");
  emit("mem.bytes_written", mem_written, "B");
  emit("net.messages", net_messages, "count");
  emit("net.bytes", net_bytes, "B");
  emit("scl.retries", retries, "count");
  emit("scl.timeouts", timeouts, "count");
  emit("sim.resumes", resumes, "count");
}

void emit_paper_metrics(double elapsed, double compute, double sync) {
  emit("virt_elapsed_s", elapsed, "virt_s");
  emit("virt_compute_s", compute, "virt_s");
  emit("virt_sync_s", sync, "virt_s");
}

/// Serving metrics of the kv workloads; the others serve no requests and
/// report zeros, so every workload prints the same metric names.
void emit_kv_metrics(const apps::KvResult* base, const apps::KvResult* top, double max_rate,
                     const apps::KvResult* r25k, const apps::KvResult* r100k) {
  emit("kv_p50_us", base ? base->p50_ns * 1e-3 : 0, "virt_us");
  emit("kv_p999_us", base ? base->p999_ns * 1e-3 : 0, "virt_us");
  emit("kv_goodput_ops_per_s", top ? top->achieved_rate : 0, "ops/virt_s");
  emit("kv_max_rate_under_slo", max_rate, "ops/virt_s");
  emit("apps.kv_r25k_p999_us", r25k ? r25k->p999_ns * 1e-3 : 0, "virt_us");
  emit("apps.kv_r100k_p999_us", r100k ? r100k->p999_ns * 1e-3 : 0, "virt_us");
  emit("apps.kv_r100k_p50_us", r100k ? r100k->p50_ns * 1e-3 : 0, "virt_us");
}

// --- workloads ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
};

/// The ROADMAP scale point: 256 threads on 32 nodes x 8 cores, 4 servers.
Outcome jacobi256(const Options& opt, Tracer* tracer) {
  apps::JacobiParams p;
  p.threads = opt.smoke ? 32 : 256;
  p.n = opt.smoke ? 128 : 512;
  p.iterations = opt.smoke ? 10 : 200;
  core::SamhitaConfig cfg;
  cfg.compute_nodes = 32;
  cfg.cores_per_node = 8;
  cfg.memory_servers = 4;

  Outcome o;
  o.attempted = 1;
  const std::int64_t t0 = host_ns();
  const double reference = apps::jacobi_reference_residual(p);
  auto rt = std::make_unique<core::SamhitaRuntime>(cfg);
  TimedRuntime timed(*rt, tracer);
  o.setup_ns = host_ns() - t0;

  const apps::JacobiResult r = apps::run_jacobi(timed, p);
  o.wall_ns = timed.wall_ns();
  check(o, rel_close(r.final_residual, reference, 1e-9), 1, "jacobi_reference_residual");
  emit_paper_metrics(r.elapsed_seconds, r.mean_compute_seconds, r.mean_sync_seconds);
  emit_kv_metrics(nullptr, nullptr, 0, nullptr, nullptr);
  emit_layer_counts({rt.get()});
  return o;
}

/// The paper's Fig-5 strided microbenchmark: false sharing on every line.
Outcome strided16(const Options& opt, Tracer* tracer) {
  apps::MicrobenchParams p;
  p.threads = 16;
  p.N = opt.smoke ? 4 : 80;
  p.M = opt.smoke ? 250 : 5000;
  p.S = 2;
  p.B = 256;
  p.alloc = apps::MicrobenchAlloc::kGlobalStrided;

  Outcome o;
  o.attempted = 1;
  const std::int64_t t0 = host_ns();
  const double reference = apps::microbench_reference_gsum(p);
  auto rt = std::make_unique<core::SamhitaRuntime>(core::SamhitaConfig{});
  TimedRuntime timed(*rt, tracer);
  o.setup_ns = host_ns() - t0;

  const apps::MicrobenchResult r = apps::run_microbench(timed, p);
  o.wall_ns = timed.wall_ns();
  check(o, rel_close(r.gsum, reference, 1e-9), 1, "microbench_reference_gsum");
  emit_paper_metrics(r.elapsed_seconds, r.mean_compute_seconds, r.mean_sync_seconds);
  emit_kv_metrics(nullptr, nullptr, 0, nullptr, nullptr);
  emit_layer_counts({rt.get()});
  return o;
}

/// Open-loop KV serving at fixed offered rates, a fresh runtime per rate.
/// The paper quantities and kv_p50/p999 come from the 50k ops/s point.
Outcome kvstore(const Options& opt, Tracer* tracer, double read_ratio,
                std::size_t value_bytes, const std::vector<double>& rates) {
  constexpr double kBaseRate = 5.0e4;
  constexpr double kSloNs = 1.0e6;  // p999 limit of kv_max_rate_under_slo
  struct Point {
    apps::KvParams params;
    std::uint64_t reference = 0;
    std::unique_ptr<core::SamhitaRuntime> rt;
    std::unique_ptr<TimedRuntime> timed;
    apps::KvResult result;
    bool ran = false;
  };

  Outcome o;
  std::vector<Point> points(rates.size());
  const std::int64_t t0 = host_ns();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    Point& pt = points[i];
    pt.params.partitions = 4;
    pt.params.clients = 12;
    pt.params.ops = opt.smoke ? 2000 : 20000;
    pt.params.arrival_rate = rates[i];
    pt.params.zipf_theta = 0.99;
    pt.params.read_ratio = read_ratio;
    pt.params.value_bytes = value_bytes;
    pt.params.seed = opt.seed;
    pt.reference = apps::kvstore_reference_checksum(pt.params);
    pt.rt = std::make_unique<core::SamhitaRuntime>(core::SamhitaConfig{});
    pt.timed = std::make_unique<TimedRuntime>(*pt.rt, tracer);
    o.attempted += pt.params.ops;
  }
  o.setup_ns = host_ns() - t0;

  std::vector<const core::SamhitaRuntime*> runtimes;
  for (Point& pt : points) {
    try {
      pt.result = apps::run_kvstore(*pt.timed, pt.params);
      pt.ran = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "kvstore at %.0f ops/s failed: %s\n", pt.params.arrival_rate,
                   e.what());
    }
    o.wall_ns += pt.timed->wall_ns();
    check(o, pt.ran && pt.result.value_checksum == pt.reference, pt.params.ops,
          "kvstore_reference_checksum at " + std::to_string(pt.params.arrival_rate));
    runtimes.push_back(pt.rt.get());
  }

  auto at_rate = [&](double rate) -> const apps::KvResult* {
    for (const Point& pt : points) {
      if (pt.ran && pt.params.arrival_rate == rate) return &pt.result;
    }
    return nullptr;
  };
  const apps::KvResult* base = at_rate(kBaseRate);
  emit_paper_metrics(base ? base->elapsed_seconds : 0, base ? base->mean_compute_seconds : 0,
                     base ? base->mean_sync_seconds : 0);
  const Point& top = points.back();
  double max_rate = 0;
  for (const Point& pt : points) {
    const apps::KvResult& r = pt.result;
    if (pt.ran && r.p999_ns <= kSloNs && r.achieved_rate >= 0.95 * pt.params.arrival_rate) {
      max_rate = std::max(max_rate, pt.params.arrival_rate);
    }
  }
  emit_kv_metrics(base, top.ran ? &top.result : nullptr, max_rate, at_rate(2.5e4),
                  at_rate(1.0e5));
  emit_layer_counts(runtimes);
  return o;
}

void emit_trace(const Tracer& t, std::int64_t wall_ns) {
  for (int b = 0; b < kBuckets; ++b) {
    emit(kBucketNames[b], t.bucket_s(static_cast<Bucket>(b)), "s");
  }
  emit("bench.unattributed_frac",
       1.0 - static_cast<double>(t.attributed_ns()) / static_cast<double>(wall_ns), "ratio");
  emit("core.view_hit_ns_p50", t.call_ns(kViewHit, 50), "ns");
  emit("core.view_hit_ns_p99", t.call_ns(kViewHit, 99), "ns");
  emit("core.view_miss_ns_p50", t.call_ns(kViewMiss, 50), "ns");
  emit("core.view_miss_ns_p99", t.call_ns(kViewMiss, 99), "ns");
  emit("core.sync_lock_ns_p50", t.call_ns(kSyncLock, 50), "ns");
  emit("core.sync_lock_ns_p99", t.call_ns(kSyncLock, 99), "ns");
  emit("sim.switch_ns_per_resume",
       t.resumes() ? t.bucket_s(kSwitch) * 1e9 / static_cast<double>(t.resumes()) : 0, "ns");
  emit("api.calls", static_cast<double>(t.api_calls()), "count");
  emit("core.view_hits", static_cast<double>(t.views(false)), "count");
  emit("core.view_misses", static_cast<double>(t.views(true)), "count");
  emit("sim.switch_calls_frac",
       t.timed_calls() ? static_cast<double>(t.switched_calls()) /
                             static_cast<double>(t.timed_calls())
                       : 0,
       "ratio");
  emit("apps.kv_gen_lag_p99_us", t.generator_lag_p99_ns() * 1e-3, "virt_us");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sam_bench: %s\n"
               "usage: sam_bench --workload=jacobi256|strided16|kv_zipf|kv_write "
               "[--seed=N] [--traced] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--workload=", 0) == 0) {
      opt.workload = a.substr(11);
    } else if (a.rfind("--seed=", 0) == 0) {
      char* end = nullptr;
      opt.seed = std::strtoull(a.c_str() + 7, &end, 10);
      if (end == a.c_str() + 7 || *end != '\0') return usage("--seed wants an integer");
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  Tracer tracer;
  Tracer* tr = opt.traced ? &tracer : nullptr;
  Outcome o;
  try {
    if (opt.workload == "jacobi256") {
      o = jacobi256(opt, tr);
    } else if (opt.workload == "strided16") {
      o = strided16(opt, tr);
    } else if (opt.workload == "kv_zipf") {
      o = kvstore(opt, tr, 0.95, 128, {2.5e4, 5.0e4, 1.0e5});
    } else if (opt.workload == "kv_write") {
      o = kvstore(opt, tr, 0.5, 4096, {5.0e4});
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sam_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
    emit("bench.attempted", 1, "count");
    emit("bench.failed", 1, "count");
    return 1;
  }

  emit("setup_s", seconds(o.setup_ns), "s");
  emit("wall_s", seconds(o.wall_ns), "s");
  if (tr) emit_trace(tracer, o.wall_ns);
  emit("bench.attempted", static_cast<double>(o.attempted), "count");
  emit("bench.failed", static_cast<double>(o.failed), "count");
  return o.failed == 0 ? 0 : 1;
}
