// Shared scaffolding of the benchmark: wall clocks, the in-memory span
// recorder of the traced run, resource usage, the per-round record every
// workload fills in, and the Workload interface main.cc drives.
//
// Everything here lives outside the simulator: the benchmark only calls the
// simulator's public API and times those calls from its own files.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/stats.h"

namespace perfbench {

using srv6bpf::sim::TimeNs;

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the benchmark's own input generator. Inputs are a pure
// function of the seed; the simulator never sees the seed itself except
// where a workload hands it a derived value as configuration.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

// In-memory span recorder (name, start, end, parent), written out as Chrome
// trace JSON when the traced run ends. A null Tracer* everywhere means
// "untraced": Scope then costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };
  int begin(std::string name);
  void end(int id);
  bool write_chrome_json(const std::string& path) const;

 private:
  double origin_ = wall_s();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->begin(std::move(name)) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

struct Rusage {
  double user_s = 0;
  double sys_s = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  long maxrss_kib = 0;
};
Rusage self_rusage();
// Resident-set high-water mark of this process image, in KiB (VmHWM).
// Unlike getrusage's ru_maxrss it starts afresh at exec, so the launching
// process's footprint does not leak into it.
long peak_rss_kib();

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// Correctness verdicts. A failed expectation makes the run's "correct"
// false and is printed with its description.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// Host time of the set-up phases of one round, in ms.
struct SetupPhases {
  double topology_ms = 0;
  double fib_ms = 0;
  double programs_ms = 0;
  double seal_ms = 0;
  std::uint64_t routes = 0;                  // Fib::add_route calls timed
  std::map<std::string, double> load_ms;     // BpfSystem::load per program
};

// Times `fn` into `acc_ms` and, when traced, records it as a span.
template <class F>
void timed_phase(Tracer* tracer, const char* name, double& acc_ms, F&& fn) {
  Scope scope(tracer, name);
  const double t0 = wall_s();
  fn();
  acc_ms += (wall_s() - t0) * 1e3;
}

// What one round measured. Counts are deterministic for a (workload, seed)
// pair; wall and CPU figures are the host's.
struct Round {
  double setup_s = 0;   // empty state -> first simulated event
  double window_s = 0;  // first simulated event -> final drain done
  SetupPhases phases;

  std::uint64_t offered = 0;    // operations: generator packets attempted
  std::uint64_t delivered = 0;  // reached the application with checks passed
  std::uint64_t failed = 0;     // unaccounted by the ledger or bad content

  // Simulator-side counters over the window.
  std::uint64_t events = 0;
  std::uint64_t pending_max = 0;
  std::vector<double> slice_wall_us;
  std::uint64_t fib_cache_hits = 0;
  std::uint64_t flow_hashes = 0;  // forwarded packets (one hash each)
  std::uint64_t filter_runs = 0;  // SocketFilter invocations
  srv6bpf::sim::PipelineTotals pipeline;
  std::map<std::string, std::uint64_t> prog_runs;
  std::vector<std::uint64_t> domain_serviced;
  std::uint64_t mailbox_spins = 0;

  // Host-side resources over the window.
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t burst_acquires = 0;
  std::uint64_t buffer_high_water = 0;

  // Deterministic counts (delivered, drops by reason, events, pipeline
  // totals, digests): identical for every round of a run, and the thing the
  // repeat check compares.
  std::vector<std::uint64_t> fingerprint;
};

// Host-side snapshot taken at both ends of a window.
struct HostMark {
  double wall = 0;
  Rusage ru;
  std::uint64_t allocs = 0;
  std::uint64_t burst_acquires = 0;
  static HostMark take();
};
// Fills window_s, user_s, sys_s, allocs and burst_acquires from two marks.
void close_window(Round& r, const HostMark& a, const HostMark& b);

// Per-layer probe results of the traced run, by metric name.
using ProbeValues = std::map<std::string, double>;

struct RoundCtx {
  Tracer* tracer = nullptr;       // spans (traced rounds only)
  ProbeValues* probes = nullptr;  // non-null: time the layer probes after
                                  // the window, on this round's inputs
  Checks* checks = nullptr;
};

// Advances simulated time to `t_end` in fixed slices, timing each slice on
// the host and calling `between(t)` at every boundary (auditing, draining
// perf rings, sampling queue depth). `advance(t)` is the simulator call.
void run_slices(TimeNs t_from, TimeNs t_end, TimeNs slice, Round& r,
                Tracer* tracer, const std::function<void(TimeNs)>& advance,
                const std::function<void(TimeNs)>& between);

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from the seed and computes the references the
  // checks compare against. Untimed; runs once before the first round.
  virtual void prepare(std::uint64_t seed, Checks& checks) = 0;
  // Feeds every check of this workload a deliberately wrong input and
  // records, in `checks`, any check that failed to reject it.
  virtual void self_test(Checks& checks) = 0;
  // One round: builds the lab from nothing (timed as set-up), runs the
  // window, checks the outputs.
  virtual Round run_round(RoundCtx& ctx) = 0;
  // Checks that need the whole run, after the last round; `timed` is one
  // of the run's rounds (every round's counts are equal, main.cc checks).
  virtual void finish(const Round& /*timed*/, Checks& /*checks*/) {}
  // Host worker threads the window runs on.
  virtual std::size_t threads() const { return 1; }
};

std::unique_ptr<Workload> make_fig2_overload();
std::unique_ptr<Workload> make_nf_chain();
std::unique_ptr<Workload> make_ring_chaos();

}  // namespace perfbench
