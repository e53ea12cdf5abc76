// perfbench: the repository benchmark. One process runs one workload for a
// given number of host seconds, as whole rounds (each round builds its lab
// from nothing, runs a fixed simulated schedule, drains and checks), and
// prints one JSON result line last:
//
//   perfbench --workload <fig2_overload|nf_chain|ring_chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--source-rev <rev>]
//             [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics (medians over rounds); --trace 1
// alternates untraced and traced rounds, then runs the layer probes, and
// reports the per-layer table. perfbench/run.py builds and invokes this.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Every program a workload may run; per-layer metrics exist for each, and
// read 0 on a workload whose traffic never runs that program.
const char* const kPrograms[] = {"end",  "dm_encap",      "end_dm",
                                 "wrr",  "tag_increment", "add_tlv"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string source_rev = "unknown";
  std::string out_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--source-rev R] [--out-dir D]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--source-rev") {
      a.source_rev = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1))
    usage("need --workload, --seed, --seconds > 0 and --trace 0|1");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

struct Metric {
  double value;
  const char* unit;
};

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string s = "{";
  bool first = true;
  char buf[128];
  for (const auto& [name, met] : m) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), met.value, met.unit);
    s += buf;
    first = false;
  }
  return s + "}";
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }
double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

template <class F>
double median_of(const std::vector<const Round*>& rounds, F&& f) {
  std::vector<double> v;
  for (const Round* r : rounds) v.push_back(f(*r));
  return median(std::move(v));
}

double rate(const Round& r) {
  return ratio(static_cast<double>(r.offered), r.window_s);
}

std::map<std::string, Metric> per_layer(const std::vector<const Round*>& plain,
                                        const std::vector<const Round*>& traced,
                                        const Round& probed,
                                        const ProbeValues& probes) {
  std::map<std::string, Metric> m;
  auto probe = [&probes](const std::string& k) {
    const auto it = probes.find(k);
    return it == probes.end() ? 0.0 : it->second;
  };
  const double offered = static_cast<double>(probed.offered);
  const auto& pl = probed.pipeline;

  m["sim.events_per_pkt"] = {ratio(probed.events, probed.offered), "events/pkt"};
  m["sim.event_loop.ns_per_event"] = {probe("sim.event_loop.ns_per_event"),
                                      "ns"};
  m["sim.pending_events_max"] = {static_cast<double>(probed.pending_max),
                                 "events"};
  m["sim.delivered_share"] = {ratio(probed.delivered, probed.offered), "ratio"};
  std::vector<double> slices;
  for (const Round* r : plain)
    slices.insert(slices.end(), r->slice_wall_us.begin(),
                  r->slice_wall_us.end());
  m["sim.slice_wall_us.p50"] = {quantile(slices, 0.5), "us"};
  m["sim.slice_wall_us.p99"] = {quantile(slices, 0.99), "us"};
  m["sim.slice_wall_us.n"] = {static_cast<double>(slices.size()), "count"};

  const double cpu_per_wall =
      median_of(plain, [](const Round& r) {
        return ratio(r.user_s + r.sys_s, r.window_s);
      });
  m["pdes.cpu_per_wall"] = {cpu_per_wall, "ratio"};
  m["pdes.sys_share"] = {median_of(plain, [](const Round& r) {
                           return ratio(r.sys_s, r.user_s + r.sys_s);
                         }),
                         "ratio"};
  double dmax = 0, dsum = 0;
  for (std::uint64_t d : probed.domain_serviced) {
    dmax = std::max(dmax, static_cast<double>(d));
    dsum += static_cast<double>(d);
  }
  m["pdes.domain_work_imbalance"] = {
      ratio(dmax, dsum / static_cast<double>(probed.domain_serviced.size())),
      "ratio"};
  m["pdes.mailbox_overflow_spins"] = {static_cast<double>(probed.mailbox_spins),
                                      "count"};

  m["seg6.fib.lookup_ns"] = {probe("seg6.fib.lookup_ns"), "ns"};
  m["seg6.fib_cache_hit_ratio"] = {ratio(probed.fib_cache_hits, pl.fib_lookups),
                                   "ratio"};
  m["seg6.fib_lookups_per_pkt"] = {ratio(pl.fib_lookups, pl.packets),
                                   "count/pkt"};
  m["seg6.flow_hash_ns"] = {probe("seg6.flow_hash_ns"), "ns"};
  m["seg6.fib.install_us_per_route"] = {
      median_of(plain,
                [](const Round& r) {
                  return ratio(r.phases.fib_ms * 1e3,
                               static_cast<double>(r.phases.routes));
                }),
      "us"};

  m["ebpf.runs_per_pkt"] = {ratio(pl.bpf_runs, probed.offered), "count/pkt"};
  m["ebpf.insns_per_run"] = {
      ratio(pl.bpf_insns_jit + pl.bpf_insns_interp, pl.bpf_runs), "count"};
  m["ebpf.helper_calls_per_run"] = {ratio(pl.helper_calls, pl.bpf_runs),
                                    "count"};
  double layer_ns = 0;  // per offered packet, summed over the probed layers
  for (const char* p : kPrograms) {
    const std::string prog = p;
    const double run_ns = probe("ebpf.run_ns." + prog);
    m["ebpf.run_ns." + prog] = {run_ns, "ns"};
    m["ebpf.load_ms." + prog] = {median_of(plain,
                                           [&prog](const Round& r) {
                                             const auto it =
                                                 r.phases.load_ms.find(prog);
                                             return it == r.phases.load_ms.end()
                                                        ? 0.0
                                                        : it->second;
                                           }),
                                 "ms"};
    const auto runs = probed.prog_runs.find(prog);
    if (runs != probed.prog_runs.end())
      layer_ns += run_ns * static_cast<double>(runs->second) / offered;
  }
  m["cbpf.filter_ns_per_pkt"] = {probe("cbpf.filter_ns_per_pkt"), "ns"};

  m["net.allocs_per_pkt"] = {median_of(plain,
                                       [](const Round& r) {
                                         return ratio(r.allocs, r.offered);
                                       }),
                             "allocs/pkt"};
  m["net.buffer_pool.high_water"] = {
      static_cast<double>(probed.buffer_high_water), "buffers"};
  m["net.burst_pool.acquires_per_pkt"] = {ratio(probed.burst_acquires, probed.offered),
                                          "count/pkt"};

  m["setup.topology_ms"] = {
      median_of(plain, [](const Round& r) { return r.phases.topology_ms; }),
      "ms"};
  m["setup.fib_ms"] = {
      median_of(plain, [](const Round& r) { return r.phases.fib_ms; }), "ms"};
  m["setup.programs_ms"] = {
      median_of(plain, [](const Round& r) { return r.phases.programs_ms; }),
      "ms"};
  m["setup.seal_ms"] = {
      median_of(plain, [](const Round& r) { return r.phases.seal_ms; }), "ms"};

  // Residual: the share of the host CPU ns per offered packet that the
  // probed layers do not explain (link transmit, RX rings, datapath stages,
  // generator and sinks are not probed one by one). Probes run on one
  // thread, so the end-to-end side is CPU time, which equals wall time on
  // the single-threaded workloads.
  layer_ns += probe("sim.event_loop.ns_per_event") * ratio(probed.events, probed.offered);
  layer_ns += probe("seg6.fib.lookup_ns") * ratio(pl.fib_lookups, probed.offered);
  layer_ns += probe("seg6.flow_hash_ns") * ratio(probed.flow_hashes, probed.offered);
  layer_ns +=
      probe("cbpf.filter_ns_per_pkt") * ratio(probed.filter_runs, probed.offered);
  const double e2e_ns = median_of(plain, [](const Round& r) {
    return ratio((r.user_s + r.sys_s) * 1e9, static_cast<double>(r.offered));
  });
  m["layers.residual_share"] = {1.0 - ratio(layer_ns, e2e_ns), "ratio"};
  m["layers.trace_overhead_share"] = {
      1.0 - ratio(median_of(traced, rate), median_of(plain, rate)), "ratio"};
  return m;
}

std::string rounds_json(const std::vector<Round>& rounds) {
  std::string s = "[";
  char buf[256];
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"setup_s\": %.6f, \"window_s\": %.6f, \"offered\": %llu, "
                  "\"delivered\": %llu, \"failed\": %llu, \"user_s\": %.4f, "
                  "\"sys_s\": %.4f}",
                  i ? ", " : "", r.setup_s, r.window_s,
                  static_cast<unsigned long long>(r.offered),
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.failed), r.user_s, r.sys_s);
    s += buf;
  }
  return s + "]";
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl;
  if (args.workload == "fig2_overload")
    wl = make_fig2_overload();
  else if (args.workload == "nf_chain")
    wl = make_nf_chain();
  else if (args.workload == "ring_chaos")
    wl = make_ring_chaos();
  else
    usage(("unknown workload " + args.workload).c_str());

  Checks checks;
  wl->prepare(args.seed, checks);
  wl->self_test(checks);

  const bool traced_run = args.trace == 1;
  Tracer tracer;
  ProbeValues probes;
  std::vector<Round> rounds;
  std::vector<bool> traced_flag;
  constexpr std::size_t kMinRounds = 4;
  long first_round_rss_kib = 0;
  const double start = wall_s();
  for (std::size_t i = 0;; ++i) {
    if (i >= kMinRounds && wall_s() - start >= args.seconds) break;
    RoundCtx ctx;
    ctx.checks = &checks;
    const bool traced = traced_run && i % 2 == 1;
    ctx.tracer = traced ? &tracer : nullptr;
    rounds.push_back(wl->run_round(ctx));
    traced_flag.push_back(traced);
    // Peak RSS of the workload: prepare plus one round. Later rounds only
    // repeat the same work (and would fold any growth across rounds into a
    // figure that then depends on how many rounds fit in --seconds).
    if (i == 0) first_round_rss_kib = peak_rss_kib();
  }
  if (traced_run) {
    // One more traced round whose lab stays up for the layer probes.
    RoundCtx ctx;
    ctx.checks = &checks;
    ctx.tracer = &tracer;
    ctx.probes = &probes;
    rounds.push_back(wl->run_round(ctx));
    traced_flag.push_back(true);
  }

  wl->finish(rounds.front(), checks);

  // Deterministic counts must repeat exactly, round after round.
  for (std::size_t i = 1; i < rounds.size(); ++i)
    if (rounds[i].fingerprint != rounds[0].fingerprint) {
      checks.expect(false, "deterministic counts of round " +
                               std::to_string(i) + " differ from round 0");
      break;
    }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<const Round*> plain, traced;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    attempted += rounds[i].offered;
    failed += rounds[i].failed;
    (traced_flag[i] ? traced : plain).push_back(&rounds[i]);
  }
  const Rusage ru = self_rusage();

  std::map<std::string, Metric> metrics;
  if (!traced_run) {
    metrics["sim_pkts_per_wall_s"] = {median_of(plain, rate), "pkts/s"};
    metrics["setup_s"] = {
        median_of(plain, [](const Round& r) { return r.setup_s; }), "s"};
    metrics["peak_rss_mib"] = {
        static_cast<double>(first_round_rss_kib) / 1024.0, "MiB"};
  } else {
    metrics = per_layer(plain, traced, rounds.back(), probes);
  }

  for (const std::string& f : checks.failures())
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  // Detail record: host and build fingerprint, resource use, every round.
  char head[1024];
  std::snprintf(
      head, sizeof head,
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"rounds\": %zu, \"threads\": %zu, \"cpu_model\": \"%s\", "
      "\"nproc\": %u, \"affinity_cpus\": %d, \"compiler\": \"%s (%s)\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"source_rev\": \"%s\", "
      "\"user_s\": %.3f, \"sys_s\": %.3f, \"nvcsw\": %ld, \"nivcsw\": %ld, "
      "\"vm_hwm_kib\": %ld, \"checks_failed\": %zu, ",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, rounds.size(), wl->threads(),
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      [] {
        cpu_set_t set;
        return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set)
                                                           : -1;
      }(),
      PERFBENCH_COMPILER, json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      json_escape(args.source_rev).c_str(), ru.user_s, ru.sys_s, ru.nvcsw,
      ru.nivcsw, peak_rss_kib(), checks.failures().size());
  const std::string detail = std::string(head) + "\"metrics\": " +
                             metrics_json(metrics) +
                             ", \"per_round\": " + rounds_json(rounds) + "}}";
  std::printf("%s\n", detail.c_str());
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f, "%s\n", detail.c_str());
      std::fclose(f);
    }
    if (traced_run && !tracer.write_chrome_json(stem + ".spans.json"))
      std::fprintf(stderr, "perfbench: could not write %s.spans.json\n",
                   stem.c_str());
  }

  for (const auto& [name, met] : metrics)
    std::fprintf(stderr, "  %-34s %14.6g %s\n", name.c_str(), met.value,
                 met.unit);
  std::fprintf(stderr, "  rounds %zu, attempted %llu, failed %llu, %s\n",
               rounds.size(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               checks.ok() ? "checks passed" : "CHECKS FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (kSanitized || !kOptimized ||
      std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build "
                 "(build type \"%s\", flags \"%s\"); use the default "
                 "RelWithDebInfo or Release\n",
                 kSanitized ? "sanitizer" : "debug or unoptimised",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
