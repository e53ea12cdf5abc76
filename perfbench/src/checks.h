// The benchmark's correctness checks, as pure functions of what a round
// observed and of references the benchmark computes itself — never of a
// stored copy of earlier output. Each workload's self_test() feeds every
// check it uses a deliberately wrong input that the check must reject, so
// a check that can never fail shows up as a self-test failure.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "net/ip6.h"
#include "sim/costmodel.h"
#include "sim/invariant_auditor.h"
#include "sim/stats.h"

namespace perfbench::check {

using srv6bpf::sim::TimeNs;

// Conservation: every offered packet was delivered or dropped for a named
// reason, and nothing is left in flight after the final drain.
inline bool ledger_closed(const srv6bpf::sim::InvariantAuditor::Ledger& l) {
  return l.in_flight == 0 && l.offered == l.consumed;
}

// Per-packet CPU cost charged by a router whose packets all received the
// same processing, recomputed from the cost-model constants and the
// executed counts. Returns 0 when the counts are not the same for every
// packet (the totals do not divide evenly), which fails the capacity check.
inline double uniform_packet_cost_ns(const srv6bpf::sim::CpuProfile& p,
                                     const srv6bpf::sim::PipelineTotals& t) {
  if (t.packets == 0) return 0;
  const std::uint64_t counts[] = {t.seg6local_ops,    t.fib_lookups,
                                  t.bpf_runs,         t.bpf_insns_jit,
                                  t.bpf_insns_interp, t.helper_calls,
                                  t.encaps,           t.decaps};
  for (std::uint64_t c : counts)
    if (c % t.packets != 0) return 0;
  const double n = static_cast<double>(t.packets);
  double cost = static_cast<double>(p.forward_ns);
  cost += static_cast<double>(t.seg6local_ops) / n * p.seg6_op_ns;
  cost += static_cast<double>(t.fib_lookups) / n * p.fib_lookup_ns;
  cost += static_cast<double>(t.bpf_runs) / n * p.bpf_entry_ns;
  cost += static_cast<double>(t.bpf_insns_jit) / n * p.jit_insn_ns;
  cost += static_cast<double>(t.bpf_insns_interp) / n * p.interp_insn_ns;
  cost += static_cast<double>(t.helper_calls) / n * p.helper_call_ns;
  cost += static_cast<double>(t.encaps) / n * p.encap_ns;
  cost += static_cast<double>(t.decaps) / n * p.decap_ns;
  // The router charges whole nanoseconds.
  return static_cast<double>(static_cast<std::uint64_t>(cost));
}

// A saturated single-context router forwards exactly one packet per cost
// interval: `delivered` over a window of `window_ns` must match within
// `tolerance` packets (burst coalescing at the window edges).
inline bool capacity_matches(std::uint64_t delivered, TimeNs window_ns,
                             double cost_ns, double tolerance) {
  if (cost_ns <= 0) return false;
  const double expected = static_cast<double>(window_ns) / cost_ns;
  const double diff = static_cast<double>(delivered) - expected;
  return diff <= tolerance && -diff <= tolerance;
}

inline bool bytes_equal(std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// One installed route as the benchmark itself recorded it: prefix and the
// set of sinks (bit per sink) its nexthops lead to.
struct RefRoute {
  std::array<std::uint8_t, 16> addr{};
  int len = 0;
  unsigned sink_mask = 0;
};

inline bool prefix_covers(const RefRoute& r, const srv6bpf::net::Ipv6Addr& a) {
  const auto& b = a.bytes();
  const int full = r.len / 8;
  if (std::memcmp(r.addr.data(), b.data(), static_cast<std::size_t>(full)) != 0)
    return false;
  const int rem = r.len % 8;
  if (rem == 0) return true;
  const std::uint8_t mask = static_cast<std::uint8_t>(0xff00u >> rem);
  return (r.addr[static_cast<std::size_t>(full)] & mask) ==
         (b[static_cast<std::size_t>(full)] & mask);
}

// Longest-prefix match by linear scan over every route: the reference the
// simulator's stride trie is checked against. Later routes win ties (a
// re-added prefix replaces the earlier one). -1 when nothing covers `dst`.
inline int linear_lpm(const std::vector<RefRoute>& routes,
                      const srv6bpf::net::Ipv6Addr& dst) {
  int best = -1;
  for (std::size_t i = 0; i < routes.size(); ++i)
    if (prefix_covers(routes[i], dst) &&
        (best < 0 || routes[i].len >= routes[static_cast<std::size_t>(best)].len))
      best = static_cast<int>(i);
  return best;
}

// Hash-threshold ECMP over distinct flows: the count sent to a nexthop of
// weight share `p` must lie within `z` standard deviations of n * p.
inline bool within_binomial(std::uint64_t k, std::uint64_t n, double p,
                            double z = 6.0) {
  if (n == 0) return false;
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  const double diff = static_cast<double>(k) - mean;
  return diff <= z * sd + 1.0 && -diff <= z * sd + 1.0;
}

// Weighted round-robin over a counter: after n1 + n2 packets, path 1 got
// exactly w1 of every w1 + w2 and the first min(rest, w1) of the remainder.
inline bool wrr_exact(std::uint64_t n1, std::uint64_t n2, std::uint64_t w1,
                      std::uint64_t w2) {
  const std::uint64_t total = n1 + n2;
  const std::uint64_t cycle = w1 + w2;
  if (cycle == 0 || total == 0) return false;
  const std::uint64_t rest = total % cycle;
  const std::uint64_t want1 = total / cycle * w1 + (rest < w1 ? rest : w1);
  return n1 == want1;
}

// Wire floor of a one-way delay over one link: propagation plus the
// serialisation of the frame (packet plus Ethernet framing overhead).
inline TimeNs owd_floor_ns(TimeNs prop_ns, std::uint64_t bandwidth_bps,
                           std::size_t packet_bytes,
                           std::size_t wire_overhead_bytes) {
  const std::uint64_t bits = (packet_bytes + wire_overhead_bytes) * 8ull;
  return prop_ns + bits * 1000000000ull / bandwidth_bps;
}

// FNV-1a over little-endian u64s: delivery digests.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (i * 8)) & 0xff;
      value *= 1099511628211ull;
    }
  }
};

}  // namespace perfbench::check
