#include "probes.h"

#include <algorithm>
#include <array>

#include "harness.h"
#include "net/burst.h"

namespace perfbench {

namespace sim = srv6bpf::sim;
namespace net = srv6bpf::net;
namespace seg6 = srv6bpf::seg6;

namespace {

// Times `body` (which makes `calls` calls) in batches, with the untimed
// `prep` before each, for about `budget_s` of host time; returns the median
// ns per call over the batches.
template <class Prep, class Body>
double time_batches(std::size_t calls, Prep&& prep, Body&& body,
                    double budget_s = 0.03) {
  std::vector<double> per_call;
  const double start = wall_s();
  while (per_call.size() < 5 ||
         (wall_s() - start < budget_s && per_call.size() < 400)) {
    prep();
    const double t0 = wall_s();
    body();
    per_call.push_back((wall_s() - t0) * 1e9 / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

// A self-rescheduling event the size of Link's delivery closure (a burst
// handle, the peer node and an ifindex) plus the probe's own state.
struct Tick {
  sim::EventLoop* loop;
  std::uint64_t* left;
  std::uint64_t state;
  std::uint64_t spread;
  std::array<std::uint64_t, 2> payload;
  void operator()() {
    if (*left == 0) return;
    --*left;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    payload[0] += state;
    loop->schedule_at_key(loop->now() + 1 + (state >> 33) % spread,
                          static_cast<std::uint32_t>(state & 3), Tick{*this});
  }
};

}  // namespace

double probe_event_loop_ns(std::uint64_t pending_max, std::uint64_t events,
                           std::uint64_t sim_span_ns, std::size_t loops) {
  // One loop's depth, and the simulated time that many events span there.
  const std::size_t pending =
      std::max<std::size_t>(1, pending_max / std::max<std::size_t>(1, loops));
  const double sim_ns_per_event = static_cast<double>(sim_span_ns) *
                                  static_cast<double>(loops) /
                                  static_cast<double>(std::max<std::uint64_t>(1, events));
  const std::uint64_t spread_ns = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(sim_ns_per_event * static_cast<double>(pending)));
  constexpr std::size_t kSteps = 4096;
  sim::EventLoop loop;
  std::uint64_t left = 0;
  // Fill to the workload's depth once; each executed event then schedules
  // its successor, so the depth stays put while steps are timed.
  for (std::size_t i = 0; i < pending; ++i)
    loop.schedule_at(1 + (i * 2654435761u) % spread_ns,
                     Tick{&loop, &left, i + 1, spread_ns, {0, 0}});
  return time_batches(
      kSteps, [&] { left = kSteps; },
      [&] {
        for (std::size_t i = 0; i < kSteps; ++i) loop.step();
      });
}

double probe_fib_lookup_ns(const seg6::Fib& fib,
                           const std::vector<net::Ipv6Addr>& stream) {
  if (stream.empty()) return 0;
  seg6::FibCacheSlot slot;
  return time_batches(
      stream.size(), [] {},
      [&] {
        std::uint64_t acc = 0;
        for (const net::Ipv6Addr& dst : stream)
          acc += reinterpret_cast<std::uintptr_t>(fib.lookup(dst, slot));
        g_sink = g_sink + acc;
      });
}

double probe_flow_hash_ns(const std::vector<net::Packet>& pkts) {
  if (pkts.empty()) return 0;
  return time_batches(
      pkts.size(), [] {},
      [&] {
        std::uint64_t acc = 0;
        for (const net::Packet& p : pkts) acc += seg6::flow_hash(p);
        g_sink = g_sink + acc;
      });
}

double probe_prog_run_ns(seg6::Netns& ns,
                         const srv6bpf::ebpf::LoadedProgram& prog,
                         const std::vector<net::Packet>& inputs) {
  if (inputs.empty()) return 0;
  const std::size_t n = std::min(inputs.size(), net::kMaxBurstPackets);
  std::vector<net::Packet> work(n);
  std::array<net::Packet*, net::kMaxBurstPackets> ptrs{};
  std::array<seg6::ProcessTrace, net::kMaxBurstPackets> traces{};
  std::array<seg6::ProcessTrace*, net::kMaxBurstPackets> tptrs{};
  for (std::size_t i = 0; i < n; ++i) {
    ptrs[i] = &work[i];
    tptrs[i] = &traces[i];
  }
  std::size_t next = 0;
  return time_batches(
      n,
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          work[i] = inputs[next];
          next = (next + 1) % inputs.size();
          traces[i].reset();
        }
      },
      [&] {
        std::uint64_t acc = 0;
        seg6::run_prog_over_burst(
            ns, prog, {ptrs.data(), n}, tptrs.data(),
            [&acc](std::size_t, const srv6bpf::ebpf::ExecResult& r,
                   const seg6::Seg6BurstRunner::Verdict&) {
              acc += r.ret;
            });
        g_sink = g_sink + acc;
      });
}

double probe_filter_ns(srv6bpf::apps::SocketFilter& filter,
                       const std::vector<net::Packet>& pkts) {
  if (pkts.empty()) return 0;
  return time_batches(
      pkts.size(), [] {},
      [&] {
        std::uint64_t acc = 0;
        for (const net::Packet& p : pkts) acc += filter.run(p);
        g_sink = g_sink + acc;
      });
}

}  // namespace perfbench
