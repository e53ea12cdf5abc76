// Layer probes of the traced run. Each one times calls into one layer's
// public functions, from the benchmark's own files, on inputs recorded from
// (or regenerated exactly like) the workload's own traffic. Probes run after
// a round's window has been read out, never inside a window that feeds an
// end-to-end metric. Each returns host ns per call.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/socket_filter.h"
#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/fib.h"
#include "sim/event_loop.h"

namespace perfbench {

// EventLoop::schedule_at_key + step at the workload's steady queue depth
// and time spread, with closures the size of the datapath's link-delivery
// events. The window ran `events` events over `sim_span_ns` of simulated
// time on `loops` event loops, with at most `pending_max` pending in all.
double probe_event_loop_ns(std::uint64_t pending_max, std::uint64_t events,
                           std::uint64_t sim_span_ns, std::size_t loops = 1);

// Fib::lookup over the workload's destination stream, through one cache
// slot, as a router context does.
double probe_fib_lookup_ns(const srv6bpf::seg6::Fib& fib,
                           const std::vector<srv6bpf::net::Ipv6Addr>& stream);

double probe_flow_hash_ns(const std::vector<srv6bpf::net::Packet>& pkts);

// One program over the workload's packets in bursts, through the same
// seg6::run_prog_over_burst entry the datapath uses, on the netns's
// resolved engine. `inputs` are copied before each timed burst.
double probe_prog_run_ns(srv6bpf::seg6::Netns& ns,
                         const srv6bpf::ebpf::LoadedProgram& prog,
                         const std::vector<srv6bpf::net::Packet>& inputs);

double probe_filter_ns(srv6bpf::apps::SocketFilter& filter,
                       const std::vector<srv6bpf::net::Packet>& pkts);

}  // namespace perfbench
