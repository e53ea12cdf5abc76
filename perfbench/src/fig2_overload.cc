// fig2_overload: the paper's Fig. 2 lab (S1 -> R -> S2, 10 Gbps links, R a
// single Xeon-modelled context). S1 offers 3 Mpps of 64-byte UDP through an
// End.BPF SID on R running the §3.2 End program, on one host thread. R
// forwards about a sixth of what it is offered, so the event loop, link
// transmit, the burst pool and the RX-ring drop path carry most of the work.
//
// Seeded inputs: payload fill byte, SRH tag, UDP source port, flow label.
// Checks: the ledger closes; R's delivered rate equals the capacity
// recomputed from the cost-model constants and the executed counts; every
// delivered packet equals the bytes the End behaviour must produce,
// computed here from the offered packet.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "checks.h"
#include "harness.h"
#include "net/buffer_pool.h"
#include "net/srh.h"
#include "probes.h"
#include "seg6/seg6local.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace perfbench {

namespace sim = srv6bpf::sim;
namespace net = srv6bpf::net;
namespace seg6 = srv6bpf::seg6;
namespace apps = srv6bpf::apps;
namespace ebpf = srv6bpf::ebpf;

namespace {

constexpr double kOfferedPps = 3e6;
constexpr TimeNs kTraffic = 100 * sim::kMilli;  // generator runs [0, kTraffic)
constexpr TimeNs kDrainEnd = kTraffic + 5 * sim::kMilli;
constexpr TimeNs kSlice = sim::kMilli;
// Capacity window: R's RX ring is long full by then and stays full to the
// end of the generator schedule.
constexpr TimeNs kCapFrom = 20 * sim::kMilli;
constexpr TimeNs kCapTo = kTraffic;
constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
constexpr TimeNs kProp = 10 * sim::kMicro;
constexpr std::uint16_t kPort = 7001;

const net::Ipv6Addr kS1 = net::Ipv6Addr::must_parse("fc00:1::1");
const net::Ipv6Addr kRIf0 = net::Ipv6Addr::must_parse("fc00:1::2");
const net::Ipv6Addr kRIf1 = net::Ipv6Addr::must_parse("fc00:2::1");
const net::Ipv6Addr kS2 = net::Ipv6Addr::must_parse("fc00:2::2");
const net::Ipv6Addr kSid = net::Ipv6Addr::must_parse("fc00:f::1");

// The End behaviour's effect, computed from the offered bytes: the SRH
// advances (segments_left 1 -> 0), the destination becomes the final
// segment, and the forwarding router decrements the hop limit.
std::vector<std::uint8_t> expected_after_end(const net::Packet& offered) {
  std::vector<std::uint8_t> b(offered.bytes().begin(), offered.bytes().end());
  b[7] = static_cast<std::uint8_t>(b[7] - 1);             // hop limit
  b[net::kIpv6HeaderSize + 3] = 0;                         // segments_left
  std::memcpy(&b[24], kS2.bytes().data(), 16);             // dst = S2
  return b;
}

class Fig2Overload final : public Workload {
 public:
  void prepare(std::uint64_t seed, Checks&) override {
    SeedRng rng(seed ^ 0xf162f162ull);
    spec_.src = kS1;
    spec_.dst = kS2;
    spec_.segments = {kSid, kS2};
    spec_.payload_size = 64;
    spec_.payload_fill = static_cast<std::uint8_t>(rng.next());
    spec_.srh_tag = static_cast<std::uint16_t>(rng.next());
    spec_.src_port = static_cast<std::uint16_t>(rng.range(1024, 65000));
    spec_.dst_port = kPort;
    spec_.flow_label = static_cast<std::uint32_t>(rng.next() & 0xfffff);
    offered_pkt_ = net::make_udp_packet(spec_);
    expected_ = expected_after_end(offered_pkt_);
  }

  void self_test(Checks& checks) override {
    // Content: one flipped bit in an otherwise expected packet.
    std::vector<std::uint8_t> bad = expected_;
    bad[bad.size() - 1] ^= 0x01;
    checks.expect(!check::bytes_equal(expected_, bad),
                  "self-test: content check accepted a flipped bit");
    // Ledger: one packet missing.
    sim::InvariantAuditor::Ledger l{1000, 999, 1};
    checks.expect(!check::ledger_closed(l),
                  "self-test: ledger check accepted a missing packet");
    // Capacity: a delivered count one burst plus three off the cost rate.
    const double cost = 1945;
    const TimeNs win = kCapTo - kCapFrom;
    const auto exact = static_cast<std::uint64_t>(win / cost);
    checks.expect(check::capacity_matches(exact, win, cost, kTolerance) &&
                      !check::capacity_matches(exact + kTolerance + 3, win,
                                               cost, kTolerance),
                  "self-test: capacity check accepted an off-rate count");
    // Cost: counts that differ between packets cannot give one cost.
    sim::PipelineTotals t;
    t.packets = 10;
    t.bpf_runs = 11;
    checks.expect(check::uniform_packet_cost_ns(sim::kXeonProfile, t) == 0,
                  "self-test: cost check accepted non-uniform counts");
  }

  Round run_round(RoundCtx& ctx) override {
    Round r;
    Tracer* tr = ctx.tracer;
    const double t_setup = wall_s();
    std::unique_ptr<Lab> lab;
    {
      Scope s(tr, "setup");
      lab = build(r.phases, tr);
    }
    r.setup_s = wall_s() - t_setup;

    net::BufferPool::reset_stats();
    const std::uint64_t hits0 = fib_hits(*lab);
    const HostMark m0 = HostMark::take();
    {
      Scope s(tr, "window");
      run_slices(
          0, kDrainEnd, kSlice, r, tr,
          [&](TimeNs t) { lab->net.run_until(t); },
          [&](TimeNs t) {
            r.pending_max = std::max<std::uint64_t>(r.pending_max,
                                                    lab->net.loop().pending());
            lab->auditor.audit(t, t >= kDrainEnd);
          });
    }
    const HostMark m1 = HostMark::take();
    close_window(r, m0, m1);
    r.buffer_high_water = net::BufferPool::stats().high_water;

    read_counters(*lab, r, hits0);
    check_round(*lab, r, *ctx.checks);
    if (ctx.probes != nullptr) probe(*lab, r, *ctx.probes, tr);
    return r;
  }

 private:
  static constexpr double kTolerance = sim::kDefaultRxBurst + 2;

  struct Lab {
    sim::Network net{0xbead};
    sim::Node* s1 = nullptr;
    sim::Node* r = nullptr;
    sim::Node* s2 = nullptr;
    sim::Link* l1 = nullptr;
    sim::Link* l2 = nullptr;
    std::unique_ptr<apps::AppMux> mux;
    std::unique_ptr<apps::TrafGen> gen;
    ebpf::ProgHandle prog;
    sim::InvariantAuditor auditor;
    std::uint64_t good = 0;       // delivered with the expected bytes
    std::uint64_t bad = 0;        // delivered with other bytes
    std::uint64_t in_cap_window = 0;
    check::Digest digest;
  };

  std::unique_ptr<Lab> build(SetupPhases& ph, Tracer* tr) {
    auto lab = std::make_unique<Lab>();
    Lab& L = *lab;
    int r_up = 0, r_down = 0, s1_if = 0, s2_if = 0;
    timed_phase(tr, "setup.topology", ph.topology_ms, [&] {
      L.s1 = &L.net.add_node("S1");
      L.r = &L.net.add_node("R");
      L.s2 = &L.net.add_node("S2");
      auto a1 = L.net.connect(*L.s1, kS1, *L.r, kRIf0, kTenGig, kProp);
      auto a2 = L.net.connect(*L.r, kRIf1, *L.s2, kS2, kTenGig, kProp);
      L.l1 = a1.link;
      L.l2 = a2.link;
      s1_if = a1.a_ifindex;
      r_up = a1.b_ifindex;
      r_down = a2.a_ifindex;
      s2_if = a2.b_ifindex;
      L.r->cpu.enabled = true;
      L.r->cpu.profile = sim::kXeonProfile;
      L.mux = std::make_unique<apps::AppMux>(*L.s2);
      L.mux->on_udp(kPort, [this, &L](const net::Packet& pkt,
                                      const net::UdpHeader&,
                                      std::span<const std::uint8_t>,
                                      sim::TimeNs now) {
        if (check::bytes_equal(pkt.bytes(), expected_))
          ++L.good;
        else
          ++L.bad;
        if (now >= kCapFrom && now < kCapTo) ++L.in_cap_window;
        L.digest.mix(now);
      });
    });
    timed_phase(tr, "setup.fib", ph.fib_ms, [&] {
      L.s1->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                                    {kRIf0, s1_if, 1});
      L.r->ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                                   {net::Ipv6Addr{}, r_down, 1});
      L.r->ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                                   {net::Ipv6Addr{}, r_up, 1});
      L.s2->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                                    {kRIf1, s2_if, 1});
    });
    ph.routes += 4;
    timed_phase(tr, "setup.programs", ph.programs_ms, [&] {
      const auto built = srv6bpf::usecases::build_end();
      double& load_ms = ph.load_ms["end"];
      timed_phase(tr, "setup.load.end", load_ms, [&] {
        auto res = L.r->ns().bpf().load(built.name,
                                        ebpf::ProgType::kLwtSeg6Local,
                                        built.insns, built.paper_sloc);
        if (!res.ok())
          throw std::runtime_error("End rejected: " + res.verify.error);
        L.prog = res.prog;
      });
      seg6::Seg6LocalEntry e;
      e.action = seg6::Seg6Action::kEndBPF;
      e.prog = L.prog;
      L.r->ns().seg6local().add(kSid, e);
    });
    timed_phase(tr, "setup.seal", ph.seal_ms, [&] {
      apps::TrafGen::Config cfg;
      cfg.spec = spec_;
      cfg.pps = kOfferedPps;
      cfg.start_at = 0;
      cfg.duration = kTraffic;
      L.gen = std::make_unique<apps::TrafGen>(*L.s1, cfg);
      L.auditor.add_source([g = L.gen.get()] { return g->attempted(); });
      for (sim::Node* n : {L.s1, L.r, L.s2}) L.auditor.add_node(*n);
      L.auditor.add_link(*L.l1);
      L.auditor.add_link(*L.l2);
      L.gen->start();
    });
    return lab;
  }

  static std::uint64_t fib_hits(Lab& L) {
    std::uint64_t h = 0;
    for (sim::Node* n : {L.s1, L.r, L.s2}) h += n->ns().table(0).cache_hits();
    return h;
  }

  void read_counters(Lab& L, Round& r, std::uint64_t hits0) {
    r.offered = L.gen->attempted();
    r.events = L.net.loop().executed();
    r.fib_cache_hits = fib_hits(L) - hits0;
    std::uint64_t serviced = 0;
    for (sim::Node* n : {L.s1, L.r, L.s2}) {
      const sim::NodeStats st = n->stats();
      r.pipeline += st.pipeline;
      r.flow_hashes += st.tx_packets;
      serviced += st.serviced_packets;
    }
    r.prog_runs["end"] = r.pipeline.bpf_runs;
    r.domain_serviced = {serviced};
    r.delivered = L.good;

    const sim::NodeStats rs = L.r->stats();
    r.fingerprint = {r.offered,         L.good,
                     L.bad,             rs.tx_packets,
                     rs.drops_rx_queue, rs.total_drops(),
                     r.events,          r.pipeline.packets,
                     r.pipeline.bpf_runs, r.pipeline.bpf_insns_jit,
                     r.pipeline.fib_lookups, L.digest.value};
  }

  void check_round(Lab& L, Round& r, Checks& checks) {
    const auto ledger = L.auditor.ledger();
    const std::int64_t missing = ledger.in_flight < 0 ? -ledger.in_flight
                                                      : ledger.in_flight;
    r.failed = L.bad + static_cast<std::uint64_t>(missing);
    checks.expect(check::ledger_closed(ledger),
                  "fig2_overload: conservation ledger does not close");
    checks.expect(L.auditor.violations().empty(),
                  "fig2_overload: InvariantAuditor reported violations");
    checks.expect(L.good > 0, "fig2_overload: nothing delivered");
    // R's capacity from the cost-model constants and R's own counts.
    const double cost =
        check::uniform_packet_cost_ns(sim::kXeonProfile, L.r->stats().pipeline);
    checks.expect(check::capacity_matches(L.in_cap_window, kCapTo - kCapFrom,
                                          cost, kTolerance),
                  "fig2_overload: delivered rate " +
                      std::to_string(L.in_cap_window) + " pkts in window != "
                      "capacity from cost " + std::to_string(cost) + " ns");
  }

  void probe(Lab& L, const Round& r, ProbeValues& out, Tracer* tr) {
    Scope s(tr, "probes");
    {
      Scope p(tr, "probe.sim.event_loop");
      out["sim.event_loop.ns_per_event"] =
          probe_event_loop_ns(r.pending_max, r.events, kDrainEnd);
    }
    {
      Scope p(tr, "probe.seg6.fib");
      // R looks up the rewritten destination (S2) for every packet.
      std::vector<net::Ipv6Addr> stream(4096, kS2);
      out["seg6.fib.lookup_ns"] =
          probe_fib_lookup_ns(L.r->ns().table(0), stream);
    }
    std::vector<net::Packet> delivered_form;
    {
      net::Packet p(expected_);
      delivered_form.assign(256, p);
    }
    {
      Scope p(tr, "probe.seg6.flow_hash");
      out["seg6.flow_hash_ns"] = probe_flow_hash_ns(delivered_form);
    }
    {
      Scope p(tr, "probe.ebpf.end");
      // The program sees the packet after the End part advanced the SRH.
      net::Packet in = offered_pkt_;
      seg6::srh_advance(in);
      std::vector<net::Packet> inputs(64, in);
      out["ebpf.run_ns.end"] = probe_prog_run_ns(L.r->ns(), *L.prog, inputs);
    }
  }

  net::PacketSpec spec_;
  net::Packet offered_pkt_;
  std::vector<std::uint8_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_fig2_overload() {
  return std::make_unique<Fig2Overload>();
}

}  // namespace perfbench
