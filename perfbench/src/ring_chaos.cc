// ring_chaos: the generated 56-node ring (sim::build_ring_topology: 8
// segments x (src + 5 Xeon routers + sink)), sealed into 8 PDES domains,
// plain forwarding without eBPF. A seeded sim::FaultInjector schedule adds
// wire corruption, cross-link flaps and mid-chain router crash/restart with
// re-install; steady schedule_route_withdraw / schedule_route_add churn on
// every router bumps the FIB cache generation beside the forwarding reads.
//
// The timed rounds run the sealed domains on one worker thread: domain
// loops, horizons and mailboxes all run, without host-thread contention.
// On a shared 4-vCPU host the multi-thread window's wall rate and peak RSS
// moved too much from run to run to gate on (see README.md). The parallel
// run is kept as the correctness reference: once per process, untimed, on
// min(4, nproc) threads.
//
// Seeded inputs: corruption rates, flap and crash instants, which segments
// crash and where in the chain, failed install attempts, churn phase.
// Checks: every round's counts and delivery digest equal the parallel
// run's, the InvariantAuditor reports no violation and the ledger drains
// to zero, every crashed router re-installs, and every sink receives
// packets after the last fault heals.
#include <algorithm>
#include <memory>
#include <thread>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "checks.h"
#include "harness.h"
#include "net/buffer_pool.h"
#include "probes.h"
#include "sim/fault_injector.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "sim/pdes_topo.h"

namespace perfbench {

namespace sim = srv6bpf::sim;
namespace net = srv6bpf::net;
namespace apps = srv6bpf::apps;

namespace {

constexpr double kSegmentPps = 450e3;
constexpr TimeNs kTraffic = 40 * sim::kMilli;
// Long enough for the last re-install attempt and every in-flight packet.
constexpr TimeNs kDrainEnd = kTraffic + 20 * sim::kMilli;
constexpr TimeNs kSlice = 2 * sim::kMilli;
constexpr TimeNs kChurnEvery = 500 * sim::kMicro;
constexpr std::uint16_t kPort = 7001;
constexpr std::size_t kCrashes = 2;

struct CrashPlan {
  std::size_t segment = 0;
  std::size_t router = 0;
  sim::CrashSpec spec;
};

struct FaultPlan {
  double corrupt_prob = 0;
  TimeNs flap_down = 0, flap_up = 0;
  std::vector<CrashPlan> crashes;
  TimeNs churn_phase = 0;
};

// Every distinct link of the ring, found through the nodes' interfaces.
std::vector<sim::Link*> ring_links(const sim::RingTopo& topo) {
  std::vector<sim::Link*> links;
  auto add = [&links](sim::Node* n) {
    for (std::size_t i = 0; i < n->interface_count(); ++i) {
      sim::Link* l = n->interface_link(static_cast<int>(i));
      if (l != nullptr && std::find(links.begin(), links.end(), l) == links.end())
        links.push_back(l);
    }
  };
  for (const auto& seg : topo.segments) {
    add(seg.src);
    for (sim::Node* r : seg.routers) add(r);
    add(seg.sink);
  }
  return links;
}

net::Prefix churn_prefix(std::size_t seg, std::size_t router) {
  net::Ipv6Addr a = net::Ipv6Addr::must_parse("fd99::");
  a.set_group(1, static_cast<std::uint16_t>(seg + 1));
  a.set_group(2, static_cast<std::uint16_t>(router + 1));
  return {a, 48};
}

class RingChaos final : public Workload {
 public:
  std::size_t threads() const override { return 1; }

  static std::size_t reference_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, std::min<std::size_t>(4, hw));
  }

  void prepare(std::uint64_t seed, Checks&) override {
    SeedRng rng(seed ^ 0xc4a05c4a05ull);
    plan_.corrupt_prob = 0.002 + 0.008 * static_cast<double>(rng.range(0, 1000)) / 1000.0;
    plan_.flap_down = kTraffic * rng.range(20, 35) / 100;
    plan_.flap_up = plan_.flap_down + kTraffic * rng.range(3, 8) / 100;
    plan_.crashes.clear();
    const std::size_t first = rng.range(0, 7);
    for (std::size_t k = 0; k < kCrashes; ++k) {
      CrashPlan c;
      c.segment = (first + k * 4) % 8;  // two distinct segments
      c.router = rng.range(1, 3);       // mid-chain
      c.spec.crash_at = kTraffic * rng.range(30, 45) / 100;
      c.spec.restart_at = c.spec.crash_at + kTraffic * rng.range(5, 10) / 100;
      c.spec.install_failures = rng.range(0, 1);
      c.spec.policy.base_backoff = kTraffic / 20;
      c.spec.policy.max_backoff = kTraffic / 4;
      c.spec.policy.jitter_frac = 0.2;
      c.spec.policy.max_attempts = 6;
      plan_.crashes.push_back(c);
    }
    plan_.churn_phase = rng.range(0, kChurnEvery - 1);
    fault_seed_ = rng.next();
  }

  // The parallel reference runs after the timed rounds, so the threads it
  // starts leave nothing behind in the rounds' memory figures.
  void finish(const Round& timed, Checks& checks) override {
    Checks ref_checks;
    RoundCtx ctx;
    ctx.checks = &ref_checks;
    const Round ref = run(ctx, reference_threads());
    for (const std::string& f : ref_checks.failures())
      checks.expect(false, "ring_chaos parallel reference: " + f);
    checks.expect(digests_equal(timed.fingerprint.back(),
                                ref.fingerprint.back()) &&
                      timed.fingerprint == ref.fingerprint,
                  "ring_chaos: counts or delivery digest on one thread "
                  "differ from the run on " +
                      std::to_string(reference_threads()) + " threads");
  }

  void self_test(Checks& checks) override {
    // Digest: one flipped bit.
    checks.expect(digests_equal(0x5eed, 0x5eed) &&
                      !digests_equal(0x5eed, 0x5eed ^ 1),
                  "self-test: digest check accepted a flipped bit");
    // Auditor: a source that offered one packet nobody delivered or dropped.
    sim::InvariantAuditor a;
    a.add_source([] { return std::uint64_t{1}; });
    a.audit(1, /*final_drain=*/true);
    checks.expect(!a.violations().empty() && !check::ledger_closed(a.ledger()),
                  "self-test: auditor accepted a packet missing from the "
                  "ledger");
    // Re-install: a crash whose re-installer gave up.
    sim::OutageReport gave_up;
    gave_up.gave_up = true;
    checks.expect(!reinstalled({gave_up}),
                  "self-test: re-install check accepted a router that gave "
                  "up");
    // Resumption: the last delivery before the last heal.
    checks.expect(resumed({20, 30}, 15) && !resumed({20, 14}, 15),
                  "self-test: resumption check accepted a sink silent after "
                  "the last heal");
  }

  Round run_round(RoundCtx& ctx) override { return run(ctx, threads()); }

 private:
  struct Lab {
    sim::Network net{0xc4a05};
    sim::RingTopo topo;
    std::vector<sim::Link*> links;
    std::unique_ptr<sim::FaultInjector> inj;
    std::vector<std::unique_ptr<apps::AppMux>> muxes;
    std::vector<std::unique_ptr<apps::TrafGen>> gens;
    sim::InvariantAuditor auditor;
    // Written by each sink's domain thread; read after the window.
    std::vector<check::Digest> digs;
    std::vector<std::uint64_t> delivered;
    std::vector<TimeNs> last_delivery;
  };

  static bool digests_equal(std::uint64_t a, std::uint64_t b) {
    return a == b;
  }
  static bool reinstalled(const std::vector<sim::OutageReport>& outages) {
    for (const auto& o : outages)
      if (o.gave_up || o.installed_at == sim::kTimeInfinity) return false;
    return !outages.empty();
  }
  static bool resumed(const std::vector<TimeNs>& last_delivery, TimeNs heal) {
    for (TimeNs t : last_delivery)
      if (t <= heal) return false;
    return !last_delivery.empty();
  }

  std::unique_ptr<Lab> build(SetupPhases& ph, Tracer* tr) {
    auto lab = std::make_unique<Lab>();
    Lab& L = *lab;
    sim::RingTopoSpec spec;
    timed_phase(tr, "setup.topology", ph.topology_ms, [&] {
      // The ring builder installs each chain's /64 route as it wires it;
      // those installs are part of this phase (setup.fib_ms covers the
      // churn routes).
      L.topo = build_ring_topology(L.net, spec);
      L.links = ring_links(L.topo);
    });
    timed_phase(tr, "setup.fib", ph.fib_ms, [&] {
      for (std::size_t s = 0; s < L.topo.segments.size(); ++s)
        for (std::size_t j = 0; j < L.topo.segments[s].routers.size(); ++j) {
          sim::Node* r = L.topo.segments[s].routers[j];
          r->ns().table(0).add_route(churn_prefix(s, j),
                                     {net::Ipv6Addr{}, 0, 1});
          ++ph.routes;
        }
    });
    timed_phase(tr, "setup.programs", ph.programs_ms, [] {});
    timed_phase(tr, "setup.seal", ph.seal_ms, [&] {
      L.net.set_domain_count(spec.segments);
      L.net.seal_domains();
      L.inj = std::make_unique<sim::FaultInjector>(L.net, fault_seed_);
      for (std::size_t s = 0; s < L.topo.segments.size(); ++s) {
        const auto& seg = L.topo.segments[s];
        L.inj->corrupt(*seg.src->interface_link(0), 0, plan_.corrupt_prob, 0,
                       kTraffic);
        L.inj->corrupt(*seg.cross_link, 0, plan_.corrupt_prob, 0, kTraffic);
        if (s % 2 == 0)
          L.inj->flap(*seg.cross_link, plan_.flap_down, plan_.flap_up);
      }
      for (const CrashPlan& c : plan_.crashes)
        L.inj->crash(*L.topo.segments[c.segment].routers[c.router], c.spec);
      L.inj->install();
      // Route churn: every router withdraws and re-adds its churn prefix.
      for (std::size_t s = 0; s < L.topo.segments.size(); ++s)
        for (std::size_t j = 0; j < L.topo.segments[s].routers.size(); ++j) {
          sim::Node& r = *L.topo.segments[s].routers[j];
          for (TimeNs t = plan_.churn_phase; t < kTraffic; t += kChurnEvery) {
            L.net.schedule_route_withdraw(r, 0, churn_prefix(s, j), t);
            L.net.schedule_route_add(
                r, 0, {churn_prefix(s, j), {{net::Ipv6Addr{}, 0, 1}}, {}, {}},
                t + kChurnEvery / 2);
          }
        }
      const std::size_t n = L.topo.segments.size();
      L.digs.assign(n, {});
      L.delivered.assign(n, 0);
      L.last_delivery.assign(n, 0);
      for (std::size_t s = 0; s < n; ++s) {
        auto& seg = L.topo.segments[s];
        L.muxes.push_back(std::make_unique<apps::AppMux>(*seg.sink));
        L.muxes.back()->on_udp(
            kPort, [&L, s](const net::Packet& pkt, const net::UdpHeader&,
                           std::span<const std::uint8_t>, sim::TimeNs now) {
              ++L.delivered[s];
              L.last_delivery[s] = now;
              L.digs[s].mix(now);
              L.digs[s].mix(pkt.seq);
            });
        apps::TrafGen::Config cfg;
        cfg.spec.src = seg.src_addr;
        cfg.spec.dst = seg.dst_addr;
        cfg.spec.payload_size = 64;
        cfg.spec.dst_port = kPort;
        cfg.pps = kSegmentPps;
        cfg.duration = kTraffic;
        cfg.flow_label_spread = 16;
        cfg.src_port_spread = 7;
        L.gens.push_back(std::make_unique<apps::TrafGen>(*seg.src, cfg));
        L.gens.back()->start();
      }
      for (const auto& g : L.gens)
        L.auditor.add_source([gp = g.get()] { return gp->attempted(); });
      for (const auto& seg : L.topo.segments) {
        L.auditor.add_node(*seg.src);
        for (sim::Node* r : seg.routers) L.auditor.add_node(*r);
        L.auditor.add_node(*seg.sink);
      }
      for (sim::Link* l : L.links) L.auditor.add_link(*l);
    });
    return lab;
  }

  Round run(RoundCtx& ctx, std::size_t threads) {
    Round r;
    Tracer* tr = ctx.tracer;
    const double t_setup = wall_s();
    std::unique_ptr<Lab> lab;
    {
      Scope s(tr, "setup");
      lab = build(r.phases, tr);
    }
    r.setup_s = wall_s() - t_setup;
    Lab& L = *lab;

    net::BufferPool::reset_stats();
    const std::uint64_t hits0 = fib_hits(L);
    const HostMark m0 = HostMark::take();
    {
      Scope s(tr, "window");
      run_slices(
          0, kDrainEnd, kSlice, r, tr,
          [&](TimeNs t) { L.net.run_parallel_until(t, threads); },
          [&](TimeNs t) {
            std::uint64_t pending = 0;
            for (std::size_t d = 0; d < L.net.pdes_net().domain_count(); ++d)
              pending += L.net.pdes_net()
                             .domain_loop(static_cast<std::uint32_t>(d))
                             .pending();
            r.pending_max = std::max(r.pending_max, pending);
            L.auditor.audit(t, t >= kDrainEnd);
          });
    }
    const HostMark m1 = HostMark::take();
    close_window(r, m0, m1);
    r.buffer_high_water = net::BufferPool::stats().high_water;

    // ---- read out ----
    r.offered = 0;
    for (const auto& g : L.gens) r.offered += g->attempted();
    r.events = L.net.pdes_net().events_executed();
    r.mailbox_spins = L.net.pdes_net().mailbox_overflow_spins();
    r.fib_cache_hits = fib_hits(L) - hits0;
    check::Digest total;
    std::uint64_t delivered = 0;
    for (std::size_t s = 0; s < L.digs.size(); ++s) {
      delivered += L.delivered[s];
      total.mix(L.digs[s].value);
      total.mix(L.delivered[s]);
    }
    r.delivered = delivered;
    std::vector<std::uint64_t> drops(sim::kDropReasonCount, 0);
    for (const auto& seg : L.topo.segments) {
      std::uint64_t serviced = 0;
      auto fold = [&](sim::Node* n) {
        const sim::NodeStats st = n->stats();
        r.pipeline += st.pipeline;
        r.flow_hashes += st.tx_packets;
        serviced += st.serviced_packets;
        const std::uint64_t by_reason[] = {
            st.drops_rx_queue, st.drops_no_route,  st.drops_ttl,
            st.drops_verdict,  st.drops_malformed, st.drops_link_down,
            st.drops_no_buffer, st.drops_node_down};
        for (std::size_t k = 0; k < sim::kDropReasonCount; ++k)
          drops[k] += by_reason[k];
      };
      fold(seg.src);
      for (sim::Node* n : seg.routers) fold(n);
      fold(seg.sink);
      r.domain_serviced.push_back(serviced);
    }
    std::uint64_t link_drops = 0, corrupted = 0;
    for (sim::Link* l : L.links)
      for (int side = 0; side < 2; ++side) {
        link_drops += l->stats(side).drops + l->stats(side).drops_link_down;
        corrupted += l->stats(side).corrupted;
      }
    const sim::PipelineTotals& p = r.pipeline;
    r.fingerprint = {r.offered,     delivered,     r.events, p.packets,
                     p.fib_lookups, link_drops,    corrupted};
    r.fingerprint.insert(r.fingerprint.end(), drops.begin(), drops.end());
    r.fingerprint.push_back(total.value);  // the digest stays last

    // ---- checks ----
    Checks& checks = *ctx.checks;
    const auto ledger = L.auditor.ledger();
    const std::int64_t missing =
        ledger.in_flight < 0 ? -ledger.in_flight : ledger.in_flight;
    r.failed = static_cast<std::uint64_t>(missing);
    checks.expect(check::ledger_closed(ledger),
                  "ring_chaos: conservation ledger does not close");
    checks.expect(L.auditor.violations().empty(),
                  "ring_chaos: InvariantAuditor reported " +
                      std::to_string(L.auditor.violations().size()) +
                      " violations");
    checks.expect(reinstalled(L.inj->outages()),
                  "ring_chaos: a crashed router did not re-install");
    TimeNs heal = std::max(plan_.flap_up, kTraffic / 2);
    for (const auto& o : L.inj->outages())
      heal = std::max(heal, o.installed_at);
    checks.expect(heal < kTraffic && resumed(L.last_delivery, heal),
                  "ring_chaos: a sink received nothing after the last fault "
                  "healed at " + std::to_string(heal) + " ns");

    if (ctx.probes != nullptr) probe(L, r, *ctx.probes, tr);
    return r;
  }

  static std::uint64_t fib_hits(Lab& L) {
    std::uint64_t h = 0;
    for (const auto& seg : L.topo.segments)
      for (sim::Node* n : seg.routers) h += n->ns().table(0).cache_hits();
    return h;
  }

  void probe(Lab& L, const Round& r, ProbeValues& out, Tracer* tr) {
    Scope s(tr, "probes");
    {
      Scope p(tr, "probe.sim.event_loop");
      out["sim.event_loop.ns_per_event"] = probe_event_loop_ns(
          r.pending_max, r.events, kDrainEnd, L.topo.segments.size());
    }
    {
      Scope p(tr, "probe.seg6.fib");
      // A chain router's lookups: its segment's destination, every packet.
      std::vector<net::Ipv6Addr> stream(4096, L.topo.segments[0].dst_addr);
      out["seg6.fib.lookup_ns"] =
          probe_fib_lookup_ns(L.topo.segments[0].routers[0]->ns().table(0),
                              stream);
    }
    {
      Scope p(tr, "probe.seg6.flow_hash");
      std::vector<net::Packet> pkts;
      for (std::uint16_t k = 0; k < 64; ++k) {
        net::PacketSpec spec;
        spec.src = L.topo.segments[k % 8].src_addr;
        spec.dst = L.topo.segments[k % 8].dst_addr;
        spec.src_port = static_cast<std::uint16_t>(7000 + k % 7);
        spec.dst_port = kPort;
        spec.payload_size = 64;
        pkts.push_back(net::make_udp_packet(spec));
      }
      out["seg6.flow_hash_ns"] = probe_flow_hash_ns(pkts);
    }
  }

  FaultPlan plan_;
  std::uint64_t fault_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ring_chaos() {
  return std::make_unique<RingChaos>();
}

}  // namespace perfbench
