// nf_chain: the paper's §4 network functions at full service, on one host
// thread. S1 sends three traffic classes through R (Xeon-modelled, 4 RSS
// contexts) to two hosts A and B; the offered rate is below R's capacity
// even if every flow landed on one context, so nothing is tail-dropped.
// Every packet runs at least one of usecases/programs.h's programs:
//
//   dm   — plain UDP whose destination cycles (TrafGen dst_spread) over a
//          FIB of tens of thousands of /48 routes with ECMP nexthops. S1's
//          LWT xmit program (DM encap, every packet) wraps it in an SRH with
//          a DM TLV; End.DM on R reports the timestamps through
//          bpf_perf_event_output, decapsulates, and R forwards the inner
//          packet by longest-prefix match to A, B or either (ECMP).
//   wrr  — plain UDP to one address; R's route runs the hybrid-access WRR
//          LWT program, which encapsulates towards End.DT6 SIDs on A and B
//          by its weights.
//   tag  — SRv6 packets through two End.BPF SIDs on R, Tag++ then Add TLV,
//          delivered with their SRH at B.
//
// A and B gate their UDP socket with a compiled filter("...") expression.
//
// Seeded inputs: the route plan (prefix shape, per-route nexthop choice,
// ECMP weights, more-specifics, holes), the destination window, WRR
// weights, SRH tag, payload fill, ports and flow labels.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "apps/sink.h"
#include "apps/socket_filter.h"
#include "apps/trafgen.h"
#include "checks.h"
#include "ebpf/perf_event.h"
#include "harness.h"
#include "net/buffer_pool.h"
#include "net/srh.h"
#include "probes.h"
#include "seg6/lwt.h"
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
namespace usecases = srv6bpf::usecases;

namespace {

constexpr double kClassPps = 120e3;  // per class; 360 kpps offered in all
constexpr TimeNs kTraffic = 100 * sim::kMilli;
constexpr TimeNs kDrainEnd = kTraffic + 5 * sim::kMilli;
constexpr TimeNs kSlice = sim::kMilli;
constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
constexpr TimeNs kProp = 20 * sim::kMicro;
constexpr std::size_t kRContexts = 4;
constexpr std::uint16_t kPort = 7001;
constexpr std::uint16_t kDmPort = 5000;   // dm class source ports 5000..5002
constexpr std::uint16_t kDmPortSpread = 3;
constexpr std::uint16_t kWrrPort = 6000;
constexpr std::uint16_t kTagPort = 6100;
// Route plan: kRoutes /48 sites under 2001:db8::/32, of which the
// generator's window of kSpread sites is a part.
constexpr std::uint32_t kRoutes = 20480;
constexpr std::uint32_t kSpread = 8192;
constexpr int kSinks = 2;  // A = bit 0, B = bit 1

const net::Ipv6Addr kS1 = net::Ipv6Addr::must_parse("fc00:1::1");
const net::Ipv6Addr kRIf0 = net::Ipv6Addr::must_parse("fc00:1::2");
const net::Ipv6Addr kRA = net::Ipv6Addr::must_parse("fc00:a::1");
const net::Ipv6Addr kA = net::Ipv6Addr::must_parse("fc00:a::2");
const net::Ipv6Addr kRB = net::Ipv6Addr::must_parse("fc00:b::1");
const net::Ipv6Addr kB = net::Ipv6Addr::must_parse("fc00:b::2");
const net::Ipv6Addr kDmSid = net::Ipv6Addr::must_parse("fc00:f::d");
const net::Ipv6Addr kTagSid = net::Ipv6Addr::must_parse("fc00:f::1");
const net::Ipv6Addr kTlvSid = net::Ipv6Addr::must_parse("fc00:f::2");
const net::Ipv6Addr kWrrSidA = net::Ipv6Addr::must_parse("fc00:a::d1");
const net::Ipv6Addr kWrrSidB = net::Ipv6Addr::must_parse("fc00:b::d2");
const std::uint8_t kTlv[8] = {net::kTlvOpaque, 6, 'S', 'R', 'v', '6', '!', 0};

net::Ipv6Addr site_addr(std::uint16_t site, std::uint16_t host) {
  net::Ipv6Addr a = net::Ipv6Addr::must_parse("2001:db8::");
  a.set_group(2, site);
  a.set_group(7, host);
  return a;
}

struct PlannedRoute {
  net::Prefix prefix;
  unsigned sinks = 0;  // bit mask of sinks its nexthops lead to
};

// The Tag++ then Add TLV effect on an offered tag-class packet, computed
// here: both SIDs advance the SRH (segments_left 2 -> 0, dst = final
// segment), the tag grows by one, an 8-byte TLV is appended to the SRH
// (hdr_ext_len and the payload length grow by 8) and R decrements the hop
// limit. The flow label is left as offered (it varies per packet).
std::vector<std::uint8_t> expected_after_tag_tlv(const net::Packet& offered) {
  std::vector<std::uint8_t> b(offered.bytes().begin(), offered.bytes().end());
  const std::size_t srh = net::kIpv6HeaderSize;
  const std::size_t srh_len = (static_cast<std::size_t>(b[srh + 1]) + 1) * 8;
  b[7] = static_cast<std::uint8_t>(b[7] - 1);
  b[srh + 3] = 0;
  std::memcpy(&b[24], &b[srh + 8], 16);  // segment[0] = final
  const std::uint16_t tag =
      static_cast<std::uint16_t>((b[srh + 6] << 8 | b[srh + 7]) + 1);
  b[srh + 6] = static_cast<std::uint8_t>(tag >> 8);
  b[srh + 7] = static_cast<std::uint8_t>(tag);
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(srh + srh_len), kTlv,
           kTlv + 8);
  b[srh + 1] = static_cast<std::uint8_t>(b[srh + 1] + 1);
  const std::uint16_t plen = static_cast<std::uint16_t>((b[4] << 8 | b[5]) + 8);
  b[4] = static_cast<std::uint8_t>(plen >> 8);
  b[5] = static_cast<std::uint8_t>(plen);
  return b;
}

// Zeroes the 20-bit flow label so packets of one class compare equal.
void mask_flow_label(std::vector<std::uint8_t>& b) {
  b[1] &= 0xf0;
  b[2] = 0;
  b[3] = 0;
}

class NfChain final : public Workload {
 public:
  void prepare(std::uint64_t seed, Checks& checks) override {
    SeedRng rng(seed ^ 0x4ec4a14ull);
    route_base_ = static_cast<std::uint16_t>(rng.range(0, 65535 - kRoutes));
    site_base_ = static_cast<std::uint16_t>(
        route_base_ + rng.range(0, kRoutes - kSpread));
    ecmp_w_[0] = static_cast<int>(rng.range(1, 3));
    ecmp_w_[1] = static_cast<int>(rng.range(1, 3));
    wrr_w_[0] = rng.range(2, 7);
    wrr_w_[1] = rng.range(1, 5);
    fill_ = static_cast<std::uint8_t>(rng.next());
    tag_ = static_cast<std::uint16_t>(rng.next());
    label_ = static_cast<std::uint32_t>(rng.range(1, 0xf0000));
    wrr_dst_ = net::Ipv6Addr::must_parse("2001:db9::7");
    wrr_dst_.set_group(2, static_cast<std::uint16_t>(rng.next()));
    filter_expr_ = "udp and dst port " + std::to_string(kPort) +
                   " and src net fc00:1::/64";

    // The route plan: a /32 default towards A, a /48 per site (a few
    // holes fall through to the /32), a nexthop choice per /48 (A, B or
    // ECMP over both), and /56 more-specifics towards the other side.
    plan_.clear();
    plan_.push_back({net::Prefix::parse("2001:db8::/32").value(), 1u});
    std::vector<PlannedRoute> specifics;
    for (std::uint32_t i = 0; i < kRoutes; ++i) {
      const std::uint16_t site = static_cast<std::uint16_t>(route_base_ + i);
      const std::uint64_t draw = rng.next();
      if (draw % 32 == 0) continue;  // hole
      const unsigned sinks = (draw >> 8) % 8 < 3   ? 1u
                             : (draw >> 8) % 8 < 5 ? 2u
                                                   : 3u;
      plan_.push_back({{site_addr(site, 0), 48}, sinks});
      if ((draw >> 16) % 16 == 0)
        specifics.push_back({{site_addr(site, 0), 56}, sinks == 1 ? 2u : 1u});
    }
    plan_.insert(plan_.end(), specifics.begin(), specifics.end());

    // Reference egress per generated site, by linear scan of the plan.
    ref_.clear();
    for (const PlannedRoute& p : plan_) {
      check::RefRoute rr;
      std::memcpy(rr.addr.data(), p.prefix.addr.bytes().data(), 16);
      rr.len = p.prefix.len;
      rr.sink_mask = p.sinks;
      ref_.push_back(rr);
    }
    allowed_.assign(kSpread, 0);
    for (std::uint32_t i = 0; i < kSpread; ++i) {
      const int best = check::linear_lpm(
          ref_, site_addr(static_cast<std::uint16_t>(site_base_ + i), 2));
      allowed_[i] = best < 0 ? 0u : ref_[static_cast<std::size_t>(best)].sink_mask;
    }
    flow_seen_.assign(static_cast<std::size_t>(kSpread) * kDmPortSpread, 0);

    dm_spec_.src = kS1;
    dm_spec_.dst = site_addr(site_base_, 2);
    dm_spec_.src_port = kDmPort;
    dm_spec_.dst_port = kPort;
    dm_spec_.payload_size = 64;
    dm_spec_.payload_fill = fill_;
    dm_spec_.flow_label = label_;
    wrr_spec_ = dm_spec_;
    wrr_spec_.dst = wrr_dst_;
    wrr_spec_.src_port = kWrrPort;
    tag_spec_ = dm_spec_;
    tag_spec_.dst = kB;
    tag_spec_.segments = {kTagSid, kTlvSid, kB};
    tag_spec_.srh_tag = tag_;
    tag_spec_.src_port = kTagPort;
    tag_expected_ = expected_after_tag_tlv(net::make_udp_packet(tag_spec_));
    mask_flow_label(tag_expected_);

    build_samples();
    check_engines(checks);
  }

  void self_test(Checks& checks) override {
    sim::InvariantAuditor::Ledger l{100, 99, 1};
    checks.expect(!check::ledger_closed(l),
                  "self-test: ledger check accepted a missing packet");
    // LPM: a reference route off by one prefix bit must change the answer.
    // Take a /56 more-specific that a generated site hits and move it to
    // the neighbouring prefix: the linear scan must then pick another route.
    bool tested = false;
    for (std::uint32_t i = 0; i < kSpread && !tested; ++i) {
      const net::Ipv6Addr dst =
          site_addr(static_cast<std::uint16_t>(site_base_ + i), 2);
      const int best = check::linear_lpm(ref_, dst);
      if (best < 0 || ref_[static_cast<std::size_t>(best)].len != 56) continue;
      std::vector<check::RefRoute> bad = ref_;
      check::RefRoute& r = bad[static_cast<std::size_t>(best)];
      r.addr[6] ^= 0x01;  // last bit of the /56 prefix
      const int other = check::linear_lpm(bad, dst);
      checks.expect(other != best && (other < 0 || (bad[static_cast<std::size_t>(other)].sink_mask & ~allowed_[i]) != 0),
                    "self-test: LPM check accepted a route off by one prefix");
      tested = true;
    }
    checks.expect(tested, "self-test: no /56 more-specific in the window");
    // Tag/TLV content: one changed TLV byte.
    std::vector<std::uint8_t> bad = tag_expected_;
    bad[net::kIpv6HeaderSize + 8 + 3 * 16 + 3] ^= 0x20;  // appended TLV
    checks.expect(!check::bytes_equal(tag_expected_, bad),
                  "self-test: content check accepted a changed TLV byte");
    // WRR: one packet moved from path 1 to path 2 over a full cycle.
    checks.expect(check::wrr_exact(wrr_w_[0] * 10, wrr_w_[1] * 10, wrr_w_[0],
                                   wrr_w_[1]) &&
                      !check::wrr_exact(wrr_w_[0] * 10 - 1,
                                        wrr_w_[1] * 10 + 1, wrr_w_[0],
                                        wrr_w_[1]),
                  "self-test: WRR check accepted an off-weight split");
    // ECMP share: a split far outside the binomial bound.
    checks.expect(check::within_binomial(500, 1000, 0.5) &&
                      !check::within_binomial(700, 1000, 0.5),
                  "self-test: binomial check accepted a skewed split");
    // Stickiness: one flow seen at both sinks.
    checks.expect(sticky({1, 2, 1}) && !sticky({1, 3, 2}),
                  "self-test: stickiness check accepted a split flow");
    // One-way delay one nanosecond under the wire floor.
    const TimeNs floor = dm_floor_ns();
    checks.expect(owd_ok(floor, floor) && !owd_ok(floor - 1, floor),
                  "self-test: delay-floor check accepted a sub-floor delay");
    // Baseline interpreter comparison: one flipped output bit.
    std::vector<std::uint8_t> flipped = engine_sample_bytes_;
    if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x04;
    checks.expect(!flipped.empty() &&
                      !check::bytes_equal(engine_sample_bytes_, flipped),
                  "self-test: engine comparison accepted a flipped bit");
    // RX-ring drops: one.
    checks.expect(!no_drops(1, 0), "self-test: drop check accepted a drop");
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
            drain_perf(*lab);
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
  struct Lab {
    sim::Network net{0x4ec};
    sim::Node* s1 = nullptr;
    sim::Node* r = nullptr;
    sim::Node* sink[kSinks] = {nullptr, nullptr};
    std::vector<sim::Link*> links;
    std::unique_ptr<apps::AppMux> mux[kSinks];
    std::shared_ptr<apps::SocketFilter> filter[kSinks];
    std::unique_ptr<apps::TrafGen> gen_dm, gen_wrr, gen_tag;
    ebpf::ProgHandle dm_encap, end_dm, wrr, tag, tlv;
    ebpf::PerfEventBuffer* perf = nullptr;
    sim::InvariantAuditor auditor;

    // Observed this round.
    std::vector<std::uint8_t> site_mask;  // per generated site: sinks seen
    std::uint64_t dm_ok = 0, wrr_ok[kSinks] = {0, 0}, tag_ok = 0;
    std::uint64_t bad = 0;
    std::uint64_t dm_events = 0;
    TimeNs owd_min = ~TimeNs{0};
    check::Digest digest;
  };

  // ---- inputs for the engine comparison and the probes ----
  void build_samples() {
    dm_plain_.clear();
    wrr_plain_.clear();
    tag_in_.clear();
    for (std::uint16_t i = 0; i < 32; ++i) {
      net::PacketSpec s = dm_spec_;
      s.dst = site_addr(static_cast<std::uint16_t>(site_base_ + i * 97), 2);
      s.src_port = static_cast<std::uint16_t>(kDmPort + i % kDmPortSpread);
      dm_plain_.push_back(net::make_udp_packet(s));
      net::PacketSpec w = wrr_spec_;
      w.flow_label = label_ + i;
      wrr_plain_.push_back(net::make_udp_packet(w));
      net::PacketSpec t = tag_spec_;
      t.flow_label = label_ + i;
      tag_in_.push_back(net::make_udp_packet(t));
    }
  }

  // One standalone netns per engine with the workload's programs, maps
  // created in the same order so map ids match.
  struct EngineNs {
    seg6::Netns ns{"engine"};
    std::shared_ptr<seg6::LwtState> dm_lwt, wrr_lwt;
    seg6::Seg6LocalEntry dm_entry, tag_entry, tlv_entry;
    ebpf::PerfEventBuffer* perf = nullptr;
  };

  std::unique_ptr<EngineNs> make_engine_ns(ebpf::EngineKind engine) const {
    auto e = std::make_unique<EngineNs>();
    e->ns.bpf().set_engine(engine);
    e->ns.table(0).add_route(net::Prefix::parse("::/0").value(),
                             {net::Ipv6Addr{}, 0, 1});
    const std::uint32_t perf_id =
        ebpf::create_perf_event_array(e->ns.bpf().maps(), "dm_events", 1024);
    e->perf = &dynamic_cast<ebpf::PerfEventArrayMap*>(
                   e->ns.bpf().maps().get(perf_id))
                   ->buffer();
    const std::uint32_t dm_cfg = dm_config_map(e->ns.bpf());
    const std::uint32_t wrr_cfg = wrr_config_map(e->ns.bpf());
    auto load = [&e](const usecases::BuiltProgram& b, ebpf::ProgType t) {
      auto res = e->ns.bpf().load(b.name, t, b.insns, b.paper_sloc);
      if (!res.ok()) throw std::runtime_error(std::string(b.name) + ": " +
                                              res.verify.error);
      return res.prog;
    };
    e->dm_lwt = bpf_lwt(load(usecases::build_dm_encap(dm_cfg),
                             ebpf::ProgType::kLwtXmit));
    e->wrr_lwt = bpf_lwt(load(usecases::build_wrr(wrr_cfg),
                              ebpf::ProgType::kLwtXmit));
    e->dm_entry = bpf_sid(load(usecases::build_end_dm(perf_id),
                               ebpf::ProgType::kLwtSeg6Local));
    e->tag_entry = bpf_sid(load(usecases::build_tag_increment(),
                                ebpf::ProgType::kLwtSeg6Local));
    e->tlv_entry = bpf_sid(load(usecases::build_add_tlv(),
                                ebpf::ProgType::kLwtSeg6Local));
    return e;
  }

  // Runs every program over the samples on one engine; returns the
  // concatenated dispositions, output bytes and perf records.
  std::vector<std::uint8_t> engine_outputs(EngineNs& e) const {
    std::vector<std::uint8_t> out;
    auto emit = [&out](const seg6::PipelineResult& r, const net::Packet& p) {
      out.push_back(static_cast<std::uint8_t>(r.disposition));
      out.insert(out.end(), p.bytes().begin(), p.bytes().end());
    };
    seg6::ProcessTrace trace;
    for (const net::Packet& in : dm_plain_) {
      net::Packet p = in;
      emit(seg6::lwt_process(e.ns, p, *e.dm_lwt, seg6::LwtHook::kXmit, &trace),
           p);
      p.rx_tstamp_ns = 123456789;
      emit(seg6::seg6local_process(e.ns, p, e.dm_entry, &trace), p);
    }
    while (auto rec = e.perf->poll())
      out.insert(out.end(), rec->data.begin(), rec->data.end());
    for (const net::Packet& in : wrr_plain_) {
      net::Packet p = in;
      emit(seg6::lwt_process(e.ns, p, *e.wrr_lwt, seg6::LwtHook::kXmit,
                             &trace),
           p);
    }
    for (const net::Packet& in : tag_in_) {
      net::Packet p = in;
      emit(seg6::seg6local_process(e.ns, p, e.tag_entry, &trace), p);
      emit(seg6::seg6local_process(e.ns, p, e.tlv_entry, &trace), p);
    }
    return out;
  }

  // A sample of packets must give identical output bytes on the resolved
  // (JIT) engine and on the baseline interpreter.
  void check_engines(Checks& checks) {
    auto native = make_engine_ns(ebpf::EngineKind::kNative);
    auto baseline = make_engine_ns(ebpf::EngineKind::kInterpBaseline);
    engine_sample_bytes_ = engine_outputs(*native);
    checks.expect(
        check::bytes_equal(engine_sample_bytes_, engine_outputs(*baseline)),
        "nf_chain: programs give different bytes on the baseline interpreter");
  }

  // ---- lab ----
  std::uint32_t dm_config_map(ebpf::BpfSystem& bpf) const {
    ebpf::MapDef def;
    def.type = ebpf::MapType::kArray;
    def.key_size = 4;
    def.value_size = sizeof(usecases::DmEncapConfig);
    def.max_entries = 1;
    def.name = "dm_encap_cfg";
    const std::uint32_t id = bpf.maps().create(def);
    usecases::DmEncapConfig cfg;
    cfg.ratio = 1;  // every packet is a probe
    std::memcpy(cfg.dm_sid, kDmSid.bytes().data(), 16);
    std::memcpy(cfg.final_seg, kA.bytes().data(), 16);
    std::memcpy(cfg.ctrl_addr, kS1.bytes().data(), 16);
    cfg.ctrl_port = 9999;
    bpf.maps().get(id)->put(std::uint32_t{0}, cfg);
    return id;
  }

  std::uint32_t wrr_config_map(ebpf::BpfSystem& bpf) const {
    ebpf::MapDef def;
    def.type = ebpf::MapType::kArray;
    def.key_size = 4;
    def.value_size = sizeof(usecases::WrrConfig);
    def.max_entries = 1;
    def.name = "wrr_cfg";
    const std::uint32_t id = bpf.maps().create(def);
    usecases::WrrConfig cfg;
    cfg.weight1 = wrr_w_[0];
    cfg.weight2 = wrr_w_[1];
    std::memcpy(cfg.sid1, kWrrSidA.bytes().data(), 16);
    std::memcpy(cfg.sid2, kWrrSidB.bytes().data(), 16);
    bpf.maps().get(id)->put(std::uint32_t{0}, cfg);
    return id;
  }

  static std::shared_ptr<seg6::LwtState> bpf_lwt(ebpf::ProgHandle p) {
    auto lwt = std::make_shared<seg6::LwtState>();
    lwt->kind = seg6::LwtState::Kind::kBpf;
    lwt->prog_xmit = std::move(p);
    return lwt;
  }
  static seg6::Seg6LocalEntry bpf_sid(ebpf::ProgHandle p) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = std::move(p);
    return e;
  }

  ebpf::ProgHandle timed_load(sim::Node& node, SetupPhases& ph, Tracer* tr,
                              const char* key,
                              const usecases::BuiltProgram& b,
                              ebpf::ProgType type) {
    ebpf::ProgHandle prog;
    timed_phase(tr, (std::string("setup.load.") + key).c_str(),
                ph.load_ms[key], [&] {
                  auto res = node.ns().bpf().load(b.name, type, b.insns,
                                                  b.paper_sloc);
                  if (!res.ok())
                    throw std::runtime_error(std::string(b.name) + ": " +
                                             res.verify.error);
                  prog = res.prog;
                });
    return prog;
  }

  std::unique_ptr<Lab> build(SetupPhases& ph, Tracer* tr) {
    auto lab = std::make_unique<Lab>();
    Lab& L = *lab;
    L.site_mask.assign(kSpread, 0);
    int s1_if = 0, r_up = 0, r_if[kSinks] = {0, 0};
    timed_phase(tr, "setup.topology", ph.topology_ms, [&] {
      L.s1 = &L.net.add_node("S1");
      L.r = &L.net.add_node("R");
      L.sink[0] = &L.net.add_node("A");
      L.sink[1] = &L.net.add_node("B");
      auto a0 = L.net.connect(*L.s1, kS1, *L.r, kRIf0, kTenGig, kProp);
      auto a1 = L.net.connect(*L.r, kRA, *L.sink[0], kA, kTenGig, kProp);
      auto a2 = L.net.connect(*L.r, kRB, *L.sink[1], kB, kTenGig, kProp);
      L.links = {a0.link, a1.link, a2.link};
      s1_if = a0.a_ifindex;
      r_up = a0.b_ifindex;
      r_if[0] = a1.a_ifindex;
      r_if[1] = a2.a_ifindex;
      L.r->cpu.enabled = true;
      L.r->cpu.profile = sim::kXeonProfile;
      L.r->cpu.ncpus = kRContexts;
      for (int s = 0; s < kSinks; ++s) {
        L.mux[s] = std::make_unique<apps::AppMux>(*L.sink[s]);
        L.mux[s]->on_udp(kPort, [this, &L, s](const net::Packet& pkt,
                                              const net::UdpHeader& udp,
                                              std::span<const std::uint8_t> pl,
                                              sim::TimeNs now) {
          on_delivery(L, s, pkt, udp.src_port, pl, now);
        });
      }
    });
    timed_phase(tr, "setup.programs", ph.programs_ms, [&] {
      ebpf::BpfSystem& s1_bpf = L.s1->ns().bpf();
      ebpf::BpfSystem& r_bpf = L.r->ns().bpf();
      const std::uint32_t dm_cfg = dm_config_map(s1_bpf);
      L.dm_encap = timed_load(*L.s1, ph, tr, "dm_encap",
                              usecases::build_dm_encap(dm_cfg),
                              ebpf::ProgType::kLwtXmit);
      const std::uint32_t perf_id =
          ebpf::create_perf_event_array(r_bpf.maps(), "dm_events", 65536);
      L.perf = &dynamic_cast<ebpf::PerfEventArrayMap*>(r_bpf.maps().get(perf_id))
                    ->buffer();
      L.end_dm = timed_load(*L.r, ph, tr, "end_dm",
                            usecases::build_end_dm(perf_id),
                            ebpf::ProgType::kLwtSeg6Local);
      L.wrr = timed_load(*L.r, ph, tr, "wrr",
                         usecases::build_wrr(wrr_config_map(r_bpf)),
                         ebpf::ProgType::kLwtXmit);
      L.tag = timed_load(*L.r, ph, tr, "tag_increment",
                         usecases::build_tag_increment(),
                         ebpf::ProgType::kLwtSeg6Local);
      L.tlv = timed_load(*L.r, ph, tr, "add_tlv", usecases::build_add_tlv(),
                         ebpf::ProgType::kLwtSeg6Local);
      L.r->ns().seg6local().add(kDmSid, bpf_sid(L.end_dm));
      L.r->ns().seg6local().add(kTagSid, bpf_sid(L.tag));
      L.r->ns().seg6local().add(kTlvSid, bpf_sid(L.tlv));
      for (int s = 0; s < kSinks; ++s) {
        std::string err;
        L.filter[s] = apps::SocketFilter::from_expr(
            L.sink[s]->ns(), "sink_filter", filter_expr_, &err);
        if (L.filter[s] == nullptr)
          throw std::runtime_error("filter \"" + filter_expr_ + "\": " + err);
        L.mux[s]->attach_udp_filter(kPort, L.filter[s]);
        seg6::Seg6LocalEntry dt6;
        dt6.action = seg6::Seg6Action::kEndDT6;
        L.sink[s]->ns().seg6local().add(s == 0 ? kWrrSidA : kWrrSidB, dt6);
      }
    });
    timed_phase(tr, "setup.fib", ph.fib_ms, [&] {
      seg6::Fib& s1f = L.s1->ns().table(0);
      s1f.add_route(net::Prefix::parse("::/0").value(), {kRIf0, s1_if, 1});
      s1f.add_route({net::Prefix::parse("2001:db8::/32").value(),
                     {{kRIf0, s1_if, 1}},
                     bpf_lwt(L.dm_encap),
                     nullptr});
      seg6::Fib& rf = L.r->ns().table(0);
      rf.add_route(net::Prefix::parse("fc00:1::/64").value(),
                   {net::Ipv6Addr{}, r_up, 1});
      rf.add_route(net::Prefix::parse("fc00:a::/64").value(),
                   {net::Ipv6Addr{}, r_if[0], 1});
      rf.add_route(net::Prefix::parse("fc00:b::/64").value(),
                   {net::Ipv6Addr{}, r_if[1], 1});
      net::Ipv6Addr wrr_net = net::Ipv6Addr::must_parse("2001:db9::");
      wrr_net.set_group(2, wrr_dst_.group(2));
      rf.add_route({net::Prefix{wrr_net, 48},
                    {{net::Ipv6Addr{}, r_if[0], 1}},
                    bpf_lwt(L.wrr),
                    nullptr});
      for (const PlannedRoute& p : plan_) {
        seg6::Route route;
        route.prefix = p.prefix;
        for (int s = 0; s < kSinks; ++s)
          if (p.sinks & (1u << s))
            route.nexthops.push_back({net::Ipv6Addr{}, r_if[s],
                                      p.sinks == 3 ? ecmp_w_[s] : 1});
        rf.add_route(std::move(route));
      }
      ph.routes += plan_.size() + 6;
      for (int s = 0; s < kSinks; ++s) {
        seg6::Netns& ns = L.sink[s]->ns();
        ns.add_local_addr(wrr_dst_);
        for (std::uint32_t i = 0; i < kSpread; ++i)
          ns.add_local_addr(
              site_addr(static_cast<std::uint16_t>(site_base_ + i), 2));
      }
    });
    timed_phase(tr, "setup.seal", ph.seal_ms, [&] {
      apps::TrafGen::Config dm;
      dm.spec = dm_spec_;
      dm.pps = kClassPps;
      dm.duration = kTraffic;
      dm.dst_spread = kSpread;
      dm.src_port_spread = kDmPortSpread;
      dm.flow_label_spread = 16;
      apps::TrafGen::Config wrr = dm;
      wrr.spec = wrr_spec_;
      wrr.dst_spread = 1;
      wrr.src_port_spread = 1;
      wrr.flow_label_spread = 32;
      apps::TrafGen::Config tag = wrr;
      tag.spec = tag_spec_;
      tag.flow_label_spread = 16;
      L.gen_dm = std::make_unique<apps::TrafGen>(*L.s1, dm);
      L.gen_wrr = std::make_unique<apps::TrafGen>(*L.s1, wrr);
      L.gen_tag = std::make_unique<apps::TrafGen>(*L.s1, tag);
      for (apps::TrafGen* g : {L.gen_dm.get(), L.gen_wrr.get(),
                               L.gen_tag.get()})
        L.auditor.add_source([g] { return g->attempted(); });
      for (sim::Node* n : {L.s1, L.r, L.sink[0], L.sink[1]})
        L.auditor.add_node(*n);
      for (sim::Link* l : L.links) L.auditor.add_link(*l);
      L.gen_dm->start();
      L.gen_wrr->start();
      L.gen_tag->start();
    });
    return lab;
  }

  bool payload_ok(std::span<const std::uint8_t> pl) const {
    if (pl.size() != dm_spec_.payload_size) return false;
    for (std::uint8_t b : pl)
      if (b != fill_) return false;
    return true;
  }

  void on_delivery(Lab& L, int s, const net::Packet& pkt,
                   std::uint16_t src_port, std::span<const std::uint8_t> pl,
                   TimeNs now) {
    L.digest.mix(now ^ (static_cast<std::uint64_t>(s) << 63));
    std::array<std::uint8_t, 16> dst_bytes{};
    std::memcpy(dst_bytes.data(), pkt.data() + 24, 16);
    const net::Ipv6Addr dst(dst_bytes);
    if (src_port >= kDmPort && src_port < kDmPort + kDmPortSpread) {
      const std::uint16_t idx =
          static_cast<std::uint16_t>(dst.group(2) - site_base_);
      if (idx >= kSpread || dst != site_addr(dst.group(2), 2) ||
          !payload_ok(pl)) {
        ++L.bad;
        return;
      }
      L.site_mask[idx] |= static_cast<std::uint8_t>(1u << s);
      flow_seen_[static_cast<std::size_t>(idx) * kDmPortSpread +
                 (src_port - kDmPort)] |= static_cast<std::uint8_t>(1u << s);
      ++L.dm_ok;
    } else if (src_port == kWrrPort) {
      if (dst != wrr_dst_ || !payload_ok(pl)) {
        ++L.bad;
        return;
      }
      ++L.wrr_ok[s];
    } else if (src_port == kTagPort && s == 1) {
      std::vector<std::uint8_t>& got = scratch_;
      got.assign(pkt.bytes().begin(), pkt.bytes().end());
      mask_flow_label(got);
      if (!check::bytes_equal(got, tag_expected_)) {
        ++L.bad;
        return;
      }
      ++L.tag_ok;
    } else {
      ++L.bad;
    }
  }

  void drain_perf(Lab& L) {
    while (auto rec = L.perf->poll()) {
      ++L.dm_events;
      usecases::DmEvent ev;
      if (rec->data.size() < sizeof ev) continue;
      std::memcpy(&ev, rec->data.data(), sizeof ev);
      const TimeNs owd = ev.rx_ns >= ev.tx_ns ? ev.rx_ns - ev.tx_ns : 0;
      if (owd < L.owd_min) L.owd_min = owd;
    }
  }

  // Wire floor of the S1 -> R hop for an encapsulated dm-class packet.
  TimeNs dm_floor_ns() const {
    return check::owd_floor_ns(
        kProp, kTenGig,
        usecases::kOwdHeaderBytes + net::kIpv6HeaderSize + 8 +
            dm_spec_.payload_size,
        sim::kWireOverheadBytes);
  }
  static bool owd_ok(TimeNs owd_min, TimeNs floor) { return owd_min >= floor; }
  static bool no_drops(std::uint64_t rx_ring, std::uint64_t other) {
    return rx_ring == 0 && other == 0;
  }
  static bool sticky(const std::vector<std::uint8_t>& masks) {
    for (std::uint8_t m : masks)
      if (m == 3) return false;
    return true;
  }

  static std::uint64_t fib_hits(Lab& L) {
    std::uint64_t h = 0;
    for (sim::Node* n : {L.s1, L.r, L.sink[0], L.sink[1]})
      h += n->ns().table(0).cache_hits();
    return h;
  }

  void read_counters(Lab& L, Round& r, std::uint64_t hits0) {
    r.offered =
        L.gen_dm->attempted() + L.gen_wrr->attempted() + L.gen_tag->attempted();
    r.events = L.net.loop().executed();
    r.fib_cache_hits = fib_hits(L) - hits0;
    std::uint64_t serviced = 0;
    std::vector<std::uint64_t> drops;
    for (sim::Node* n : {L.s1, L.r, L.sink[0], L.sink[1]}) {
      const sim::NodeStats st = n->stats();
      r.pipeline += st.pipeline;
      r.flow_hashes += st.tx_packets;
      serviced += st.serviced_packets;
      drops.push_back(st.total_drops());
    }
    r.prog_runs["dm_encap"] = L.gen_dm->attempted();
    r.prog_runs["end_dm"] = L.gen_dm->attempted();
    r.prog_runs["wrr"] = L.gen_wrr->attempted();
    r.prog_runs["tag_increment"] = L.gen_tag->attempted();
    r.prog_runs["add_tlv"] = L.gen_tag->attempted();
    for (int s = 0; s < kSinks; ++s)
      r.filter_runs += L.filter[s]->accepted() + L.filter[s]->dropped();
    r.domain_serviced = {serviced};
    r.delivered = L.dm_ok + L.wrr_ok[0] + L.wrr_ok[1] + L.tag_ok;
    const sim::PipelineTotals& p = r.pipeline;
    r.fingerprint = {r.offered,      L.dm_ok,          L.wrr_ok[0],
                     L.wrr_ok[1],    L.tag_ok,         L.bad,
                     L.dm_events,    r.events,         p.packets,
                     p.bpf_runs,     p.bpf_insns_jit,  p.bpf_insns_interp,
                     p.helper_calls, p.fib_lookups,    p.encaps,
                     p.decaps,       L.digest.value};
    r.fingerprint.insert(r.fingerprint.end(), drops.begin(), drops.end());
  }

  void check_round(Lab& L, Round& r, Checks& checks) {
    const auto ledger = L.auditor.ledger();
    const std::int64_t missing =
        ledger.in_flight < 0 ? -ledger.in_flight : ledger.in_flight;
    std::uint64_t filtered = 0;
    for (int s = 0; s < kSinks; ++s) filtered += L.mux[s]->filtered();
    r.failed = L.bad + filtered + static_cast<std::uint64_t>(missing);
    checks.expect(check::ledger_closed(ledger),
                  "nf_chain: conservation ledger does not close");
    checks.expect(L.auditor.violations().empty(),
                  "nf_chain: InvariantAuditor reported violations");
    std::uint64_t other_drops = 0;
    for (sim::Node* n : {L.s1, L.r, L.sink[0], L.sink[1]})
      other_drops += n->stats().total_drops();
    const std::uint64_t rx_drops = L.r->stats().drops_rx_queue;
    checks.expect(no_drops(rx_drops, other_drops - rx_drops),
                  "nf_chain: packets dropped (" + std::to_string(rx_drops) +
                      " at R's RX rings, " +
                      std::to_string(other_drops - rx_drops) + " other)");
    // Every offered packet reached a sink socket (bad content is counted in
    // `failed`, not here).
    checks.expect(r.delivered + L.bad + filtered == r.offered,
                  "nf_chain: " + std::to_string(r.delivered + L.bad + filtered) +
                      " of " + std::to_string(r.offered) +
                      " offered packets reached a sink");
    // Egress vs the linear-scan longest-prefix match.
    std::uint64_t wrong_egress = 0, sites = 0;
    for (std::uint32_t i = 0; i < kSpread; ++i) {
      if (L.site_mask[i] == 0) continue;
      ++sites;
      if ((L.site_mask[i] & ~allowed_[i]) != 0) ++wrong_egress;
    }
    checks.expect(sites > 0 && wrong_egress == 0,
                  "nf_chain: " + std::to_string(wrong_egress) +
                      " sites left R on an interface the linear-scan LPM "
                      "does not give");
    // ECMP: flows stick to one nexthop (over every round so far), and the
    // flows of ECMP routes split by the weights within a binomial bound.
    checks.expect(sticky(flow_seen_), "nf_chain: a flow used two nexthops");
    std::uint64_t ecmp_flows = 0, ecmp_to_a = 0;
    for (std::uint32_t i = 0; i < kSpread; ++i) {
      if (allowed_[i] != 3) continue;
      for (std::uint16_t k = 0; k < kDmPortSpread; ++k) {
        const std::uint8_t m = flow_seen_[i * kDmPortSpread + k];
        if (m == 0) continue;
        ++ecmp_flows;
        if (m == 1) ++ecmp_to_a;
      }
    }
    const double pa = static_cast<double>(ecmp_w_[0]) /
                      static_cast<double>(ecmp_w_[0] + ecmp_w_[1]);
    checks.expect(check::within_binomial(ecmp_to_a, ecmp_flows, pa),
                  "nf_chain: ECMP share " + std::to_string(ecmp_to_a) + "/" +
                      std::to_string(ecmp_flows) + " outside the binomial "
                      "bound of the weights");
    checks.expect(check::wrr_exact(L.wrr_ok[0], L.wrr_ok[1], wrr_w_[0],
                                   wrr_w_[1]),
                  "nf_chain: WRR split " + std::to_string(L.wrr_ok[0]) + ":" +
                      std::to_string(L.wrr_ok[1]) + " is not exact for " +
                      std::to_string(wrr_w_[0]) + ":" +
                      std::to_string(wrr_w_[1]));
    checks.expect(L.dm_events == L.dm_ok && owd_ok(L.owd_min, dm_floor_ns()),
                  "nf_chain: End.DM reports " + std::to_string(L.dm_events) +
                      " for " + std::to_string(L.dm_ok) +
                      " packets, min one-way delay " +
                      std::to_string(L.owd_min) + " ns vs floor " +
                      std::to_string(dm_floor_ns()));
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
      // R's lookups in generation order: a dm site, the WRR destination and
      // its SID, the Tag class's next segment and final destination.
      std::vector<net::Ipv6Addr> stream;
      for (std::uint32_t i = 0; i < kSpread; ++i) {
        stream.push_back(
            site_addr(static_cast<std::uint16_t>(site_base_ + i), 2));
        stream.push_back(wrr_dst_);
        stream.push_back(i % (wrr_w_[0] + wrr_w_[1]) < wrr_w_[0] ? kWrrSidA
                                                                  : kWrrSidB);
        stream.push_back(kB);
      }
      out["seg6.fib.lookup_ns"] =
          probe_fib_lookup_ns(L.r->ns().table(0), stream);
    }
    {
      Scope p(tr, "probe.seg6.flow_hash");
      out["seg6.flow_hash_ns"] = probe_flow_hash_ns(dm_plain_);
    }
    {
      Scope p(tr, "probe.ebpf");
      std::vector<net::Packet> dm_encapped, tag_adv, tlv_adv;
      for (const net::Packet& in : dm_plain_) {
        net::Packet q = in;
        seg6::ProcessTrace t;
        seg6::lwt_process(L.s1->ns(), q, *bpf_lwt(L.dm_encap),
                          seg6::LwtHook::kXmit, &t);
        seg6::srh_advance(q);
        dm_encapped.push_back(std::move(q));
      }
      for (const net::Packet& in : tag_in_) {
        net::Packet q = in;
        seg6::srh_advance(q);
        tag_adv.push_back(q);
        seg6::srh_advance(q);
        tlv_adv.push_back(std::move(q));
      }
      out["ebpf.run_ns.dm_encap"] =
          probe_prog_run_ns(L.s1->ns(), *L.dm_encap, dm_plain_);
      out["ebpf.run_ns.end_dm"] =
          probe_prog_run_ns(L.r->ns(), *L.end_dm, dm_encapped);
      out["ebpf.run_ns.wrr"] = probe_prog_run_ns(L.r->ns(), *L.wrr, wrr_plain_);
      out["ebpf.run_ns.tag_increment"] =
          probe_prog_run_ns(L.r->ns(), *L.tag, tag_adv);
      out["ebpf.run_ns.add_tlv"] = probe_prog_run_ns(L.r->ns(), *L.tlv, tlv_adv);
    }
    {
      Scope p(tr, "probe.cbpf.filter");
      out["cbpf.filter_ns_per_pkt"] = probe_filter_ns(*L.filter[0], dm_plain_);
    }
  }

  // Inputs (pure functions of the seed).
  std::uint16_t route_base_ = 0, site_base_ = 0;
  int ecmp_w_[kSinks] = {1, 1};
  std::uint64_t wrr_w_[kSinks] = {5, 3};
  std::uint8_t fill_ = 0;
  std::uint16_t tag_ = 0;
  std::uint32_t label_ = 0;
  net::Ipv6Addr wrr_dst_;
  std::string filter_expr_;
  std::vector<PlannedRoute> plan_;
  net::PacketSpec dm_spec_, wrr_spec_, tag_spec_;
  std::vector<std::uint8_t> tag_expected_;
  std::vector<net::Packet> dm_plain_, wrr_plain_, tag_in_;

  // References and state the checks use.
  std::vector<check::RefRoute> ref_;
  std::vector<unsigned> allowed_;         // per site: sinks LPM allows
  std::vector<std::uint8_t> flow_seen_;   // per dm flow: sinks seen, all rounds
  std::vector<std::uint8_t> engine_sample_bytes_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace

std::unique_ptr<Workload> make_nf_chain() { return std::make_unique<NfChain>(); }

}  // namespace perfbench
