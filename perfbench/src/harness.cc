#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "net/buffer_pool.h"
#include "util/alloc_hooks.h"

namespace perfbench {

int Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_us = (wall_s() - origin_) * 1e6;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = (wall_s() - origin_) * 1e6;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Rusage self_rusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  r.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  r.nvcsw = ru.ru_nvcsw;
  r.nivcsw = ru.ru_nivcsw;
  r.maxrss_kib = ru.ru_maxrss;
  return r;
}

long peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return self_rusage().maxrss_kib;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return kib >= 0 ? kib : self_rusage().maxrss_kib;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

HostMark HostMark::take() {
  HostMark m;
  m.ru = self_rusage();
  m.allocs = srv6bpf::util::alloc_counters().news;
  const auto bs = srv6bpf::net::BurstPool::stats();
  m.burst_acquires = bs.allocs + bs.reuses;
  m.wall = wall_s();
  return m;
}

void close_window(Round& r, const HostMark& a, const HostMark& b) {
  r.window_s = b.wall - a.wall;
  r.user_s = b.ru.user_s - a.ru.user_s;
  r.sys_s = b.ru.sys_s - a.ru.sys_s;
  r.allocs = b.allocs - a.allocs;
  r.burst_acquires = b.burst_acquires - a.burst_acquires;
}

void run_slices(TimeNs t_from, TimeNs t_end, TimeNs slice, Round& r,
                Tracer* tracer, const std::function<void(TimeNs)>& advance,
                const std::function<void(TimeNs)>& between) {
  r.slice_wall_us.reserve(r.slice_wall_us.size() +
                          static_cast<std::size_t>((t_end - t_from) / slice) +
                          1);
  for (TimeNs t = t_from; t < t_end;) {
    const TimeNs next = std::min(t + slice, t_end);
    {
      Scope scope(tracer, "sim.slice");
      const double w0 = wall_s();
      advance(next);
      r.slice_wall_us.push_back((wall_s() - w0) * 1e6);
    }
    between(next);
    t = next;
  }
}

}  // namespace perfbench
