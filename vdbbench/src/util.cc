// Statistics helpers and the in-memory span recorder.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench.h"

namespace vdbbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double CalibrationMs() {
  // Built once: a 16 MB table read at random and a 256 KB ring chased in a
  // fixed order, both from a fixed seed.
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(size_t{1} << 22);
    uint64_t x = 88172645463325252ull;
    for (uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<uint32_t>(x);
    }
    return t;
  }();
  static const std::vector<uint32_t> ring = [] {
    const uint32_t n = 1u << 16;
    std::vector<uint32_t> order(n), r(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    uint64_t x = 2463534242ull;
    for (uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < n; ++i) r[order[i]] = order[(i + 1) % n];
    return r;
  }();
  const double t0 = CpuMs();
  uint64_t sum = 0;
  const size_t mask = table.size() - 1;
  uint64_t h = 1;
  for (int i = 0; i < 200000; ++i) {  // independent random loads
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    sum += table[(h >> 20) & mask];
  }
  uint32_t p = 0;
  for (int i = 0; i < 200000; ++i) p = ring[p];  // dependent cached loads
  uint64_t a = sum + p;
  for (int i = 0; i < 400000; ++i) {  // dependent arithmetic
    a = a * 6364136223846793005ull + 1442695040888963407ull;
  }
  static volatile uint64_t sink;
  sink = a;
  return CpuMs() - t0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

int Tracer::Begin(const std::string& name, int query) {
  if (!on_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, CpuMs(), 0.0, parent, query});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (!on_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_ms = CpuMs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const std::string& name, int query, double start_ms,
                 double end_ms) {
  if (!on_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ms, end_ms, parent, query});
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.4f, "
                 "\"end_ms\": %.4f, \"parent\": %d, \"query\": %d}%s\n",
                 i, s.name.c_str(), s.start_ms - origin, s.end_ms - origin,
                 s.parent, s.query, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace vdbbench
