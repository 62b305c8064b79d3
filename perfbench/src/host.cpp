#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

#include "core/simd.h"

namespace perfbench {
namespace {

std::string cpu_brand() {
#ifdef PERFBENCH_X86
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

// Each array is filled and updated by the thread that owns its slice,
// so pages land where they are used.
void parallel_slices(int threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& f) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    const std::size_t lo = n * t / threads, hi = n * (t + 1) / threads;
    pool.emplace_back([&f, lo, hi] { f(lo, hi); });
  }
  for (auto& th : pool) th.join();
}

double triad_gbs(int threads, std::size_t n) {
  // malloc, not new: the library's recycling operator new would keep the
  // arrays resident after the probe.
  using Buf = std::unique_ptr<double[], decltype(&std::free)>;
  const std::size_t bytes = n * sizeof(double);
  Buf a(static_cast<double*>(std::malloc(bytes)), &std::free);
  Buf b(static_cast<double*>(std::malloc(bytes)), &std::free);
  Buf c(static_cast<double*>(std::malloc(bytes)), &std::free);
  if (!a || !b || !c) return 0.0;
  parallel_slices(threads, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i & 7);
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    const Clock::time_point t0 = Clock::now();
    parallel_slices(threads, n, [&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + scalar * pc[i];
    });
    const double s = seconds_since(t0);
    // STREAM accounting: two arrays read, one written.
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) / s);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return best * 1e-9;
}

constexpr long kFmaIters = 20'000'000;
constexpr int kFmaChains = 12;

#ifdef PERFBENCH_X86
__attribute__((target("avx2,fma"))) float fma_loop_avx2(long iters) {
  __m256 acc[kFmaChains];
  for (int k = 0; k < kFmaChains; ++k) acc[k] = _mm256_set1_ps(0.001f * k);
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    // Fully unrolled so every chain stays in a register.
#pragma GCC unroll 16
    for (int k = 0; k < kFmaChains; ++k) {
      acc[k] = _mm256_fmadd_ps(acc[k], m, add);
    }
  }
  __m256 s = acc[0];
  for (int k = 1; k < kFmaChains; ++k) s = _mm256_add_ps(s, acc[k]);
  float out[8];
  _mm256_storeu_ps(out, s);
  return out[0];
}
#endif

float fma_loop_scalar(long iters) {
  float acc[kFmaChains];
  for (int k = 0; k < kFmaChains; ++k) acc[k] = 0.001f * k;
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < kFmaChains; ++k) acc[k] = acc[k] * 0.999999f + 1e-7f;
  }
  float s = 0.0f;
  for (int k = 0; k < kFmaChains; ++k) s += acc[k];
  return s;
}

bool have_avx2_fma() {
#ifdef PERFBENCH_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

double fma_gflops(int threads, bool simd) {
  const long iters = simd ? kFmaIters : kFmaIters / 8;
  const double flops_per_thread =
      2.0 * kFmaChains * (simd ? 8.0 : 1.0) * static_cast<double>(iters);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<float> sink(static_cast<std::size_t>(threads));
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t, iters, simd] {
#ifdef PERFBENCH_X86
        sink[t] = simd ? fma_loop_avx2(iters) : fma_loop_scalar(iters);
#else
        (void)simd;
        sink[t] = fma_loop_scalar(iters);
#endif
      });
    }
    for (auto& th : pool) th.join();
    const double s = seconds_since(t0);
    best = std::max(best, flops_per_thread * threads / s);
    volatile float keep = sink[0];
    (void)keep;
  }
  return best * 1e-9;
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) h.nproc = CPU_COUNT(&set);
  h.simd_backend = ccovid::simd::backend_name(ccovid::simd::active_backend());
  h.cpu_model = cpu_brand();
  h.build_type = PERFBENCH_BUILD_TYPE;
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  return h;
}

void record_host(JsonObject& report, const Options& o) {
  const HostInfo h = host_info();
  JsonObject j;
  j.integer("nproc", static_cast<std::uint64_t>(h.nproc));
  j.str("simd_backend", h.simd_backend);
  j.str("cpu_model", h.cpu_model);
  j.str("build_type", h.build_type);
  j.integer("llc_bytes", h.llc_bytes);
  j.str("commit", o.commit);
  j.str("source_digest", o.source_digest);
  j.integer("seed", o.seed);
  report.raw("host", j.dump());
}

Roofline measure_roofline(int threads) {
  Roofline r;
  r.threads = threads;
  r.llc_bytes = host_info().llc_bytes;
  // Triad arrays together span at least 4x the last-level cache (64 MiB
  // floor when the CPU reports none), capped at 2 GiB to bound memory.
  const std::size_t want = std::max<std::size_t>(4 * r.llc_bytes, 64u << 20);
  const std::size_t total = std::min<std::size_t>(want, std::size_t{2} << 30);
  const std::size_t n = total / (3 * sizeof(double));
  r.triad_bytes_total = 3 * n * sizeof(double);
  r.triad_gbs = triad_gbs(threads, n);
  const bool simd = have_avx2_fma();
  r.fma_kernel = simd ? "avx2_fma" : "scalar";
  r.fma_gflops = fma_gflops(threads, simd);
  return r;
}

void record_roofline(JsonObject& report, const Roofline& r) {
  JsonObject j;
  j.str("kind", "measured");
  j.num("triad_gbs", r.triad_gbs);
  j.integer("triad_bytes_total", r.triad_bytes_total);
  j.integer("llc_bytes", r.llc_bytes);
  j.boolean("triad_at_least_4x_llc", r.triad_bytes_total >= 4 * r.llc_bytes);
  j.num("fma_gflops", r.fma_gflops);
  j.str("fma_kernel", r.fma_kernel);
  j.integer("threads", static_cast<std::uint64_t>(r.threads));
  report.raw("roofline", j.dump());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
