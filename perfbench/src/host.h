// Host record and roofline probe. Every result records the machine it
// ran on; the traced run also measures the host's memory bandwidth
// (STREAM-style triad) and compute peak (FMA loop), the base against
// which graph.ddnet_peak_frac is stated.
#pragma once

#include <cstddef>
#include <string>

#include "common.h"

namespace perfbench {

struct HostInfo {
  int nproc = 1;
  std::string simd_backend;
  std::string cpu_model;
  std::string build_type;
  std::size_t llc_bytes = 0;  ///< 0 when the CPU does not report it
};

HostInfo host_info();

/// Adds the host record plus the run's seed, commit and source digest.
void record_host(JsonObject& report, const Options& o);

struct Roofline {
  double triad_gbs = 0.0;  ///< best of several passes, all threads
  std::size_t triad_bytes_total = 0;  ///< the three arrays together
  std::size_t llc_bytes = 0;
  double fma_gflops = 0.0;  ///< best of several passes, all threads
  std::string fma_kernel;   ///< "avx2_fma" or "scalar"
  int threads = 1;
};

Roofline measure_roofline(int threads);
void record_roofline(JsonObject& report, const Roofline& r);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
