// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--commit SHA] [--source-digest HEX]
//   perfbench --self-test
//
// Runs one named workload on inputs made from the seed, checks its
// outputs, and prints two lines: a JSON report (host record, failure
// accounting, output digests) and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exit status is 0 only when every output check passed.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "checks.h"
#include "common.h"
#include "host.h"
#include "spans.h"

namespace perfbench {
namespace {

enum : unsigned {
  kFresh = 1u << 0,
  kRescan = 1u << 1,
  kTrain = 1u << 2,
  kAll = kFresh | kRescan | kTrain,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned measured_on;  ///< workloads whose path the metric is on
};

// Must list exactly the end_to_end and per_layer names of BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"throughput_per_s", "1/s", kAll},
    {"latency_p50_ms", "ms", kAll},
    {"latency_p90_ms", "ms", kAll},
    {"peak_rss_mb", "MB", kAll},
};

// Per-layer metrics off a workload's path are reported as 0.
constexpr MetricSpec kPerLayer[] = {
    {"pipeline.prepare_ms", "ms", kFresh},
    {"pipeline.self_ms", "ms", kFresh},
    {"graph.enhance_ms", "ms", kFresh},
    {"graph.ddnet_gflops", "GFLOP/s", kFresh},
    {"graph.ddnet_peak_frac", "frac", kFresh},
    {"graph.enhance_scaling_4v1", "x", kFresh},
    {"nn.segment_ms", "ms", kFresh},
    {"nn.classify_ms", "ms", kFresh},
    {"core.fresh_allocs_per_request", "count", kAll},
    {"serve.queue_wait_ms_p50", "ms", kFresh},
    {"serve.execute_ms_p50", "ms", kFresh | kRescan},
    {"serve.batch_size_mean", "count", kFresh},
    {"monitor.hit_rate", "frac", kRescan},
    {"monitor.scan_key_ms", "ms", kRescan},
    {"monitor.lookup_us", "us", kRescan},
    {"monitor.hit_execute_ms_p50", "ms", kRescan},
    {"monitor.hit_latency_p50_ms", "ms", kRescan},
    {"monitor.hit_latency_p90_ms", "ms", kRescan},
    {"shard.front_overhead_ms_p50", "ms", kRescan},
    {"net.bytes_per_request", "bytes", kRescan},
    {"net.send_ms_p50", "ms", kRescan},
    {"net.frame_gbs", "GB/s", kRescan},
    {"autograd.forward_ms", "ms", kTrain},
    {"autograd.backward_ms", "ms", kTrain},
    {"dist.allreduce_ms", "ms", kTrain},
    {"dist.allreduce_bytes_per_rank", "bytes", kTrain},
    {"host.triad_gbs", "GB/s", kAll},
    {"host.fma_gflops", "GFLOP/s", kAll},
    {"trace.overhead_frac", "frac", kAll},
};

struct WorkloadSpec {
  const char* name;
  unsigned bit;
  Result (*run)(const Options&);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"diagnose_fresh", kFresh, run_diagnose_fresh},
    {"rescan_sharded", kRescan, run_rescan_sharded},
    {"train_ddp", kTrain, run_train_ddp},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload diagnose_fresh|rescan_sharded|"
               "train_ddp --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out PATH] [--commit SHA] "
               "[--source-digest HEX]\n"
               "       perfbench --self-test\n");
}

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (!std::strcmp(a, "--workload")) {
      o.workload = v;
      have_workload = true;
    } else if (!std::strcmp(a, "--seed")) {
      o.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (!std::strcmp(a, "--seconds")) {
      o.seconds = std::strtod(v, &end);
      if (*end || !(o.seconds > 0) || o.seconds > 600) return false;
    } else if (!std::strcmp(a, "--trace")) {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      o.trace = v[0] == '1';
    } else if (!std::strcmp(a, "--trace-out")) {
      o.trace_out = v;
    } else if (!std::strcmp(a, "--commit")) {
      o.commit = v;
    } else if (!std::strcmp(a, "--source-digest")) {
      o.source_digest = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& x : metrics) {
    JsonObject v;
    v.num("value", x.value);
    v.str("unit", x.unit);
    m.raw(x.name, v.dump());
  }
  return m.dump();
}

int run(const Options& o, const WorkloadSpec& w) {
  Result res = w.run(o);
  record_host(res.report, o);

  // Keep exactly the contracted metrics, in table order: those on this
  // workload's path must have been measured; the others read 0.
  std::vector<Metric> out;
  std::vector<std::string> required;
  auto take = [&](const MetricSpec& spec, bool fill_zero) {
    for (const Metric& m : res.metrics) {
      if (m.name == spec.name) {
        out.push_back({m.name, m.value, spec.unit});
        return;
      }
    }
    if (fill_zero) out.push_back({spec.name, 0.0, spec.unit});
  };
  if (!o.trace) {
    for (const MetricSpec& s : kEndToEnd) {
      required.push_back(s.name);
      take(s, false);
    }
  } else {
    for (const MetricSpec& s : kPerLayer) {
      const bool on_path = (s.measured_on & w.bit) != 0;
      if (on_path) required.push_back(s.name);
      take(s, !on_path);
    }
  }
  check_metric_names(out, required, res.errors);
  for (const Metric& m : res.metrics) {
    bool listed = false;
    for (const Metric& x : out) listed |= x.name == m.name;
    if (!listed) res.errors.push_back("unlisted metric: " + m.name);
  }

  if (o.trace) {
    const auto all = spans();
    res.report.integer("spans", all.size());
    if (!o.trace_out.empty() && !write_spans(o.trace_out, all)) {
      res.errors.push_back("cannot write spans to " + o.trace_out);
    }
    if (!o.trace_out.empty()) res.report.str("spans_file", o.trace_out);
  }

  std::string errs = "[";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    if (i) errs += ", ";
    errs += "\"" + json_escape(res.errors[i]) + "\"";
  }
  res.report.raw("errors", errs + "]");
  res.report.str("workload", w.name);
  res.report.boolean("trace", o.trace);
  res.report.num("seconds", o.seconds);
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  const bool correct = res.errors.empty();
  std::printf("%s\n", res.report.dump().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && !std::strcmp(argv[1], "--self-test")) {
    const int untripped = self_test();
    std::printf("self-test %s\n", untripped == 0 ? "passed" : "FAILED");
    return untripped == 0 ? 0 : 1;
  }
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  for (const WorkloadSpec& w : kWorkloads) {
    if (o.workload != w.name) continue;
    try {
      return run(o, w);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name, e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               o.workload.c_str());
  usage();
  return 2;
}
