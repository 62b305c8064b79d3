// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills, a tiny JSON object writer, and the
// sample statistics the metrics are built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;      ///< span dump path (traced runs only)
  std::string commit;         ///< recorded verbatim in the host record
  std::string source_digest;  ///< recorded verbatim in the host record
};

/// Flat JSON object built field by field; values are pre-rendered.
class JsonObject {
 public:
  void num(const std::string& key, double v);
  void integer(const std::string& key, std::uint64_t v);
  void boolean(const std::string& key, bool v);
  void str(const std::string& key, const std::string& v);
  void raw(const std::string& key, std::string json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(const std::string& s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the contracted result
/// line (correct / attempted / failed / metrics) plus a free-form
/// report printed on the line before it.
struct Result {
  std::vector<std::string> errors;  ///< failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonObject report;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// One request of a closed-loop window: submit and reply times, seconds
/// from the window's start.
struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Requests completed inside [0, seconds]: each counts 1 if it finished
/// inside, else the share of its own duration that fell inside. Unlike
/// counting whole replies, this does not jump when a long request ends
/// just after the deadline.
double completed_in_window(const std::vector<Interval>& v, double seconds);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Timed set-up repeated `reps` times, each built anew after the
/// previous one is torn down, so setup_s is a median rather than one
/// sample. `make` returns an owning pointer; the last fixture is
/// returned and `times` receives every duration.
template <class Make>
auto repeated_setup(int reps, std::vector<double>& times, Make make) {
  decltype(make()) f{};
  for (int i = 0; i < reps; ++i) {
    f = {};
    const Clock::time_point t0 = Clock::now();
    f = make();
    times.push_back(seconds_since(t0));
  }
  return f;
}

// Workload entry points (one per file).
Result run_diagnose_fresh(const Options& o);
Result run_rescan_sharded(const Options& o);
Result run_train_ddp(const Options& o);

/// Short mode: proves every output check trips on a damaged input.
/// Returns the number of checks that failed to trip (0 = pass).
int self_test();

}  // namespace perfbench
