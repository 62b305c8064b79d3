// rescan_sharded — longitudinal monitoring through serve::FrontDoor with
// monitoring on. Two in-process shard workers (each an InferenceServer
// with 2 workers behind run_shard_worker) are connected to the front
// door over Unix-domain socket pairs, and 4 patients submit in sequence,
// as the front door requires.
//
// Each patient's first submission and every kNewEvery-th after it is a
// new scan: a cache miss that runs the pipeline and inserts (a write).
// The second patient of each shard is shifted half a period, so the two
// take their misses in turn.
// The others repeat one of the patient's last kRepeatWindow scans and
// are served from the result cache (reads), so hit latency is set by the
// serve path itself: shipping a 2 MiB frame, its checksum, scan-key
// hashing, digest verification and the batcher.
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "common.h"
#include "core/alloc_cache.h"
#include "core/precision.h"
#include "core/random.h"
#include "graph/graph.h"
#include "host.h"
#include "net/socket.h"
#include "serve/monitor.h"
#include "serve/shard.h"
#include "serve/shard_proto.h"
#include "serving.h"
#include "spans.h"

namespace perfbench {

using namespace ccovid;

namespace {

constexpr int kPatients = 4;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 2;
constexpr int kSetupReps = 5;
constexpr int kNewEvery = 4;
constexpr int kRepeatWindow = 4;
constexpr std::size_t kCacheCapacity = 256;
constexpr std::uint64_t kWarmPatient = 999'999;
constexpr auto kLostAfter = std::chrono::seconds(60);

std::pair<std::unique_ptr<net::SocketTransport>,
          std::unique_ptr<net::SocketTransport>>
unix_pair(int a, int b) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {std::make_unique<net::SocketTransport>(sv[0], a, b, "unix"),
          std::make_unique<net::SocketTransport>(sv[1], b, a, "unix")};
}

struct Fixture {
  std::vector<Tensor> bases;  ///< scan 0 of each patient
  std::vector<std::uint64_t> patient_ids;
  std::vector<std::shared_ptr<const pipeline::ComputeCovid19Pipeline>> pipes;
  std::vector<std::unique_ptr<net::SocketTransport>> worker_ends;
  std::vector<const net::Transport*> front_ends;  ///< owned by `front`
  std::vector<std::thread> workers;
  std::unique_ptr<serve::FrontDoor> front;
  bool warm_ok = false;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    if (front) {
      front->shutdown();
    } else {
      for (auto& w : worker_ends) w->close();
    }
    for (auto& t : workers) t.join();
  }
};

/// Patient ids derived from the seed, taken in order until each shard
/// owns the same number of patients.
std::vector<std::uint64_t> balanced_patients(std::uint64_t seed) {
  std::vector<std::uint64_t> ids;
  std::vector<int> per_shard(kShards, 0);
  for (std::uint64_t id = 1 + (seed % 1000) * 64;
       static_cast<int>(ids.size()) < kPatients; ++id) {
    const int s = static_cast<int>(serve::route_shard(id, kShards));
    if (per_shard[s] < kPatients / kShards) {
      ++per_shard[s];
      ids.push_back(id);
    }
  }
  return ids;
}

std::unique_ptr<Fixture> setup(const Options& o) {
  auto f = std::make_unique<Fixture>();
  f->bases = make_phantoms(o.seed ^ 0x7265736361ull, kPatients + 1);
  const Tensor warm = f->bases.back();
  f->bases.pop_back();
  f->patient_ids = balanced_patients(o.seed);

  std::vector<std::unique_ptr<net::Transport>> front_ends;
  for (int s = 0; s < kShards; ++s) {
    f->pipes.push_back(build_models().pipeline);
    auto [front_end, worker_end] = unix_pair(0, s + 1);
    f->front_ends.push_back(front_end.get());
    front_ends.push_back(std::move(front_end));
    f->worker_ends.push_back(std::move(worker_end));
  }
  for (int s = 0; s < kShards; ++s) {
    f->workers.emplace_back([t = f->worker_ends[s].get(), p = f->pipes[s]] {
      serve::ShardWorkerOptions wopt;
      wopt.server.workers = kWorkersPerShard;
      wopt.server.monitor = true;
      wopt.server.monitor_opts.cache_capacity = kCacheCapacity;
      try {
        serve::run_shard_worker(*t, p, wopt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rescan_sharded: shard worker: %s\n", e.what());
      }
    });
  }
  serve::FrontDoorOptions fo;
  fo.monitor = true;
  f->front = std::make_unique<serve::FrontDoor>(std::move(front_ends), fo);
  f->warm_ok = f->front->submit(kWarmPatient, warm).get().status ==
               serve::RequestStatus::kOk;
  return f;
}

/// Scan k of a patient: scan 0 is the patient's phantom; later scans add
/// seeded +-8 HU noise to it, so each has distinct bytes and burden.
Tensor make_scan(const Tensor& base, std::uint64_t seed, std::size_t patient,
                 std::uint64_t k) {
  Tensor out = base.clone();
  if (k == 0) return out;
  real_t* p = out.data();
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(patient) << 48) ^
                        (k * 0x9E3779B97F4A7C15ull);
  for (index_t i = 0; i < out.numel(); ++i) {
    state += 0x9E3779B97F4A7C15ull;  // splitmix64
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 40) / 16777216.0;  // [0, 1)
    p[i] += static_cast<real_t>(16.0 * u - 8.0);
  }
  return out;
}

struct Sample {
  bool ok = false;
  bool hit = false;
  double latency_s = 0.0;
  double execute_s = 0.0;
  double total_s = 0.0;
};

struct Patient {
  std::uint64_t id = 0;
  std::size_t index = 0;
  /// Shifts this patient's new-scan schedule: the two patients of a
  /// shard take new scans half a period apart (see run_window).
  std::uint64_t phase = 0;
  Rng rng;
  std::uint64_t submissions = 0;
  std::uint64_t next_scan = 0;
  std::vector<std::pair<std::uint64_t, Tensor>> recent;  ///< repeat pool
  std::vector<RescanOutcome> outcomes;
};

struct Window {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::uint64_t bytes_sent = 0;  ///< front door -> workers
  std::vector<Interval> requests;  ///< completed, for throughput
  double seconds = 0.0;

  double throughput() const {
    return completed_in_window(requests, seconds) / seconds;
  }
  std::vector<double> latencies_ms(bool hits_only) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (!hits_only || s.hit) out.push_back(1e3 * s.latency_s);
    }
    return out;
  }
};

std::uint64_t front_bytes_sent(const Fixture& f) {
  std::uint64_t b = 0;
  for (const net::Transport* t : f.front_ends) b += t->bytes_sent();
  return b;
}

Window run_window(Fixture& f, std::vector<Patient>& patients,
                  std::uint64_t seed, double seconds) {
  Window w;
  std::mutex mu;
  const std::uint64_t bytes0 = front_bytes_sent(f);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  w.seconds = seconds;
  auto run_patient = [&](Patient& pt) {
    while (Clock::now() < deadline) {
      std::uint64_t scan;
      Tensor volume;
      const std::uint64_t n = pt.submissions++;
      if (n == 0 || (n + pt.phase) % kNewEvery == 0) {
        scan = pt.next_scan++;
        volume = make_scan(f.bases[pt.index], seed, pt.index, scan);
        if (pt.recent.size() == kRepeatWindow) pt.recent.erase(pt.recent.begin());
        pt.recent.emplace_back(scan, volume);
      } else {
        const auto& r = pt.recent[static_cast<std::size_t>(
            pt.rng.uniform_int(0, static_cast<index_t>(pt.recent.size()) - 1))];
        scan = r.first;
        volume = r.second;
      }
      const std::uint64_t rid = pt.index * 1'000'000 + n;
      Span request("client.request", rid);
      const Clock::time_point t0 = Clock::now();
      std::future<serve::DiagnoseResponse> fut;
      {
        Span span("shard.submit", rid);
        fut = f.front->submit(pt.id, volume);
      }
      bool ready;
      {
        Span span("shard.wait", rid);
        ready = fut.wait_for(kLostAfter) == std::future_status::ready;
      }
      const Clock::time_point done = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      ++w.attempted;
      if (!ready) {
        ++w.lost;
        continue;
      }
      const serve::DiagnoseResponse r = fut.get();
      Sample s;
      s.latency_s = std::chrono::duration<double>(done - t0).count();
      w.requests.push_back(
          {std::chrono::duration<double>(t0 - start).count(),
           std::chrono::duration<double>(done - start).count()});
      s.ok = r.status == serve::RequestStatus::kOk;
      s.hit = r.cache_hit;
      s.execute_s = r.execute_s;
      s.total_s = r.total_s;
      w.samples.push_back(s);
      RescanOutcome o;
      o.scan = scan;
      o.ok = s.ok;
      o.hit = r.cache_hit;
      o.seq = r.scan_seq;
      o.probability = r.diagnosis.probability;
      o.burden = r.infection_burden;
      o.burden_delta = r.burden_delta;
      o.baseline_delta = r.baseline_delta;
      pt.outcomes.push_back(o);
    }
  };
  std::vector<std::thread> threads;
  for (Patient& pt : patients) threads.emplace_back(run_patient, std::ref(pt));
  for (auto& t : threads) t.join();
  w.bytes_sent = front_bytes_sent(f) - bytes0;
  return w;
}

/// Per-layer probes: scan-key hashing and verified cache lookups on a
/// benchmark-owned ResultCache, and 2 MiB request frames sent over a
/// Unix socket pair with a receiver draining the other end.
void probe_layers(const Fixture& f, std::uint64_t seed, Result& res) {
  const Tensor scan = make_scan(f.bases[0], seed, 0, 1);
  const core::Precision precision = core::active_precision();
  const bool fusion = graph::fusion_enabled();
  for (std::uint64_t k = 0; k < 16; ++k) {
    Span span("monitor.scan_key", k);
    volatile std::uint64_t key = serve::ResultCache::scan_key(
        scan, true, 0.5, precision, fusion, 0);
    (void)key;
  }

  serve::MonitorOptions mo;
  mo.cache_capacity = kCacheCapacity;
  serve::ResultCache cache(mo);
  constexpr std::uint64_t kKeys = kPatients * kRepeatWindow;
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    serve::CachedResult r;
    r.probability = 0.5 / static_cast<double>(k);
    r.infection_burden = 0.25 / static_cast<double>(k);
    r.seal();
    cache.insert(k, r, cache.epoch());
  }
  constexpr int kLookupsPerSpan = 100;
  std::uint64_t found = 0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    Span span("monitor.lookup", rep);
    for (int i = 0; i < kLookupsPerSpan; ++i) {
      found += cache.lookup(1 + (rep * kLookupsPerSpan + i) % kKeys).has_value();
    }
  }
  res.check(found == 20 * kLookupsPerSpan,
            "rescan_sharded: probe cache lookups missed");

  auto [tx, rx] = unix_pair(0, 1);
  constexpr int kFrames = 16;
  const std::vector<std::uint8_t> payload = serve::encode(
      serve::ShardRequest::from_volume(1, f.patient_ids[0], scan, {}));
  int received = 0;
  std::thread drain([&rx = *rx, &received] {
    try {
      while (received < kFrames && rx.recv_for(10.0)) ++received;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rescan_sharded: probe receiver: %s\n", e.what());
    }
  });
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    std::vector<std::uint8_t> copy = payload;
    Span span("net.send", k);
    tx->send(net::FrameType::kRequest, std::move(copy));
  }
  drain.join();
  res.check(received == kFrames, "rescan_sharded: probe frames lost");
  const double frame_bytes =
      static_cast<double>(tx->bytes_sent()) / static_cast<double>(kFrames);

  const auto self = self_times_ms(spans());
  auto med = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  res.metric("monitor.scan_key_ms", med("monitor.scan_key"), "ms");
  res.metric("monitor.lookup_us", 1e3 * med("monitor.lookup") / kLookupsPerSpan,
             "us");
  res.metric("net.send_ms_p50", med("net.send"), "ms");
  res.metric("net.frame_gbs", frame_bytes / (1e-3 * med("net.send")) * 1e-9,
             "GB/s");
}

}  // namespace

Result run_rescan_sharded(const Options& o) {
  Result res;
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> f = repeated_setup(
      kSetupReps, setup_times, [&] { return setup(o); });
  res.check(f->warm_ok, "rescan_sharded: warm-up request failed");

  std::vector<Patient> patients(kPatients);
  for (int p = 0; p < kPatients; ++p) {
    patients[p].id = f->patient_ids[p];
    patients[p].index = static_cast<std::size_t>(p);
    // balanced_patients hands out ids shard by shard in turn, so the
    // k-th patient routed to a shard has k = (count so far on it).
    int rank_on_shard = 0;
    for (int q = 0; q < p; ++q) {
      rank_on_shard += serve::route_shard(f->patient_ids[q], kShards) ==
                       serve::route_shard(f->patient_ids[p], kShards);
    }
    patients[p].phase =
        static_cast<std::uint64_t>(rank_on_shard) * (kNewEvery / 2);
    patients[p].rng = Rng(o.seed * 1000003u + static_cast<std::uint64_t>(p));
  }

  std::vector<Window> windows;
  if (!o.trace) {
    windows.push_back(run_window(*f, patients, o.seed, o.seconds));
    const Window& w = windows.back();
    res.metric("setup_s", median(setup_times), "s");
    res.metric("throughput_per_s", w.throughput(), "1/s");
    res.report.num("throughput_vps", w.throughput());
    // Latency here is hit latency: the serve path itself. Misses run the
    // same pipeline diagnose_fresh times, and their cost shows in
    // throughput, which they dominate.
    const auto lat = w.latencies_ms(true);
    res.metric("latency_p50_ms", quantile(lat, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(lat, 0.9), "ms");
    // Read before the reference diagnoses below, which are the
    // benchmark's own work, not the workload's.
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    windows.push_back(run_window(*f, patients, o.seed, o.seconds / 2));
    const std::uint64_t allocs0 = fresh_system_allocs();
    set_tracing(true);
    windows.push_back(run_window(*f, patients, o.seed, o.seconds / 2));
    const std::uint64_t allocs1 = fresh_system_allocs();
    const Window& wu = windows[0];
    const Window& wt = windows[1];
    const double n = static_cast<double>(std::max<std::size_t>(1, wt.samples.size()));
    res.metric("trace.overhead_frac",
               (wu.throughput() - wt.throughput()) / wu.throughput(), "frac");
    res.metric("core.fresh_allocs_per_request",
               static_cast<double>(allocs1 - allocs0) / n, "count");
    std::vector<double> exec_ms, hit_exec_ms, overhead_ms;
    double hits = 0;
    for (const Sample& s : wt.samples) {
      exec_ms.push_back(1e3 * s.execute_s);
      if (!s.hit) continue;
      ++hits;
      hit_exec_ms.push_back(1e3 * s.execute_s);
      overhead_ms.push_back(1e3 * (s.total_s - s.execute_s));
    }
    res.metric("serve.execute_ms_p50", median(exec_ms), "ms");
    res.metric("monitor.hit_rate", hits / n, "frac");
    res.metric("monitor.hit_execute_ms_p50", median(hit_exec_ms), "ms");
    const auto hit_lat = wt.latencies_ms(true);
    res.metric("monitor.hit_latency_p50_ms", quantile(hit_lat, 0.5), "ms");
    res.metric("monitor.hit_latency_p90_ms", quantile(hit_lat, 0.9), "ms");
    res.metric("shard.front_overhead_ms_p50", median(overhead_ms), "ms");
    res.metric("net.bytes_per_request", static_cast<double>(wt.bytes_sent) / n,
               "bytes");
    probe_layers(*f, o.seed, res);
    set_tracing(false);
    const Roofline roof = measure_roofline(host_info().nproc);
    record_roofline(res.report, roof);
    res.metric("host.triad_gbs", roof.triad_gbs, "GB/s");
    res.metric("host.fma_gflops", roof.fma_gflops, "GFLOP/s");
  }

  // Output checks and failure accounting over every window.
  const std::vector<Reference> refs = references(*f->pipes[0], f->bases, 2);
  std::vector<std::vector<RescanOutcome>> per_patient;
  for (const Patient& pt : patients) {
    per_patient.push_back(pt.outcomes);
    if (!pt.outcomes.empty() && pt.outcomes.front().ok) {
      const Reference& ref = refs[pt.index];
      res.check(same_bits(pt.outcomes.front().probability, ref.probability) &&
                    same_bits(pt.outcomes.front().burden, ref.burden),
                "rescan_sharded: first scan differs from the direct-pipeline "
                "reference");
    }
  }
  check_rescan(per_patient, res.errors);
  std::uint64_t lost = 0, hits = 0, responses = 0, distinct = 0;
  std::vector<double> all_hit_lat, miss_lat, all_lat;
  for (const Window& w : windows) {
    res.attempted += w.attempted;
    lost += w.lost;
    for (const Sample& s : w.samples) {
      ++responses;
      hits += s.hit;
      if (!s.ok) ++res.failed;
    }
    for (const Sample& s : w.samples) {
      (s.hit ? all_hit_lat : miss_lat).push_back(1e3 * s.latency_s);
      all_lat.push_back(1e3 * s.latency_s);
    }
  }
  for (const Patient& pt : patients) distinct += pt.next_scan;
  const std::uint64_t failed_over = f->front->failed_over();
  res.failed += lost + failed_over;
  f->front->shutdown();

  JsonObject fail;
  fail.integer("failed", res.failed);
  fail.integer("attempted", res.attempted);
  fail.num("failed_frac", res.attempted ? static_cast<double>(res.failed) /
                                              static_cast<double>(res.attempted)
                                        : 0.0);
  fail.integer("lost_futures", lost);
  fail.integer("failed_over", failed_over);
  res.report.raw("failures", fail.dump());

  JsonObject out;
  out.integer("responses", responses);
  out.integer("cache_hits", hits);
  out.integer("cache_misses", responses - hits);
  out.num("hit_latency_p50_ms", quantile(all_hit_lat, 0.5));
  out.num("hit_latency_p90_ms", quantile(all_hit_lat, 0.9));
  out.integer("hit_latency_samples", all_hit_lat.size());
  // Hits that waited behind the other patient's miss on their shard (the
  // worker forwards responses in submission order); about one in
  // kNewEvery - 1.
  out.num("hits_behind_a_miss_frac",
          all_hit_lat.empty()
              ? 0.0
              : static_cast<double>(std::count_if(
                    all_hit_lat.begin(), all_hit_lat.end(),
                    [&](double ms) { return ms > 0.5 * quantile(miss_lat, 0.5); })) /
                    static_cast<double>(all_hit_lat.size()));
  out.num("all_latency_p50_ms", quantile(all_lat, 0.5));
  out.num("all_latency_p90_ms", quantile(all_lat, 0.9));
  out.num("miss_latency_p50_ms", quantile(miss_lat, 0.5));
  out.integer("cache_capacity_per_shard", kCacheCapacity);
  out.integer("working_set_scans", kPatients * kRepeatWindow);
  out.integer("distinct_scans_inserted", distinct);
  out.integer("patients", kPatients);
  out.integer("shards", kShards);
  out.integer("workers_per_shard", kWorkersPerShard);
  out.integer("new_scan_every", kNewEvery);
  res.report.raw("outputs", out.dump());
  return res;
}

}  // namespace perfbench
