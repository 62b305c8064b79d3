// diagnose_fresh — stateless diagnoses through an in-process
// serve::InferenceServer with 2 workers. Two closed-loop clients each
// wait for their reply before sending the next scan, and every scan has
// distinct bytes, so the path is bound by compute: graph (DDnet
// enhancement), nn (AH-Net segmentation, DenseNet-3D classification),
// ops and core do nearly all the work.
//
// Request i carries phantom i % kBases with the scanner padding outside
// the field of view set to a per-request value. The pipeline's §2.1
// preparation replaces that padding with air, so every response must
// carry exactly the bits of a direct pipeline call on the same phantom
// (computed once, after the timed window, on padding no request uses).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.h"
#include "common.h"
#include "core/alloc_cache.h"
#include "core/parallel.h"
#include "ct/hu.h"
#include "data/dataset.h"
#include "hetero/ddnet_counts.h"
#include "host.h"
#include "nn/ahnet.h"
#include "serve/server.h"
#include "serving.h"
#include "spans.h"

namespace perfbench {

using namespace ccovid;

namespace {

constexpr int kBases = 4;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;
constexpr int kProbes = 3;
constexpr float kReferencePaddingHu = -1500.0f;
constexpr auto kLostAfter = std::chrono::seconds(120);

struct Fixture {
  std::vector<Tensor> bases;
  Models models;
  std::unique_ptr<serve::InferenceServer> server;  // after models: dies first
  bool warm_ok = false;
};

std::unique_ptr<Fixture> setup(const Options& o) {
  auto f = std::make_unique<Fixture>();
  // One extra phantom for the warm-up request, outside the timed set.
  f->bases = make_phantoms(o.seed, kBases + 1);
  const Tensor warm = f->bases.back();
  f->bases.pop_back();
  f->models = build_models();
  serve::ServerOptions so;
  so.workers = kWorkers;
  f->server = std::make_unique<serve::InferenceServer>(f->models.pipeline, so);
  f->warm_ok = f->server->submit(warm).get().status == serve::RequestStatus::kOk;
  return f;
}

struct Sample {
  FreshOutcome out;
  double latency_s = 0.0;
  double queue_s = 0.0;
  double execute_s = 0.0;
  double batch_size = 0.0;
};

struct Window {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::vector<Interval> requests;  ///< completed, for throughput
  double seconds = 0.0;

  double throughput() const {
    return completed_in_window(requests, seconds) / seconds;
  }
};

/// Closed loop: each client submits, waits for the reply, repeats until
/// `seconds` have passed. Throughput is the work completed inside the
/// window (see completed_in_window) over its length.
Window run_window(Fixture& f, double seconds, std::uint64_t first_request) {
  Window w;
  std::mutex mu;
  std::atomic<std::uint64_t> next{first_request};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  w.seconds = seconds;
  auto make_request = [&] {
    const std::uint64_t i = next.fetch_add(1);
    return std::pair{i, with_fov_padding(f.bases[i % kBases],
                                         -2000.0f - static_cast<float>(i))};
  };
  // The clients start together, so their replies land together and the
  // batcher puts each next pair in one batch: one worker runs both while
  // the other idles (serve.batch_size_mean = 2). Each client builds its
  // next volume while the current one is in flight, so nothing sits
  // between reply and submit; with the build there, host jitter split
  // runs at random between this state and one where the two requests
  // overlap on both workers, whose throughput is higher but spreads ~20%
  // from run to run.
  auto client = [&] {
    auto pending = make_request();
    while (Clock::now() < deadline) {
      const auto [i, volume] = std::move(pending);
      Sample s;
      s.out.request = i;
      s.out.base = static_cast<std::size_t>(i % kBases);
      Span request("client.request", i);
      const Clock::time_point t0 = Clock::now();
      std::future<serve::DiagnoseResponse> fut;
      {
        Span span("serve.submit", i);
        fut = f.server->submit(volume);
      }
      pending = make_request();
      bool ready;
      {
        Span span("serve.wait", i);
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
      s.latency_s = std::chrono::duration<double>(done - t0).count();
      w.requests.push_back(
          {std::chrono::duration<double>(t0 - start).count(),
           std::chrono::duration<double>(done - start).count()});
      s.out.ok = r.status == serve::RequestStatus::kOk;
      s.out.probability = r.diagnosis.probability;
      s.out.burden = r.diagnosis.infection_burden;
      s.queue_s = r.queue_s;
      s.execute_s = r.execute_s;
      s.batch_size = static_cast<double>(r.batch_size);
      w.samples.push_back(s);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  return w;
}

std::vector<double> ms_of(const std::vector<Sample>& v,
                          double Sample::*field) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Sample& s : v) out.push_back(1e3 * (s.*field));
  return out;
}

/// Per-layer probes on the idle server's model, from this thread: the
/// whole diagnose() (its self time is what its own stage timers do not
/// cover), then each stage through its public API, then DDnet
/// enhancement at engine widths 1 and 4.
void probe_layers(const Fixture& f, const Reference& ref0, Result& res) {
  const Tensor volume = with_fov_padding(f.bases[0], kReferencePaddingHu);
  std::vector<double> self_ms;
  for (int k = 0; k < kProbes; ++k) {
    const std::uint64_t id = 1000 + k;
    pipeline::StageTimes times;
    pipeline::Diagnosis d;
    const Clock::time_point t0 = Clock::now();
    {
      Span span("pipeline.diagnose", id);
      d = f.models.pipeline->diagnose(volume, true, 0.5, &times);
    }
    self_ms.push_back(1e3 * (seconds_since(t0) - times.total()));
    res.check(same_bits(d.probability, ref0.probability),
              "diagnose_fresh: probe diagnose differs from the reference");

    Span stages("pipeline.stages", id);
    Tensor norm;
    {
      Span span("pipeline.prepare", id);
      norm = ct::normalize_hu(data::remove_circular_fov_volume(volume));
    }
    {
      Span span("graph.enhance", id);
      norm = f.models.enhancement->enhance_volume(norm);
    }
    Tensor mask;
    {
      Span span("nn.segment", id);
      mask = f.models.segmentation->segment(norm);
    }
    const Tensor masked = nn::AhNet::apply_mask(norm, mask);
    double p;
    {
      Span span("nn.classify", id);
      p = f.models.classification->predict(masked);
    }
    res.check(same_bits(p, ref0.probability),
              "diagnose_fresh: stage-by-stage probability differs from the "
              "reference");
  }
  res.metric("pipeline.self_ms", median(self_ms), "ms");

  const Tensor norm =
      ct::normalize_hu(data::remove_circular_fov_volume(volume));
  std::vector<double> w1, w4;
  for (int k = 0; k < 2; ++k) {
    for (const int width : {1, 4}) {
      ParallelPin pin(width);
      const Clock::time_point t0 = Clock::now();
      const Tensor out = f.models.enhancement->enhance_volume(norm);
      (width == 1 ? w1 : w4).push_back(seconds_since(t0));
    }
  }
  res.metric("graph.enhance_scaling_4v1", median(w1) / median(w4), "x");
}

}  // namespace

Result run_diagnose_fresh(const Options& o) {
  Result res;
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> f = repeated_setup(
      kSetupReps, setup_times, [&] { return setup(o); });
  res.check(f->warm_ok, "diagnose_fresh: warm-up request failed");

  std::vector<Window> windows;
  if (!o.trace) {
    windows.push_back(run_window(*f, o.seconds, 0));
    const Window& w = windows.back();
    res.metric("setup_s", median(setup_times), "s");
    res.metric("throughput_per_s", w.throughput(), "1/s");
    res.report.num("throughput_vps", w.throughput());
    const auto lat = ms_of(w.samples, &Sample::latency_s);
    res.metric("latency_p50_ms", quantile(lat, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(lat, 0.9), "ms");
    // Read before the reference diagnoses below, which are the
    // benchmark's own work, not the workload's.
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Untraced half, then traced half: the throughput difference is the
    // tracing overhead.
    windows.push_back(run_window(*f, o.seconds / 2, 0));
    const std::uint64_t allocs0 = fresh_system_allocs();
    set_tracing(true);
    windows.push_back(run_window(*f, o.seconds / 2, 1u << 20));
    const std::uint64_t allocs1 = fresh_system_allocs();
    const Window& wu = windows[0];
    const Window& wt = windows[1];
    res.metric("trace.overhead_frac",
               (wu.throughput() - wt.throughput()) / wu.throughput(), "frac");
    res.metric("core.fresh_allocs_per_request",
               static_cast<double>(allocs1 - allocs0) /
                   static_cast<double>(std::max<std::size_t>(1, wt.samples.size())),
               "count");
    res.metric("serve.queue_wait_ms_p50",
               median(ms_of(wt.samples, &Sample::queue_s)), "ms");
    res.metric("serve.execute_ms_p50",
               median(ms_of(wt.samples, &Sample::execute_s)), "ms");
    std::vector<double> batch;
    for (const Sample& s : wt.samples) batch.push_back(s.batch_size);
    res.metric("serve.batch_size_mean", mean(batch), "count");
  }

  std::vector<Tensor> ref_volumes;
  for (const Tensor& b : f->bases) {
    ref_volumes.push_back(with_fov_padding(b, kReferencePaddingHu));
  }
  const std::vector<Reference> refs =
      references(*f->models.pipeline, ref_volumes, 2);

  if (o.trace) {
    probe_layers(*f, refs[0], res);
    set_tracing(false);
    const auto self = self_times_ms(spans());
    auto med = [&self](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    res.metric("pipeline.prepare_ms", med("pipeline.prepare"), "ms");
    res.metric("graph.enhance_ms", med("graph.enhance"), "ms");
    res.metric("nn.segment_ms", med("nn.segment"), "ms");
    res.metric("nn.classify_ms", med("nn.classify"), "ms");

    // Computed, not measured: the DDnet layer walk's flop count for one
    // 128x128 slice, times the slices per volume, over measured time.
    const hetero::NetworkCounts c =
        hetero::count_ddnet(serve_ddnet_config(), kSize, kSize);
    const double flops = static_cast<double>(kDepth) *
                         static_cast<double>(c.conv.flops +
                                             c.deconv_gather.flops +
                                             c.other.flops);
    const double gflops = flops / (1e-3 * med("graph.enhance")) * 1e-9;
    const Roofline roof = measure_roofline(host_info().nproc);
    record_roofline(res.report, roof);
    res.metric("graph.ddnet_gflops", gflops, "GFLOP/s");
    res.metric("graph.ddnet_peak_frac", gflops / roof.fma_gflops, "frac");
    res.metric("host.triad_gbs", roof.triad_gbs, "GB/s");
    res.metric("host.fma_gflops", roof.fma_gflops, "GFLOP/s");
    JsonObject computed;
    computed.str("kind", "computed");
    computed.num("ddnet_flops_per_volume", flops);
    computed.str("source", "hetero::count_ddnet, conv + deconv (gather) + other");
    res.report.raw("graph_flops", computed.dump());
  }

  // Output checks and failure accounting over every window.
  std::vector<FreshOutcome> outcomes;
  std::vector<double> all_lat;
  std::uint64_t lost = 0;
  for (const Window& w : windows) {
    res.attempted += w.attempted;
    lost += w.lost;
    for (const Sample& s : w.samples) {
      outcomes.push_back(s.out);
      all_lat.push_back(1e3 * s.latency_s);
      if (!s.out.ok) ++res.failed;
    }
  }
  res.failed += lost;
  check_fresh(outcomes, refs, res.errors);
  f->server->shutdown();
  const serve::ServerStats& st = f->server->stats();
  const std::uint64_t server_failed =
      st.rejected_queue_full.load() + st.rejected_shutdown.load() +
      st.timed_out.load() + st.failed.load();
  res.check(server_failed == 0 || res.failed > 0,
            "diagnose_fresh: server counted failures no response showed");

  JsonObject fail;
  fail.integer("failed", res.failed);
  fail.integer("attempted", res.attempted);
  fail.num("failed_frac", res.attempted ? static_cast<double>(res.failed) /
                                              static_cast<double>(res.attempted)
                                        : 0.0);
  fail.integer("lost_futures", lost);
  fail.integer("server_rejected", st.rejected_queue_full.load() +
                                      st.rejected_shutdown.load());
  fail.integer("server_timed_out", st.timed_out.load());
  fail.integer("server_failed", st.failed.load());
  res.report.raw("failures", fail.dump());

  JsonObject out;
  out.integer("completed", outcomes.size());
  out.str("output_digest", [&] {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fresh_digest(outcomes)));
    return std::string(buf);
  }());
  out.integer("latency_samples", all_lat.size());
  out.integer("clients", kClients);
  out.integer("workers", kWorkers);
  out.str("volume", "32x128x128 HU phantoms, alternating negative/positive");
  out.num("setup_s_min", *std::min_element(setup_times.begin(), setup_times.end()));
  out.num("setup_s_max", *std::max_element(setup_times.begin(), setup_times.end()));
  res.report.raw("outputs", out.dump());
  return res;
}

}  // namespace perfbench
