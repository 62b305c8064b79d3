// train_ddp — DDnet enhancement training through dist::DdpTrainer with 2
// rank threads, backward/allreduce overlap on, and the default buckets
// and collective. The DDnet configuration and loss are ccovid_train's;
// the training pairs are 64x64 low-dose/full-dose pairs generated at
// set-up, with a fixed per-worker batch. This is the only workload that
// runs the autograd backward engine, the dist collectives and the
// training-mode kernels.
//
// Each timed call to train_epoch covers exactly one global batch, so one
// call is one optimizer step and its wall time is the step latency.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "autograd/losses.h"
#include "checks.h"
#include "common.h"
#include "core/alloc_cache.h"
#include "core/digest.h"
#include "core/random.h"
#include "data/dataset.h"
#include "dist/collective.h"
#include "dist/ddp.h"
#include "host.h"
#include "nn/ddnet.h"
#include "nn/layers.h"
#include "serving.h"
#include "spans.h"

namespace perfbench {

using namespace ccovid;

namespace {

constexpr int kRanks = 2;
constexpr index_t kPerWorkerBatch = 2;
constexpr index_t kGlobalBatch = kRanks * kPerWorkerBatch;
constexpr index_t kPairs = 16;  ///< timed steps cycle through these
constexpr index_t kPx = 64;
constexpr int kSetupReps = 5;
constexpr double kLr = 2e-3;          ///< ccovid_train's DDnet rate
constexpr real_t kMsssimWeight = 0.1f;
constexpr int kMsssimScales = 1;      ///< ccovid_train at small sizes

struct Fixture {
  std::vector<data::LowDosePair> pairs;  ///< kPairs timed + warm-up batch
  std::unique_ptr<dist::DdpTrainer> trainer;
  double warm_loss = 0.0;
};

/// ccovid_train's DDP loss: mean enhancement loss over the samples.
autograd::Var batch_loss(nn::Module& model,
                         const std::vector<data::LowDosePair>& pairs,
                         index_t offset, const std::vector<index_t>& samples) {
  auto& net = dynamic_cast<nn::DDnet&>(model);
  autograd::Var total;
  for (const index_t s : samples) {
    const data::LowDosePair& pair = pairs[static_cast<std::size_t>(offset + s)];
    autograd::Var x(pair.low.clone().reshape({1, 1, kPx, kPx}));
    autograd::Var loss = autograd::enhancement_loss(
        net.forward(x), pair.full.clone().reshape({1, 1, kPx, kPx}),
        kMsssimWeight, 11, kMsssimScales);
    total = total.defined() ? autograd::add(total, loss) : loss;
  }
  return autograd::mul_scalar(total,
                              1.0f / static_cast<real_t>(samples.size()));
}

dist::DdpTrainer::LossFn loss_at(const Fixture& f, index_t offset) {
  return [&f, offset](nn::Module& model, int /*rank*/,
                      const std::vector<index_t>& samples) {
    return batch_loss(model, f.pairs, offset, samples);
  };
}

std::unique_ptr<Fixture> setup(const Options& o) {
  auto f = std::make_unique<Fixture>();
  Rng rng(o.seed);
  data::EnhancementDatasetConfig cfg;
  cfg.image_px = kPx;
  cfg.num_train = kPairs + kGlobalBatch;
  cfg.num_val = 0;
  cfg.num_test = 0;
  cfg.lowdose.photons_per_ray = 2e4;  // ccovid_train's dose
  f->pairs = data::make_enhancement_dataset(cfg, rng).train;

  nn::seed_init_rng(kModelSeed);
  dist::DdpConfig dc;
  dc.world_size = kRanks;
  dc.per_worker_batch = kPerWorkerBatch;
  dc.lr = kLr;
  const nn::DDnetConfig net = serve_ddnet_config();
  f->trainer = std::make_unique<dist::DdpTrainer>(
      [net] { return std::make_shared<nn::DDnet>(net); }, dc);
  // Warm-up step on the batch after the timed pairs.
  Rng warm_rng(o.seed + 1);
  f->warm_loss =
      f->trainer->train_epoch(kGlobalBatch, loss_at(*f, kPairs), warm_rng)
          .mean_loss;
  return f;
}

struct Window {
  std::vector<double> step_s;
  std::vector<double> losses;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t failed = 0;  ///< steps that threw (typed CommError etc.)
  std::string error;
  std::vector<Interval> steps;  ///< completed, for throughput
  double seconds = 0.0;

  double samples_per_s() const {
    return completed_in_window(steps, seconds) * kGlobalBatch / seconds;
  }
};

Window run_window(Fixture& f, Rng& rng, index_t& step, double seconds) {
  Window w;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  w.seconds = seconds;
  while (Clock::now() < deadline) {
    const index_t offset = (step * kGlobalBatch) % kPairs;
    const Clock::time_point t0 = Clock::now();
    dist::EpochStats st;
    try {
      Span span("dist.step", static_cast<std::uint64_t>(step));
      st = f.trainer->train_epoch(kGlobalBatch, loss_at(f, offset), rng);
    } catch (const std::exception& e) {
      // Replicas may now disagree; stop and let the checks report it.
      ++w.failed;
      w.error = e.what();
      break;
    }
    const double t0_s = std::chrono::duration<double>(t0 - start).count();
    const double t1_s = seconds_since(start);
    w.steps.push_back({t0_s, t1_s});
    w.step_s.push_back(t1_s - t0_s);
    w.losses.push_back(st.mean_loss);
    w.allreduce_bytes += st.allreduce_bytes_per_rank;
    ++step;
  }
  return w;
}

std::uint64_t param_digest(const nn::Module& m) {
  std::uint64_t h = kFnv1aOffset;
  for (const auto& p : m.parameters()) h = fnv1a64(p.value(), h);
  return h;
}

/// Per-layer probes: forward and backward of one replica over one
/// per-worker batch, and the resolved allreduce over a gradient-sized
/// buffer between 2 rank threads.
void probe_layers(const Fixture& f, Result& res) {
  nn::seed_init_rng(kModelSeed);
  nn::DDnet replica(serve_ddnet_config());
  std::vector<index_t> samples(static_cast<std::size_t>(kPerWorkerBatch));
  for (index_t i = 0; i < kPerWorkerBatch; ++i) samples[i] = i;
  for (std::uint64_t k = 0; k < 5; ++k) {
    autograd::Var loss;
    {
      Span span("autograd.forward", k);
      loss = batch_loss(replica, f.pairs, 0, samples);
    }
    Span span("autograd.backward", k);
    loss.backward();
  }

  const index_t elems = f.trainer->gradient_elements();
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(elems) * sizeof(real_t);
  const dist::Collective alg = dist::resolve_collective(
      f.trainer->config().collective, f.trainer->config().net, bytes, kRanks);
  dist::World world(kRanks);
  for (std::uint64_t k = 0; k < 8; ++k) {
    std::vector<std::vector<real_t>> data(
        kRanks, std::vector<real_t>(static_cast<std::size_t>(elems), 1.0f));
    std::thread peer([&] { dist::all_reduce(world, 1, data[1], alg); });
    {
      Span span("dist.allreduce", k);
      dist::all_reduce(world, 0, data[0], alg);
    }
    peer.join();
    res.check(data[0][0] == static_cast<real_t>(kRanks),
              "train_ddp: probe allreduce sum is wrong");
  }
  JsonObject j;
  j.str("collective", dist::collective_name(alg));
  j.integer("gradient_bytes", bytes);
  res.report.raw("allreduce_probe", j.dump());
}

}  // namespace

Result run_train_ddp(const Options& o) {
  Result res;
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> f = repeated_setup(
      kSetupReps, setup_times, [&] { return setup(o); });
  res.check(std::isfinite(f->warm_loss), "train_ddp: warm-up loss not finite");

  Rng rng(o.seed ^ 0x747261696eull);
  index_t step = 0;
  std::vector<Window> windows;
  if (!o.trace) {
    windows.push_back(run_window(*f, rng, step, o.seconds));
    const Window& w = windows.back();
    res.metric("setup_s", median(setup_times), "s");
    res.metric("throughput_per_s", w.samples_per_s(), "1/s");
    res.report.num("train_samples_per_s", w.samples_per_s());
    std::vector<double> ms;
    for (const double s : w.step_s) ms.push_back(1e3 * s);
    res.metric("latency_p50_ms", quantile(ms, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(ms, 0.9), "ms");
  } else {
    windows.push_back(run_window(*f, rng, step, o.seconds / 2));
    const std::uint64_t allocs0 = fresh_system_allocs();
    set_tracing(true);
    windows.push_back(run_window(*f, rng, step, o.seconds / 2));
    const std::uint64_t allocs1 = fresh_system_allocs();
    const Window& wu = windows[0];
    const Window& wt = windows[1];
    const double n = static_cast<double>(std::max<std::size_t>(1, wt.step_s.size()));
    res.metric("trace.overhead_frac",
               (wu.samples_per_s() - wt.samples_per_s()) / wu.samples_per_s(),
               "frac");
    res.metric("core.fresh_allocs_per_request",
               static_cast<double>(allocs1 - allocs0) / n, "count");
    res.metric("dist.allreduce_bytes_per_rank",
               static_cast<double>(wt.allreduce_bytes) / n, "bytes");
    probe_layers(*f, res);
    set_tracing(false);
    const auto self = self_times_ms(spans());
    auto med = [&self](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    res.metric("autograd.forward_ms", med("autograd.forward"), "ms");
    res.metric("autograd.backward_ms", med("autograd.backward"), "ms");
    res.metric("dist.allreduce_ms", med("dist.allreduce"), "ms");
    const Roofline roof = measure_roofline(host_info().nproc);
    record_roofline(res.report, roof);
    res.metric("host.triad_gbs", roof.triad_gbs, "GB/s");
    res.metric("host.fma_gflops", roof.fma_gflops, "GFLOP/s");
  }

  std::vector<double> losses;
  for (const Window& w : windows) {
    res.attempted += w.step_s.size() + w.failed;
    res.failed += w.failed;
    res.check(w.error.empty(), "train_ddp: step failed: " + w.error);
    losses.insert(losses.end(), w.losses.begin(), w.losses.end());
  }
  std::vector<std::uint64_t> digests;
  for (int r = 0; r < kRanks; ++r) {
    digests.push_back(param_digest(f->trainer->model(r)));
  }
  check_train(digests, losses, res.errors);

  JsonObject fail;
  fail.integer("failed", res.failed);
  fail.integer("attempted", res.attempted);
  fail.num("failed_frac", res.attempted ? static_cast<double>(res.failed) /
                                              static_cast<double>(res.attempted)
                                        : 0.0);
  res.report.raw("failures", fail.dump());
  JsonObject out;
  out.integer("steps", losses.size());
  out.integer("global_batch", static_cast<std::uint64_t>(kGlobalBatch));
  out.integer("ranks", kRanks);
  out.num("final_loss", losses.empty() ? 0.0 : losses.back());
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digests[0]));
  out.str("rank0_param_digest", buf);
  out.str("pairs", "64x64 low-dose/full-dose, photons_per_ray 2e4");
  res.report.raw("outputs", out.dump());
  if (!o.trace) res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace perfbench
