#include "serving.h"

#include <cmath>
#include <exception>
#include <thread>

#include "core/random.h"
#include "data/phantom.h"
#include "nn/layers.h"

namespace perfbench {

using namespace ccovid;

nn::DDnetConfig serve_ddnet_config() {
  nn::DDnetConfig cfg;
  cfg.base_channels = 8;
  cfg.growth = 8;
  cfg.levels = 2;
  cfg.dense_layers = 2;
  return cfg;
}

Models build_models() {
  nn::seed_init_rng(kModelSeed);
  auto enh = std::make_shared<pipeline::EnhancementAI>(serve_ddnet_config());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  auto pipe =
      std::make_shared<const pipeline::ComputeCovid19Pipeline>(enh, seg, cls);
  return {enh, seg, cls, pipe};
}

std::vector<Tensor> make_phantoms(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(data::make_volume(kDepth, kSize, i % 2 == 1, rng).hu);
  }
  return out;
}

Tensor with_fov_padding(const Tensor& base, float padding_hu) {
  Tensor out = base.clone();
  const index_t d = out.dim(0), h = out.dim(1), w = out.dim(2);
  real_t* p = out.data();
  // Same inscribed-circle test as data::add_circular_fov_artifact.
  for (index_t y = 0; y < h; ++y) {
    const double fy = (static_cast<double>(y) + 0.5) / h - 0.5;
    for (index_t x = 0; x < w; ++x) {
      const double fx = (static_cast<double>(x) + 0.5) / w - 0.5;
      if (fx * fx + fy * fy <= 0.25) continue;
      for (index_t z = 0; z < d; ++z) p[(z * h + y) * w + x] = padding_hu;
    }
  }
  return out;
}

namespace {

Reference reference_of(const pipeline::ComputeCovid19Pipeline& p,
                       const Tensor& volume) {
  const pipeline::Diagnosis d = p.diagnose(volume, /*use_enhancement=*/true);
  return {d.probability, d.infection_burden};
}

}  // namespace

std::vector<Reference> references(const pipeline::ComputeCovid19Pipeline& p,
                                  const std::vector<Tensor>& volumes,
                                  int threads) {
  std::vector<Reference> refs(volumes.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < volumes.size(); i += threads) {
        try {
          refs[i] = reference_of(p, volumes[i]);
        } catch (const std::exception&) {
          refs[i] = {std::nan(""), std::nan("")};  // no response can match
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return refs;
}

}  // namespace perfbench
