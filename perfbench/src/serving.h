// Inputs and models shared by the two serving workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "checks.h"
#include "core/tensor.h"
#include "nn/ddnet.h"
#include "pipeline/framework.h"

namespace perfbench {

inline constexpr ccovid::index_t kDepth = 32;   ///< slices per volume
inline constexpr ccovid::index_t kSize = 128;   ///< slice edge, pixels
/// Weights are seeded like ccovid_serve's default, independent of the
/// workload seed: the seed picks inputs, never the program.
inline constexpr std::uint64_t kModelSeed = 42;

/// The DDnet configuration ccovid_serve and ccovid_train use.
ccovid::nn::DDnetConfig serve_ddnet_config();

/// Seeded random-init eval-mode models, as ccovid_serve builds them:
/// the pipeline the server runs plus read-only handles on its stages,
/// which the per-layer probes call directly.
struct Models {
  std::shared_ptr<const ccovid::pipeline::EnhancementAI> enhancement;
  std::shared_ptr<const ccovid::pipeline::SegmentationAI> segmentation;
  std::shared_ptr<const ccovid::pipeline::ClassificationAI> classification;
  std::shared_ptr<const ccovid::pipeline::ComputeCovid19Pipeline> pipeline;
};
Models build_models();

/// `count` kDepth x kSize x kSize HU phantoms from data::make_volume,
/// alternating negative and positive, drawn from `seed`.
std::vector<ccovid::Tensor> make_phantoms(std::uint64_t seed, int count);

/// Copy of `base` whose voxels outside the inscribed field-of-view
/// circle hold `padding_hu` (the scanner padding the pipeline's §2.1
/// preparation strips). Distinct padding gives distinct volume bytes.
ccovid::Tensor with_fov_padding(const ccovid::Tensor& base, float padding_hu);

/// Direct pipeline calls (no server): the reference bits for every
/// volume, spread over `threads` threads.
std::vector<Reference> references(
    const ccovid::pipeline::ComputeCovid19Pipeline& p,
    const std::vector<ccovid::Tensor>& volumes, int threads);

}  // namespace perfbench
