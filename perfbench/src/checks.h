// Output checks of the three workloads. Each appends one line per
// violation to `errors`; an empty list means the outputs are correct.
// They are pure functions of recorded outcomes so the self-test can
// feed them deliberately damaged records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Diagnosis bits every check compares.
struct Reference {
  double probability = 0.0;
  double burden = 0.0;
};

bool same_bits(double a, double b);

struct FreshOutcome {
  std::uint64_t request = 0;  ///< global request index
  std::size_t base = 0;       ///< phantom the volume was derived from
  bool ok = false;
  double probability = 0.0;
  double burden = 0.0;
};

/// diagnose_fresh: every response is ok and its probability and burden
/// bits equal the direct-pipeline reference for its volume.
void check_fresh(const std::vector<FreshOutcome>& outcomes,
                 const std::vector<Reference>& refs,
                 std::vector<std::string>& errors);

/// FNV-1a over (request, probability bits, burden bits) in request
/// order — printed so runs can be compared.
std::uint64_t fresh_digest(std::vector<FreshOutcome> outcomes);

struct RescanOutcome {
  std::uint64_t scan = 0;  ///< patient-local index of the distinct volume
  bool ok = false;
  bool hit = false;
  std::uint64_t seq = 0;
  double probability = 0.0;
  double burden = 0.0;
  double burden_delta = 0.0;
  double baseline_delta = 0.0;
};

/// rescan_sharded, per patient in submission order: ordinals run 1..R
/// with no loss or duplicate, every repeat of a scan is bitwise-equal to
/// that scan's first (computed) result, and burden_delta /
/// baseline_delta bits equal the subtractions.
void check_rescan(const std::vector<std::vector<RescanOutcome>>& patients,
                  std::vector<std::string>& errors);

/// train_ddp: post-run parameters are bitwise-equal across ranks and
/// every step's loss is finite.
void check_train(const std::vector<std::uint64_t>& rank_param_digests,
                 const std::vector<double>& step_losses,
                 std::vector<std::string>& errors);

/// Every name in `required` appears in `metrics`.
void check_metric_names(const std::vector<Metric>& metrics,
                        const std::vector<std::string>& required,
                        std::vector<std::string>& errors);

}  // namespace perfbench
