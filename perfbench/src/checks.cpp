#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "core/digest.h"

namespace perfbench {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

namespace {

std::string fmt(const char* f, unsigned long long a, unsigned long long b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

void check_fresh(const std::vector<FreshOutcome>& outcomes,
                 const std::vector<Reference>& refs,
                 std::vector<std::string>& errors) {
  for (const FreshOutcome& o : outcomes) {
    if (!o.ok) {
      errors.push_back(fmt("diagnose_fresh: request %llu failed", o.request));
    } else if (o.base >= refs.size()) {
      errors.push_back(fmt("diagnose_fresh: request %llu has no reference",
                           o.request));
    } else if (!same_bits(o.probability, refs[o.base].probability) ||
               !same_bits(o.burden, refs[o.base].burden)) {
      errors.push_back(fmt(
          "diagnose_fresh: request %llu differs from the reference of "
          "volume %llu",
          o.request, o.base));
    }
  }
}

std::uint64_t fresh_digest(std::vector<FreshOutcome> outcomes) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const FreshOutcome& a, const FreshOutcome& b) {
              return a.request < b.request;
            });
  std::uint64_t h = ccovid::kFnv1aOffset;
  for (const FreshOutcome& o : outcomes) {
    h = ccovid::fnv1a64(&o.request, sizeof o.request, h);
    h = ccovid::fnv1a64(&o.probability, sizeof o.probability, h);
    h = ccovid::fnv1a64(&o.burden, sizeof o.burden, h);
  }
  return h;
}

void check_rescan(const std::vector<std::vector<RescanOutcome>>& patients,
                  std::vector<std::string>& errors) {
  for (std::size_t p = 0; p < patients.size(); ++p) {
    const auto& seq = patients[p];
    std::map<std::uint64_t, Reference> first;  // scan -> computed bits
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const RescanOutcome& o = seq[i];
      if (!o.ok) {
        errors.push_back(fmt("rescan_sharded: patient %llu submission %llu "
                             "failed",
                             p, i + 1));
        continue;
      }
      if (o.seq != i + 1) {
        errors.push_back(fmt("rescan_sharded: patient %llu ordinal %llu "
                             "out of sequence",
                             p, o.seq));
      }
      auto [it, inserted] = first.emplace(o.scan, Reference{o.probability,
                                                            o.burden});
      if (!inserted && (!same_bits(o.probability, it->second.probability) ||
                        !same_bits(o.burden, it->second.burden))) {
        errors.push_back(fmt("rescan_sharded: patient %llu repeat of scan "
                             "%llu differs from its computed result",
                             p, o.scan));
      }
      const double prev = i == 0 ? o.burden : seq[i - 1].burden;
      const double base = seq.front().burden;
      if (!same_bits(o.burden_delta, o.burden - prev) ||
          !same_bits(o.baseline_delta, o.burden - base)) {
        errors.push_back(fmt("rescan_sharded: patient %llu ordinal %llu "
                             "delta differs from the subtraction",
                             p, o.seq));
      }
    }
  }
}

void check_train(const std::vector<std::uint64_t>& rank_param_digests,
                 const std::vector<double>& step_losses,
                 std::vector<std::string>& errors) {
  for (std::size_t r = 1; r < rank_param_digests.size(); ++r) {
    if (rank_param_digests[r] != rank_param_digests[0]) {
      errors.push_back(fmt("train_ddp: rank %llu parameters differ from "
                           "rank 0",
                           r));
    }
  }
  for (std::size_t s = 0; s < step_losses.size(); ++s) {
    if (!std::isfinite(step_losses[s])) {
      errors.push_back(fmt("train_ddp: step %llu loss is not finite", s));
    }
  }
  if (step_losses.empty()) errors.push_back("train_ddp: no step completed");
}

void check_metric_names(const std::vector<Metric>& metrics,
                        const std::vector<std::string>& required,
                        std::vector<std::string>& errors) {
  for (const std::string& name : required) {
    const bool found =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!found) errors.push_back("missing metric: " + name);
  }
}

int self_test() {
  int untripped = 0;
  auto expect = [&untripped](const char* what, bool clean_ok,
                             bool damaged_tripped) {
    std::printf("self-test %-28s clean %s, damaged %s\n", what,
                clean_ok ? "passes" : "FAILS", damaged_tripped ? "trips" : "DOES NOT TRIP");
    if (!clean_ok || !damaged_tripped) ++untripped;
  };

  {  // A flipped probability bit.
    const std::vector<Reference> refs = {{0.25, 0.125}, {0.75, 0.5}};
    std::vector<FreshOutcome> outs;
    for (std::uint64_t i = 0; i < 6; ++i) {
      outs.push_back({i, i % 2, true, refs[i % 2].probability,
                      refs[i % 2].burden});
    }
    std::vector<std::string> clean, damaged;
    check_fresh(outs, refs, clean);
    std::uint64_t bits;
    std::memcpy(&bits, &outs[3].probability, sizeof bits);
    bits ^= 1;  // lowest mantissa bit
    std::memcpy(&outs[3].probability, &bits, sizeof bits);
    check_fresh(outs, refs, damaged);
    expect("flipped probability bit", clean.empty(), !damaged.empty());
  }

  {  // A dropped rescan ordinal.
    std::vector<RescanOutcome> seq;
    const double burdens[] = {0.1, 0.2, 0.1, 0.3, 0.2};
    const std::uint64_t scans[] = {0, 1, 0, 2, 1};
    for (std::size_t i = 0; i < 5; ++i) {
      RescanOutcome o;
      o.scan = scans[i];
      o.ok = true;
      o.hit = i == 2 || i == 4;
      o.seq = i + 1;
      o.probability = 0.5 + 0.1 * static_cast<double>(scans[i]);
      o.burden = burdens[i];
      o.burden_delta = i == 0 ? 0.0 : burdens[i] - burdens[i - 1];
      o.baseline_delta = i == 0 ? 0.0 : burdens[i] - burdens[0];
      seq.push_back(o);
    }
    std::vector<std::string> clean, damaged;
    check_rescan({seq}, clean);
    seq.erase(seq.begin() + 2);
    check_rescan({seq}, damaged);
    const bool named = std::any_of(
        damaged.begin(), damaged.end(), [](const std::string& e) {
          return e.find("out of sequence") != std::string::npos;
        });
    expect("dropped rescan ordinal", clean.empty(), named);
  }

  {  // A missing metric name.
    std::vector<Metric> metrics = {{"setup_s", 1.0, "s"},
                                   {"latency_p50_ms", 2.0, "ms"}};
    const std::vector<std::string> required = {"setup_s", "latency_p50_ms"};
    std::vector<std::string> clean, damaged;
    check_metric_names(metrics, required, clean);
    metrics.pop_back();
    check_metric_names(metrics, required, damaged);
    expect("missing metric name", clean.empty(), !damaged.empty());
  }

  {  // Ranks that diverged, and a non-finite loss.
    std::vector<std::string> clean, diverged, nan_loss;
    check_train({7, 7}, {0.5, 0.25}, clean);
    check_train({7, 8}, {0.5, 0.25}, diverged);
    check_train({7, 7}, {0.5, std::nan("")}, nan_loss);
    expect("diverged ranks / nan loss", clean.empty(),
           !diverged.empty() && !nan_loss.empty());
  }
  return untripped;
}

}  // namespace perfbench
