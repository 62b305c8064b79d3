#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void JsonObject::num(const std::string& key, double v) {
  if (!std::isfinite(v)) {
    fields_.emplace_back(key, "null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(key, buf);
}

void JsonObject::integer(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonObject::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}

void JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, "\"" + json_escape(v) + "\"");
}

void JsonObject::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  return out + "}";
}

double completed_in_window(const std::vector<Interval>& v, double seconds) {
  double done = 0.0;
  for (const Interval& r : v) {
    if (r.t1 <= seconds) {
      done += 1.0;
    } else if (r.t0 < seconds && r.t1 > r.t0) {
      done += (seconds - r.t0) / (r.t1 - r.t0);
    }
  }
  return done;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
