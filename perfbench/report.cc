#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <thread>

#include "common/histogram.h"
#include "harness/json_util.h"

namespace perfbench {

namespace {

bool ValidName(const std::string& s) {
  if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& s) {
  if (s.empty() || s.size() > 16) {
    return false;
  }
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

}  // namespace

void MetricSet::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

bool MetricSet::Validate(std::string* error) const {
  std::set<std::string> seen;
  for (const Metric& m : metrics_) {
    if (!ValidName(m.name)) {
      *error = "invalid metric name '" + m.name + "'";
      return false;
    }
    if (!ValidUnit(m.unit)) {
      *error = "metric '" + m.name + "' has invalid unit '" + m.unit + "'";
      return false;
    }
    if (!std::isfinite(m.value)) {
      *error = "metric '" + m.name + "' is not finite";
      return false;
    }
    if (!seen.insert(m.name).second) {
      *error = "duplicate metric '" + m.name + "'";
      return false;
    }
  }
  return true;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ");
    out += "\"" + lcmp::json::JsonEscape(m.name) + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + lcmp::json::JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

Machine DescribeMachine() {
  Machine m;
  m.cores = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (m.cpu.empty()) {
    m.cpu = "unknown";
  }
#if defined(__clang__)
  m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m.compiler = std::string("gcc ") + __VERSION__;
#else
  m.compiler = "unknown";
#endif
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

std::string MachineJson(const Machine& m) {
  using lcmp::json::JsonEscape;
  return "{\"cores\": " + std::to_string(m.cores) + ", \"cpu\": \"" + JsonEscape(m.cpu) +
         "\", \"compiler\": \"" + JsonEscape(m.compiler) + "\", \"build_type\": \"" +
         JsonEscape(m.build_type) + "\"}";
}

double ReadPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoll(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) { return lcmp::json::FormatDouble(v); }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(const std::vector<double>& v, double p) {
  lcmp::SampleSet set;
  set.Reserve(v.size());
  for (double x : v) {
    set.Add(x);
  }
  return set.Percentile(p);
}

}  // namespace perfbench
