// Metric records and the machine description every benchmark output carries.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Ordered metric list. Names follow [A-Za-z0-9][A-Za-z0-9_.-]{0,63}, units
// [A-Za-z0-9_/%.-]{1,16}; Validate() enforces both and uniqueness.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  bool Validate(std::string* error) const;
  // {"<name>": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

struct Machine {
  unsigned cores = 0;
  std::string cpu;
  std::string compiler;
  std::string build_type;
};
Machine DescribeMachine();
std::string MachineJson(const Machine& m);

// Peak resident memory of this process so far (VmHWM), in MiB; 0 when the
// kernel does not report it.
double ReadPeakRssMb();

// Shortest round-trip rendering of a double (JSON number).
std::string Num(double v);
// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> v);
// Nearest-rank percentile of `v`, p in [0, 100]; 0 when empty.
double Percentile(const std::vector<double>& v, double p);

}  // namespace perfbench
