#include "bench.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "sessmpi/obs/tvar.hpp"

namespace stackbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> worst_rank(const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out;
  for (const auto& samples : per_rank) {
    if (out.size() < samples.size()) {
      out.resize(samples.size(), 0.0);
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out[i] = std::max(out[i], samples[i]);
    }
  }
  return out;
}

std::vector<double> after(const std::vector<double>& v, std::size_t skip) {
  if (skip >= v.size()) {
    return {};
  }
  return {v.begin() + static_cast<std::ptrdiff_t>(skip), v.end()};
}

long proc_status(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

ThreadWatch& ThreadWatch::instance() {
  static ThreadWatch w;
  return w;
}

void ThreadWatch::sample() noexcept {
  // A thread that was just joined can still be counted while the kernel
  // finishes its exit, so a count over the budget is re-read until it
  // settles; only a thread that persists is a real one.
  static const long budget = sysconf(_SC_NPROCESSORS_ONLN) + 1;
  long now = proc_status("Threads");
  for (int i = 0; i < 50 && now > budget; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    now = std::min(now, proc_status("Threads"));
  }
  long prev = peak_.load(std::memory_order_relaxed);
  while (now > prev &&
         !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

std::uint64_t counter(const char* name) {
  return obs::pvar_read_counter(name).value_or(0);
}

std::string sig(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

void Report::e2e(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& what) {
  lines_.push_back(name + " = " + sig(value) + " " + unit + "  [" + what +
                   ", n=" + std::to_string(samples) + "]");
  if (!trace_) {
    metrics_[name] = {value, unit};
  }
}

void Report::e2e_blocks(const std::string& name,
                        const std::vector<double>& blocks,
                        const std::string& unit, std::size_t samples,
                        const std::string& what) {
  e2e(name, quantile(blocks, 0.5), unit, samples,
      what + "; median of " + std::to_string(blocks.size()) + " blocks");
  std::string text = "    blocks:";
  if (blocks.size() <= 40) {
    for (double v : blocks) {
      text.append(" ").append(sig(v));
    }
  } else {
    text.append(" min ").append(sig(quantile(blocks, 0.0)));
    text.append(" q25 ").append(sig(quantile(blocks, 0.25)));
    text.append(" q75 ").append(sig(quantile(blocks, 0.75)));
    text.append(" max ").append(sig(quantile(blocks, 1.0)));
  }
  lines_.push_back(text);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& base) {
  lines_.push_back(name + " = " + sig(value) + " " + unit + "  [" + base + "]");
  if (trace_) {
    metrics_[name] = {value, unit};
  }
}

void Report::line(const std::string& text) { lines_.push_back(text); }

void Report::merge(const Tally& t) {
  tally_.attempted += t.attempted;
  tally_.failed += t.failed;
  if (tally_.first_failure.empty() && !t.first_failure.empty()) {
    tally_.first_failure = t.first_failure;
  }
}

void Report::fail(const std::string& why) {
  ++tally_.attempted;
  ++tally_.failed;
  lines_.push_back("FAILED: " + why);
  if (tally_.first_failure.empty()) {
    tally_.first_failure = why;
  }
}

int Report::finish() {
  for (auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) {
      fail("metric " + name + " is not finite");
      m.value = 0;
    }
  }
  const double ratio =
      tally_.attempted == 0
          ? 0.0
          : static_cast<double>(tally_.failed) /
                static_cast<double>(tally_.attempted);
  lines_.push_back("ops_failed_ratio = " + fmt(ratio, 6) + " ratio  [" +
                   std::to_string(tally_.failed) + " failed of " +
                   std::to_string(tally_.attempted) + " attempted]");
  if (!tally_.first_failure.empty()) {
    lines_.push_back("first failure: " + tally_.first_failure);
  }
  for (const auto& l : lines_) {
    std::cout << l << "\n";
  }
  const bool correct = tally_.failed == 0 && tally_.attempted > 0;
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(tally_.attempted, 1)
     << ", \"failed\": " << tally_.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace stackbench
