#include "sessmpi/obs/sampler.hpp"

#include <chrono>
#include <fstream>
#include <utility>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::obs {

MetricsSampler& MetricsSampler::instance() {
  static MetricsSampler s;
  return s;
}

MetricsSampler::~MetricsSampler() { set_period_ms(0); }

void MetricsSampler::set_period_ms(int ms) {
  std::thread to_join;
  {
    std::lock_guard lk(ctl_mu_);
    period_ms_.store(ms, std::memory_order_relaxed);
    if (ms > 0 && !running_) {
      stop_.store(false, std::memory_order_relaxed);
      thread_ = std::thread([this] { run(); });
      running_ = true;
    } else if (ms == 0 && running_) {
      stop_.store(true, std::memory_order_relaxed);
      to_join = std::move(thread_);
      running_ = false;
    }
  }
  wake_.notify();
  if (to_join.joinable()) to_join.join();
}

void MetricsSampler::run() {
  while (true) {
    base::wait_until(
        wake_, [this] { return stop_.load(std::memory_order_relaxed); },
        base::now_ns() + std::int64_t{std::max(1, period_ms())} * 1'000'000);
    if (stop_.load(std::memory_order_relaxed)) return;
    sample_now();
  }
}

void MetricsSampler::sample_now() {
  MetricSample sample;
  sample.ts_ns = base::now_ns();
  for (const PvarDesc& d : pvar_list()) {
    switch (d.cls) {
      case PvarClass::counter:
        if (auto v = pvar_read_counter(d.name)) {
          sample.points.push_back({d.name, static_cast<double>(*v)});
        }
        break;
      case PvarClass::gauge:
        if (auto v = pvar_read_gauge(d.name)) {
          sample.points.push_back({d.name, static_cast<double>(*v)});
        }
        break;
      case PvarClass::histogram:
        if (auto h = pvar_read_histogram(d.name)) {
          sample.points.push_back(
              {d.name + ".count", static_cast<double>(h->count)});
          sample.points.push_back({d.name + ".p99", h->p99});
        }
        break;
    }
  }
  std::lock_guard lk(ring_mu_);
  ring_.push_back(std::move(sample));
  while (ring_.size() > kMaxSamples) ring_.pop_front();
}

std::vector<MetricSample> MetricsSampler::samples() const {
  std::lock_guard lk(ring_mu_);
  return {ring_.begin(), ring_.end()};
}

void MetricsSampler::clear() {
  std::lock_guard lk(ring_mu_);
  ring_.clear();
}

std::size_t MetricsSampler::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return 0;
  std::size_t lines = 0;
  for (const MetricSample& s : samples()) {
    os << "{\"ts_ns\": " << s.ts_ns << ", \"pvars\": {";
    bool first = true;
    for (const MetricPoint& p : s.points) {
      os << (first ? "" : ", ") << "\"" << p.name << "\": " << p.value;
      first = false;
    }
    os << "}}\n";
    ++lines;
  }
  return lines;
}

}  // namespace sessmpi::obs
