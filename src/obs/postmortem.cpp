#include "sessmpi/obs/postmortem.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::obs {

namespace {

struct SectionEntry {
  std::string name;
  PostmortemSectionFn fn;
};

/// Sections keyed by token. Tokens only grow, so key order is registration
/// order, and unregistering one section costs O(log sections), not a scan.
using SectionMap = std::map<int, SectionEntry>;

struct PmState {
  std::mutex mu;  ///< guards sections, next_token, dir
  SectionMap sections;
  int next_token = 1;
  std::string dir;
  std::atomic<bool> dumped{false};
};

PmState& pm() {
  static PmState s;
  return s;
}

/// Manifest strings are identifiers we control, but a stray quote must not
/// corrupt the line-oriented JSON the tool scans.
std::string sanitized(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back((c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                      ? '_'
                      : c);
  }
  return out;
}

void write_manifest(std::ostream& os, const std::string& reason,
                    std::size_t trace_files, std::uint64_t evicted,
                    const SectionMap& sections) {
  os << "{\"postmortem\": {\"reason\": \"" << sanitized(reason)
     << "\", \"trace_files\": " << trace_files
     << ", \"evicted\": " << evicted << "},\n";
  os << "\"counters\": ";
  base::counters().print_json(os);
  os << ",\n";
  os << "\"gauges\": {";
  bool first = true;
  for (const PvarDesc& d : pvar_list()) {
    if (d.cls != PvarClass::gauge) continue;
    if (auto v = pvar_read_gauge(d.name)) {
      os << (first ? "" : ", ") << "\"" << d.name << "\": " << *v;
      first = false;
    }
  }
  os << "},\n";
  os << "\"histograms\": [\n";
  first = true;
  for (const PvarDesc& d : pvar_list()) {
    if (d.cls != PvarClass::histogram) continue;
    auto h = pvar_read_histogram(d.name);
    if (!h || h->count == 0) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << d.name << "\",\"count\":" << h->count
       << ",\"min\":" << h->min << ",\"max\":" << h->max
       << ",\"mean\":" << h->mean << ",\"p50\":" << h->p50
       << ",\"p90\":" << h->p90 << ",\"p99\":" << h->p99 << "}";
  }
  os << "\n],\n";
  os << "\"sections\": [\n";
  first = true;
  for (const auto& [token, s] : sections) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << sanitized(s.name) << "\",\"data\":";
    try {
      s.fn(os);
    } catch (...) {
      os << "{\"error\":\"section threw\"}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace

int register_postmortem_section(const std::string& name,
                                PostmortemSectionFn fn) {
  PmState& s = pm();
  std::lock_guard lk(s.mu);
  const int token = s.next_token++;
  s.sections.emplace(token, SectionEntry{name, std::move(fn)});
  return token;
}

void unregister_postmortem_section(int token) {
  PmState& s = pm();
  std::lock_guard lk(s.mu);
  s.sections.erase(token);
}

std::string dump_postmortem(const std::string& dir,
                            const std::string& reason) {
  Tracer& tracer = Tracer::instance();
  const bool was_enabled = tracer.freeze();
  std::string manifest_path;
  try {
    const auto events = tracer.collect();
    const std::uint64_t evicted = tracer.evicted();
    std::filesystem::create_directories(dir);
    const auto paths = write_rank_traces(dir, "postmortem", events);
    // Snapshot the section list, then run the callbacks without the
    // registry lock: they take subsystem locks of their own.
    SectionMap sections;
    {
      PmState& s = pm();
      std::lock_guard lk(s.mu);
      sections = s.sections;
    }
    const std::string path =
        (std::filesystem::path(dir) / "postmortem.json").string();
    std::ofstream os(path, std::ios::trunc);
    if (os) {
      write_manifest(os, reason, paths.size(), evicted, sections);
      if (os.good()) manifest_path = path;
    }
  } catch (...) {
    // A failing dump must never turn a recoverable failure into a crash.
  }
  tracer.thaw(was_enabled);
  return manifest_path;
}

void trigger_postmortem(const char* reason) {
  std::string dir = postmortem_dir();
  if (dir.empty()) return;
  if (pm().dumped.exchange(true)) {
    // The first failure is the one worth freezing the world for; the
    // cascade that follows (revoke storm, sweep of dead peers) is noise.
    base::counters().add("obs.postmortem.suppressed");
    return;
  }
  base::counters().add("obs.postmortem.dumps");
  dump_postmortem(dir, reason != nullptr ? reason : "unknown");
}

void set_postmortem_dir(const std::string& dir) {
  PmState& s = pm();
  std::lock_guard lk(s.mu);
  s.dir = dir;
}

std::string postmortem_dir() {
  PmState& s = pm();
  std::lock_guard lk(s.mu);
  return s.dir;
}

void reset_postmortem_for_testing() {
  pm().dumped.store(false, std::memory_order_relaxed);
}

}  // namespace sessmpi::obs
