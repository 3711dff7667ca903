#include "ledger.hpp"

#include <cstring>
#include <unordered_map>

#include "sessmpi/obs/tvar.hpp"

namespace stackbench {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

std::string layer_of(const char* name, const char* cat) {
  if (std::strcmp(cat, "prte") == 0) {
    return "pmix";  // the runtime daemon is charged with the PMIx layer
  }
  if (std::strcmp(cat, "bench") != 0) {
    return cat;  // the stack's own spans carry their layer as category
  }
  if (starts_with(name, "call.")) {
    const char* layer = name + 5;
    const char* dot = std::strchr(layer, '.');
    return dot == nullptr ? std::string(layer) : std::string(layer, dot);
  }
  return "app";
}

struct Frame {
  const char* name;
  const char* cat;
  std::int64_t start;
  double child_ns;
  const char* root;
};

}  // namespace

double Ledger::p50_ns(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : quantile(it->second.dur_ns, 0.5);
}

std::size_t Ledger::count(const std::string& name) const {
  auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.dur_ns.size();
}

std::size_t Ledger::count_prefix(const std::string& prefix) const {
  std::size_t n = 0;
  for (const auto& [name, stat] : spans) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      n += stat.dur_ns.size();
    }
  }
  return n;
}

Ledger build_ledger(const std::vector<obs::Event>& events) {
  Ledger l;
  // Events of one (writer thread, rank) pair nest by stack order; collect()
  // sorts by timestamp stably, which keeps each ring's emission order.
  std::unordered_map<std::uint64_t, std::vector<Frame>> stacks;
  for (const obs::Event& ev : events) {
    if (ev.track < 0 || ev.name == nullptr || ev.cat == nullptr ||
        (ev.phase != obs::Phase::begin && ev.phase != obs::Phase::end)) {
      continue;
    }
    ++l.events;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ev.tid) << 32) |
        static_cast<std::uint32_t>(ev.track);
    auto& stack = stacks[key];
    if (ev.phase == obs::Phase::begin) {
      const bool root =
          std::strcmp(ev.cat, "bench") == 0 && starts_with(ev.name, "app.");
      if (root) {
        l.unmatched += stack.size();
        stack.clear();
        stack.push_back({ev.name, ev.cat, ev.ts_ns, 0.0, ev.name});
      } else if (!stack.empty()) {
        stack.push_back({ev.name, ev.cat, ev.ts_ns, 0.0, stack.back().root});
      }
      continue;
    }
    // End: pop to the matching begin; anything above it lost its end.
    std::size_t depth = stack.size();
    while (depth > 0 && std::strcmp(stack[depth - 1].name, ev.name) != 0) {
      --depth;
    }
    if (depth == 0) {
      ++l.unmatched;
      continue;
    }
    l.unmatched += stack.size() - depth;
    stack.resize(depth);
    const Frame f = stack.back();
    stack.pop_back();
    const double dur = static_cast<double>(ev.ts_ns - f.start);
    const double self = dur - f.child_ns;
    const std::string layer = layer_of(f.name, f.cat);
    Ledger::SpanStat& st = l.spans[f.name];
    st.layer = layer;
    st.dur_ns.push_back(dur);
    st.self_ns += self;
    l.self_by_root[f.root][layer] += self;
    if (!stack.empty()) {
      stack.back().child_ns += dur;
    } else {
      l.root_ns[f.root] += dur;
      ++l.root_count[f.root];
    }
  }
  for (const auto& [key, stack] : stacks) {
    l.unmatched += stack.size();
  }
  return l;
}

std::map<std::string, double> layer_shares(const Ledger& l,
                                           const std::string& excluded_root) {
  std::map<std::string, double> self;
  double total = 0;
  for (const auto& [root, layers] : l.self_by_root) {
    if (root == excluded_root) {
      continue;
    }
    for (const auto& [layer, ns] : layers) {
      self[layer] += ns;
      total += ns;
    }
  }
  std::map<std::string, double> out;
  for (const auto& layer : ledger_layers()) {
    out[layer] = total > 0 ? 100.0 * self[layer] / total : 0.0;
  }
  return out;
}

void print_ledger(const Ledger& l, Report& rep) {
  rep.line("--- self-time ledger (traced run; " + std::to_string(l.events) +
           " span events, " + std::to_string(l.unmatched) + " unmatched) ---");
  for (const auto& [root, layers] : l.self_by_root) {
    const double total = l.root_ns.count(root) ? l.root_ns.at(root) : 0.0;
    const std::uint64_t n = l.root_count.count(root) ? l.root_count.at(root) : 0;
    std::string text = root + ": " + fmt(total / 1e6, 3) + " ms over " +
                       std::to_string(n) + " rank-sections;";
    for (const auto& [layer, ns] : layers) {
      text += " " + layer + " " + fmt(total > 0 ? 100.0 * ns / total : 0.0, 1) +
              "%";
    }
    rep.line(text);
  }
  std::vector<std::pair<double, std::string>> by_self;
  for (const auto& [name, st] : l.spans) {
    by_self.emplace_back(st.self_ns, name);
  }
  std::sort(by_self.rbegin(), by_self.rend());
  rep.line("top spans by self time (name, layer, count, p50 duration, self total):");
  for (std::size_t i = 0; i < by_self.size() && i < 14; ++i) {
    const auto& st = l.spans.at(by_self[i].second);
    rep.line("  " + by_self[i].second + "  [" + st.layer + "]  n=" +
             std::to_string(st.dur_ns.size()) + "  p50=" +
             fmt(quantile(st.dur_ns, 0.5) / 1e3, 3) + " us  self=" +
             fmt(st.self_ns / 1e6, 3) + " ms");
  }
}

const std::vector<const char*>& TraceWindow::counters() {
  static const std::vector<const char*> names = {
      "sim.fiber_switches",     "fabric.acks",
      "fabric.retransmits",     "fabric.rto_escalations",
      "fabric.payload_copies",  "pml.match_bin_hits",
      "pml.wildcard_scans",     "pmix.modex_lazy_fetches",
      "pmix.modex_cache_hits",  "coll.shm_publishes",
      "coll.wire_sends",        "coll.payload_copies",
      "coll.plan_builds",       "ckpt.saves",
      "ckpt.redundancy_bytes",
  };
  return names;
}

std::uint64_t TraceWindow::delivered(fabric::Fabric* fab) {
  std::uint64_t n = 0;
  if (fab != nullptr) {
    for (int r = 0; r < fab->topology().size(); ++r) {
      n += fab->endpoint(r).delivered();
    }
  }
  return n;
}

void TraceWindow::open(fabric::Fabric* fab) {
  for (const char* name : counters()) {
    start_[name] = counter(name);
  }
  if (!opened_) {
    // The encode histogram has no delta form: start it empty once.
    obs::pvar_reset("ckpt.encode_ns");
    opened_ = true;
  }
  packets_start_ = delivered(fab);
}

void TraceWindow::close(fabric::Fabric* fab) {
  for (const char* name : counters()) {
    sum_[name] += counter(name) - start_[name];
  }
  packets_ += delivered(fab) - packets_start_;
}

std::uint64_t TraceWindow::delta(const std::string& name) const {
  auto it = sum_.find(name);
  return it == sum_.end() ? 0 : it->second;
}

}  // namespace stackbench
