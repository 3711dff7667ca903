#include "sessmpi/pmix/datastore.hpp"


namespace sessmpi::pmix {

void Datastore::put(ProcId proc, const std::string& key, Value value) {
  std::lock_guard lock(mu_);
  staged_[proc][key] = std::move(value);
}

std::size_t Datastore::commit(ProcId proc) {
  std::size_t published = 0;
  {
    std::lock_guard lock(mu_);
    auto it = staged_.find(proc);
    if (it == staged_.end()) {
      return 0;
    }
    for (auto& [key, value] : it->second) {
      published_[proc][key] = std::move(value);
      ++published;
    }
    staged_.erase(it);
  }
  word_.notify();
  return published;
}

std::optional<Value> Datastore::get_immediate(ProcId proc,
                                              const std::string& key) {
  std::lock_guard lock(mu_);
  auto pit = published_.find(proc);
  if (pit == published_.end()) {
    return std::nullopt;
  }
  auto kit = pit->second.find(key);
  if (kit == pit->second.end()) {
    return std::nullopt;
  }
  return kit->second;
}

std::optional<Value> Datastore::get(ProcId proc, const std::string& key,
                                    base::Nanos timeout,
                                    const std::function<bool()>& abandon) {
  std::optional<Value> v;
  base::wait_until(
      word_,
      [&] {
        return (v = get_immediate(proc, key)).has_value() ||
               (abandon && abandon());
      },
      base::now_ns() + timeout.count());
  return v;
}

void Datastore::purge(ProcId proc) {
  {
    std::lock_guard lock(mu_);
    staged_.erase(proc);
    published_.erase(proc);
  }
  word_.notify();  // the failure notice: lookups of `proc` give up
}

std::size_t Datastore::published_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [proc, keys] : published_) {
    n += keys.size();
  }
  return n;
}

}  // namespace sessmpi::pmix
