#pragma once

// The modex datastore: per-process staged key/value pairs become globally
// visible after commit (PMIx_Put / PMIx_Commit semantics). Lookups of data
// from a remote process block (direct-modex style) until the value is
// published or the timeout expires.

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/pmix/value.hpp"

namespace sessmpi::pmix {

class Datastore {
 public:
  /// Stage a key/value pair for `proc`; not visible until commit(proc).
  void put(ProcId proc, const std::string& key, Value value);

  /// Publish all staged pairs for `proc`. Returns number published.
  std::size_t commit(ProcId proc);

  /// Blocking lookup with timeout (dmodex). Returns nullopt on timeout, or
  /// once `abandon()` holds after a lookup that missed. Commits and purges
  /// (the failure notice) re-check it.
  std::optional<Value> get(ProcId proc, const std::string& key,
                           base::Nanos timeout,
                           const std::function<bool()>& abandon = {});

  /// Non-blocking lookup.
  std::optional<Value> get_immediate(ProcId proc, const std::string& key);

  /// Drop all published and staged data for `proc` (process exit).
  void purge(ProcId proc);

  [[nodiscard]] std::size_t published_count() const;

 private:
  using KeyMap = std::map<std::string, Value>;
  mutable std::mutex mu_;
  base::WaitWord word_;  ///< notified by every commit and purge
  std::map<ProcId, KeyMap> staged_;
  std::map<ProcId, KeyMap> published_;
};

}  // namespace sessmpi::pmix
