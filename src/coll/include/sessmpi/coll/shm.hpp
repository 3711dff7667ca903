#pragma once

// On-node single-copy data movement for the collective engine (DESIGN.md
// §13). Ranks are threads inside one OS process (sim substitution for the
// XPMEM/shm segments an XHC-style component maps on real hardware), so a
// writer can expose its *own* buffer and every on-node reader consumes it
// directly — no per-edge deep copy, no bounce buffer.
//
// Release protocol per slot (schedule steps poll it; a waiting rank parks
// on its own wake word, which the region notifies: a publish wakes the
// other members, a release the slot's writer, a poison everyone):
//   publish:  once readers_left == 0 (previous ordinal drained), write
//             src/bytes plainly, store the reader count, then release-store
//             the ordinal into seq.
//   read:     once an acquire load of seq shows the wanted ordinal (which
//             orders the plain src/bytes reads), enter (increment inside),
//             confirm seq still shows it, read through src, leave
//             (release-decrement inside), then release-decrement
//             readers_left.
//   The writer's next publish (or an explicit drain before returning a
//   user buffer or freeing scratch) waits for readers_left == 0, which
//   orders every reader's copies before buffer reuse.
//   abort:    a writer that gives up withdraws its ordinal from seq, so no
//             reader starts on it, then waits until inside == 0, so none
//             is still in its buffer when the caller gets it back. Both
//             sides order enter/confirm and withdraw/check seq_cst:
//             either the reader sees the withdrawal or the writer sees
//             the reader inside.
//
// Ordinals are (coll_seq + 1) * kOpStride + step. A reader waits for its
// exact ordinal: overlapping nonblocking collectives may publish on one
// slot out of operation order, and the writer cannot move past an ordinal
// before every reader of it released the slot.
//
// Poisoning is sticky: every cause (peer death, revoke, cluster abort, an
// exception escaping a user reduction op) is terminal for the communicator
// in the ULFM model, so once a region is poisoned all later waits on it
// fail fast instead of polling state a bailed writer will never set.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/wait.hpp"

namespace sessmpi::coll {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> seq{0};       ///< last published ordinal
  std::atomic<std::uint32_t> readers_left{0};
  std::atomic<std::uint32_t> inside{0};    ///< readers in src right now
  const std::byte* src = nullptr;          ///< writer's buffer, read in place
  std::size_t bytes = 0;                   ///< payload (or slice stride)
};

/// One shared region per (node, communicator): a slot pair per on-node
/// member. Channel 0 carries member data publications, channel 1 the
/// fan-out/release publications, so a fan-in and the following fan-out
/// never contend for one slot.
class NodeShared {
 public:
  static constexpr int kChannels = 2;
  static constexpr std::uint64_t kOpStride = 256;

  /// `words`: each member's wake word (its inbox word), by slot.
  explicit NodeShared(std::vector<base::WaitWord*> words)
      : slots_(words.size() * kChannels), words_(std::move(words)) {}

  [[nodiscard]] Slot& slot(int member, int channel) {
    return slots_[static_cast<std::size_t>(member) * kChannels +
                  static_cast<std::size_t>(channel)];
  }

  /// First poisoner wins; later causes keep the original class.
  void poison(ErrClass cls) {
    int expected = 0;
    poison_.compare_exchange_strong(expected, static_cast<int>(cls),
                                    std::memory_order_release,
                                    std::memory_order_relaxed);
    wake_others(-1);
  }
  [[nodiscard]] ErrClass poisoned() const noexcept {
    return static_cast<ErrClass>(poison_.load(std::memory_order_acquire));
  }

  /// Wake the member in slot `member` (after releasing its publication).
  void wake(int member) { words_[static_cast<std::size_t>(member)]->notify(); }
  /// Wake every member but `self` (after a publish; -1: everyone).
  void wake_others(int self) {
    for (std::size_t m = 0; m < words_.size(); ++m) {
      if (static_cast<int>(m) != self) {
        words_[m]->notify();
      }
    }
  }

 private:
  std::vector<Slot> slots_;
  std::vector<base::WaitWord*> words_;
  std::atomic<int> poison_{0};  ///< 0 (= ErrClass::success) while healthy
};

}  // namespace sessmpi::coll
