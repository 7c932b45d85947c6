// Portable task descriptors (paper §2.1).
//
// A task names a registered function plus an inline payload of POD state.
// Descriptors serialize into fixed-size queue slots:
//   [u32 fn_id][u32 payload_len][payload bytes ...]
// so they can be moved between PEs with plain one-sided copies. The slot
// size is a queue-configuration knob — the paper benchmarks 24-byte and
// 192-byte tasks (Fig 6) and 32/48-byte application tasks (Table 2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/assert.hpp"

namespace sws::core {

using TaskFnId = std::uint32_t;

inline constexpr std::uint32_t kTaskHeaderBytes = 8;
inline constexpr std::uint32_t kMaxTaskPayload = 248;

class Task {
 public:
  Task() = default;

  Task(TaskFnId fn, const void* payload, std::uint32_t payload_len)
      : fn_(fn), len_(payload_len) {
    SWS_CHECK(payload_len <= kMaxTaskPayload, "task payload too large");
    if (payload_len > 0) std::memcpy(buf_.data(), payload, payload_len);
  }

  /// Build a task whose payload is a trivially-copyable value.
  template <typename T>
  static Task of(TaskFnId fn, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "task payloads must be trivially copyable");
    static_assert(sizeof(T) <= kMaxTaskPayload, "payload type too large");
    return Task(fn, &value, sizeof(T));
  }

  TaskFnId fn() const noexcept { return fn_; }
  std::uint32_t payload_len() const noexcept { return len_; }
  std::span<const std::byte> payload() const noexcept {
    return {buf_.data(), len_};
  }

  /// Reinterpret the payload as a trivially-copyable value.
  template <typename T>
  T payload_as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    SWS_ASSERT_MSG(sizeof(T) == len_, "payload size mismatch");
    T out;
    std::memcpy(&out, buf_.data(), sizeof(T));
    return out;
  }

  /// Serialized footprint of this task.
  std::uint32_t serialized_bytes() const noexcept {
    return kTaskHeaderBytes + len_;
  }

  /// Write into a queue slot of `slot_bytes` (must fit).
  void serialize(std::byte* slot, std::uint32_t slot_bytes) const;

  /// Read back from a queue slot.
  static Task deserialize(const std::byte* slot, std::uint32_t slot_bytes);

 private:
  TaskFnId fn_ = 0;
  std::uint32_t len_ = 0;
  /// Left uninitialized: only [0, len_) is ever read, and zeroing all of
  /// it would cost more than a typical task's whole payload copy.
  std::array<std::byte, kMaxTaskPayload> buf_;
};

}  // namespace sws::core
