// Task function registry.
//
// Tasks carry a function *id*; the id → function mapping must be identical
// on every PE (SPMD registration order), mirroring how Scioto/SWS register
// task handlers before processing starts. The registry is immutable once
// the pool runs.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/task.hpp"

namespace sws::core {

class Worker;  // defined in scheduler.hpp

/// A task body: receives the executing worker (for spawning subtasks and
/// charging compute time) and its payload bytes.
using TaskFn = std::function<void(Worker&, std::span<const std::byte>)>;

class TaskRegistry {
 public:
  /// Register a handler under a unique name; returns its id.
  /// Registration must happen before the pool runs.
  TaskFnId register_fn(std::string name, TaskFn fn);

  const TaskFn& fn(TaskFnId id) const;
  std::size_t size() const noexcept { return fns_.size(); }

 private:
  std::vector<TaskFn> fns_;
  std::unordered_map<std::string, TaskFnId> by_name_;
};

}  // namespace sws::core
