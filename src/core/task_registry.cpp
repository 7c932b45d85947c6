#include "core/task_registry.hpp"

#include "common/assert.hpp"

namespace sws::core {

TaskFnId TaskRegistry::register_fn(std::string name, TaskFn fn) {
  SWS_CHECK(!by_name_.count(name), "duplicate task function name");
  SWS_CHECK(static_cast<bool>(fn), "null task function");
  const auto id = static_cast<TaskFnId>(fns_.size());
  fns_.push_back(std::move(fn));
  by_name_.emplace(std::move(name), id);
  return id;
}

const TaskFn& TaskRegistry::fn(TaskFnId id) const {
  SWS_ASSERT_MSG(id < fns_.size(), "unknown task function id");
  return fns_[id];
}

}  // namespace sws::core
