// Task descriptors, serialization, and the function registry.
#include <gtest/gtest.h>

#include "core/task.hpp"
#include "core/task_registry.hpp"

namespace sws::core {
namespace {

struct Args3 {
  std::uint32_t a, b, c;
};

TEST(Task, OfPodRoundTrips) {
  const Task t = Task::of(7, Args3{1, 2, 3});
  EXPECT_EQ(t.fn(), 7u);
  EXPECT_EQ(t.payload_len(), sizeof(Args3));
  const Args3 back = t.payload_as<Args3>();
  EXPECT_EQ(back.a, 1u);
  EXPECT_EQ(back.b, 2u);
  EXPECT_EQ(back.c, 3u);
}

TEST(Task, EmptyPayload) {
  const Task t(3, nullptr, 0);
  EXPECT_EQ(t.payload_len(), 0u);
  EXPECT_EQ(t.serialized_bytes(), kTaskHeaderBytes);
}

TEST(Task, SerializeDeserializeRoundTrips) {
  const Task t = Task::of(42, Args3{9, 8, 7});
  std::byte slot[64];
  t.serialize(slot, sizeof(slot));
  const Task back = Task::deserialize(slot, sizeof(slot));
  EXPECT_EQ(back.fn(), 42u);
  EXPECT_EQ(back.payload_as<Args3>().c, 7u);
}

TEST(Task, SerializeIntoMinimalSlot) {
  const Task t = Task::of(1, std::uint32_t{5});
  std::byte slot[kTaskHeaderBytes + 4];
  t.serialize(slot, sizeof(slot));
  EXPECT_EQ(Task::deserialize(slot, sizeof(slot)).payload_as<std::uint32_t>(),
            5u);
}

TEST(Task, OversizedPayloadRejected) {
  std::byte big[kMaxTaskPayload + 1];
  EXPECT_THROW(Task(0, big, sizeof(big)), std::invalid_argument);
}

TEST(Task, SerializeTooSmallSlotAborts) {
  const Task t = Task::of(0, Args3{1, 2, 3});
  std::byte slot[8];
  EXPECT_DEATH(t.serialize(slot, sizeof(slot)), "fit");
}

TEST(Task, DeserializeCorruptSlotAborts) {
  std::byte slot[16];
  const std::uint32_t fn = 0, len = 9999;  // len > slot
  std::memcpy(slot, &fn, 4);
  std::memcpy(slot + 4, &len, 4);
  EXPECT_DEATH(Task::deserialize(slot, sizeof(slot)), "corrupt");
}

TEST(Registry, RegisterAndLookup) {
  TaskRegistry reg;
  const TaskFnId id = reg.register_fn(
      "t", [](Worker&, std::span<const std::byte>) {});
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(static_cast<bool>(reg.fn(id)));
}

TEST(Registry, IdsAreSequential) {
  TaskRegistry reg;
  const auto a = reg.register_fn("a", [](Worker&, std::span<const std::byte>) {});
  const auto b = reg.register_fn("b", [](Worker&, std::span<const std::byte>) {});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
}

TEST(Registry, DuplicateNameThrows) {
  TaskRegistry reg;
  reg.register_fn("x", [](Worker&, std::span<const std::byte>) {});
  EXPECT_THROW(reg.register_fn("x", [](Worker&, std::span<const std::byte>) {}),
               std::invalid_argument);
}

TEST(Registry, NullFunctionRejected) {
  TaskRegistry reg;
  EXPECT_THROW(reg.register_fn("n", TaskFn{}), std::invalid_argument);
}

}  // namespace
}  // namespace sws::core
