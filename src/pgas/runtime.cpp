#include "pgas/runtime.hpp"

#include <exception>

#include "common/assert.hpp"

namespace sws::pgas {

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(cfg), time_(cfg_.npes), metrics_(cfg_.npes) {
  SWS_CHECK(cfg_.npes > 0, "npes must be positive");
  // Reject conflicting topology / link-table specs up front: every layer
  // (cost model, victim selection, fault presets) reads the same
  // NetworkParams::topology, so a bad spec must not get as far as a run.
  cfg_.net.validate(cfg_.npes);
  fabric_ = std::make_unique<net::Fabric>(time_, cfg_.net, cfg_.npes);
  heap_ = std::make_unique<SymmetricHeap>(cfg_.npes, cfg_.heap_bytes);
  for (int pe = 0; pe < cfg_.npes; ++pe)
    fabric_->register_arena(pe, heap_->arena_base(pe), heap_->size());

  // Control space for collectives, allocated once up front.
  coll_.barrier_flags =
      heap_->alloc(sizeof(std::uint64_t) * CollectiveSpace::kMaxRounds, 64);
  coll_.reduce_slots = heap_->alloc(
      sizeof(std::uint64_t) * static_cast<std::size_t>(cfg_.npes), 64);
  coll_.reduce_result = heap_->alloc(sizeof(std::uint64_t), 8);
}

Runtime::~Runtime() = default;

void Runtime::run(const std::function<void(PeContext&)>& body) {
  fabric_->new_run();

  // Collective flags are generation counters that restart at 1 each run;
  // clear the persistent symmetric space so stale generations can't
  // satisfy the first barrier early. Reductions write their slots only on
  // PE 0 (the root), so only PE 0's P slots need clearing.
  heap_->zero(0, coll_.reduce_slots,
              sizeof(std::uint64_t) * static_cast<std::size_t>(cfg_.npes));
  for (int pe = 0; pe < cfg_.npes; ++pe) {
    heap_->zero(pe, coll_.barrier_flags,
                sizeof(std::uint64_t) * CollectiveSpace::kMaxRounds);
    heap_->zero(pe, coll_.reduce_result, sizeof(std::uint64_t));
  }

  // The first error is rethrown only after the run's accounting below.
  std::exception_ptr first_error;
  try {
    time_.run_pes(cfg_.npes, [this, &body](int pe) {
      try {
        PeContext ctx(*this, pe);
        body(ctx);
      } catch (const net::PeKilled&) {
        // A planned crash-stop (FaultPlan::crashes): this PE's execution
        // simply ends here. Not an error — survivors keep running and the
        // run completes over the surviving set.
      }
    });
  } catch (...) {
    first_error = std::current_exception();
  }

  net::Nanos max_t = 0;
  for (int pe = 0; pe < cfg_.npes; ++pe)
    max_t = std::max(max_t, time_.now(pe));
  last_duration_ = max_t;

  ++runs_;
  if (cfg_.metrics) {
    fabric_->publish_metrics(metrics_);
    // Whole-run values live on PE 0; the other PEs read 0.
    const auto on_pe0 = [this](std::uint64_t v) {
      std::vector<std::uint64_t> out(static_cast<std::size_t>(cfg_.npes));
      out[0] = v;
      return out;
    };
    metrics_.gauge("runtime.pe_clock_ns", "per-PE clock at end of run",
                   obs::per_pe(cfg_.npes,
                               [this](int pe) { return time_.now(pe); }));
    metrics_.gauge("runtime.last_run_duration_ns",
                   "max PE clock of the last run",
                   on_pe0(static_cast<std::uint64_t>(max_t)));
    metrics_.counter("runtime.runs", "completed run() calls", on_pe0(runs_));
    if (fabric_->crashes_planned())
      metrics_.gauge("runtime.deaths", "PEs dead at end of the last run",
                     on_pe0(static_cast<std::uint64_t>(fabric_->num_dead())));
    metrics_.gauge("runtime.sequencer_switches",
                   "PE-to-PE fiber handoffs in the last run",
                   on_pe0(time_.switches()));
  }

  if (first_error) std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------- context

PeContext::PeContext(Runtime& rt, int pe)
    : rt_(rt), pe_(pe) {}

int PeContext::npes() const noexcept { return rt_.npes(); }
net::Fabric& PeContext::fabric() noexcept { return rt_.fabric(); }
SymmetricHeap& PeContext::heap() noexcept { return rt_.heap(); }

net::Nanos PeContext::now() const { return rt_.time().now(pe_); }

void PeContext::compute(net::Nanos dt) {
  rt_.time().advance_local(pe_, dt,
                           [this] { return rt_.fabric().reach(pe_); });
  // A computing PE dies at the end of the slice that crosses its planned
  // crash time (no-op unless the plan schedules crashes).
  rt_.fabric().poll_crash(pe_);
}

void PeContext::pause(net::Nanos dt) {
  rt_.time().advance(pe_, dt);
  rt_.fabric().poll_crash(pe_);
}

std::byte* PeContext::local(SymPtr p, std::uint64_t delta) {
  return rt_.heap().local(pe_, p, delta);
}

std::uint64_t PeContext::local_load(SymPtr p) const {
  return *reinterpret_cast<const std::uint64_t*>(rt_.heap().local(pe_, p));
}

void PeContext::local_store(SymPtr p, std::uint64_t value) {
  *reinterpret_cast<std::uint64_t*>(rt_.heap().local(pe_, p)) = value;
}

}  // namespace sws::pgas
