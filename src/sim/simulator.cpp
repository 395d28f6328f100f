#include "sim/simulator.h"

#include <stdexcept>

namespace pnut {

namespace {

BatchOptions one_lane(const SimOptions& options) {
  BatchOptions out;
  out.base_seed = options.seed;
  out.start_time = options.start_time;
  out.max_immediate_firings_per_instant = options.max_immediate_firings_per_instant;
  return out;
}

std::shared_ptr<const CompiledNet> checked(std::shared_ptr<const CompiledNet> net) {
  if (!net) throw std::invalid_argument("Simulator: null CompiledNet");
  return net;
}

}  // namespace

Simulator::Simulator(const Net& net, SimOptions options)
    : Simulator(CompiledNet::compile(net), options) {}

Simulator::Simulator(std::shared_ptr<const CompiledNet> net, SimOptions options)
    : batch_(checked(std::move(net)), 1, one_lane(options)) {
  batch_.reset_lane(0, state_, /*reseed=*/true);
}

void Simulator::reset(std::optional<std::uint64_t> seed) {
  if (seed) batch_.set_seed(0, *seed);
  batch_.reset_lane(0, state_, seed.has_value());
}

StopReason Simulator::run_until(Time t, std::optional<std::uint64_t> max_events) {
  return batch_.advance_lane(0, state_, t, max_events);
}

StopReason Simulator::run_for(Time duration, std::optional<std::uint64_t> max_events) {
  return run_until(state_.now + duration, max_events);
}

void Simulator::finish() {
  if (TraceSink* sink = batch_.sinks_[0]) sink->end(state_.now);
}

const Marking& Simulator::marking() const {
  marking_ = Marking::from_tokens(batch_.marking_m_);
  return marking_;
}

const DataContext& Simulator::data() const {
  data_ = batch_.program_
              ? batch_.program_->schema().to_context(
                    DataFrame{batch_.frame_vals_m_, batch_.frame_pres_m_})
              : compiled().net().initial_data();
  return data_;
}

}  // namespace pnut
