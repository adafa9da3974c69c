// One lane of model::TestModel::transition_batch, for tests that ask a model
// about a single (state, input) pair. The seam answers transitions only in
// batches; these wrappers spell out the one-lane call.
#pragma once

#include <cstdint>
#include <optional>

#include "model/test_model.hpp"

namespace simcov {

/// Successor and output of `state` under `input`; nullopt in both when the
/// input is invalid there.
struct OneLane {
  std::optional<std::uint64_t> next;
  std::optional<std::uint64_t> output;
};

inline OneLane one_lane(model::TestModel& model, std::uint64_t state,
                        std::uint64_t input) {
  OneLane lane;
  model.transition_batch({&state, 1}, {&input, 1}, {&lane.next, 1},
                         {&lane.output, 1});
  return lane;
}

}  // namespace simcov
