#pragma once

/// \file fuzz.hpp
/// Seeded workload fuzzer (`drhw_sched genwork`): generates random but
/// well-formed .dwl files — layered DAGs, shared configuration ids,
/// DRHW/ISP mixes, variant latency jitter. Deterministic: one seed maps
/// to one byte sequence (the generator draws only from util/rng.hpp and
/// serialises through the canonical writer), which the determinism tests
/// and the CI fuzz-campaign lane pin.

#include <string>

#include "wio/workload_format.hpp"

namespace drhw {

struct FuzzWorkloadOptions {
  int tasks = 4;
  int min_nodes = 3;
  int max_nodes = 10;
  int variants = 2;           ///< scenario variants per task
  int configs = 16;           ///< shared configuration space
  double isp_fraction = 0.3;  ///< probability a node runs on the ISP
  std::uint64_t seed = 1;
};

/// Generates one random workload model. Always parseable and buildable:
/// edges only point forward, exec times are positive, every config id is
/// inside the declared space. Throws std::invalid_argument naming the
/// field when tasks, variants, configs or min_nodes is < 1, or when
/// max_nodes < min_nodes.
WorkloadFile fuzz_workload(const FuzzWorkloadOptions& options);

/// fuzz_workload + canonical serialisation. Byte-identical per seed.
std::string fuzz_workload_text(const FuzzWorkloadOptions& options);

}  // namespace drhw
