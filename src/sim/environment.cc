#include "sim/environment.h"

namespace ppstats {

ExecutionEnvironment ExecutionEnvironment::ShortDistance2004() {
  return ExecutionEnvironment{
      .name = "short-distance-2004",
      // Calibrated so that ~100,000 encryptions of a 512-bit-key index
      // vector take on the order of 20 minutes, as in the paper's Fig 2.
      // 208 = 32 (the server's factor, scalar modexp) x 6.5, the measured
      // speedup of batched 8-lane encryption over the scalar per-row path
      // (EXPERIMENTS.md): the 2004 client had no SIMD lanes.
      .client_cpu_scale = 208.0,
      .server_cpu_scale = 32.0,
      .network = NetworkModel::LanSwitch(),
  };
}

ExecutionEnvironment ExecutionEnvironment::LongDistance2004() {
  return ExecutionEnvironment{
      .name = "long-distance-2004",
      // 500 MHz UltraSparc client: slower still than the cluster nodes
      // (the paper observes computation > communication even at 56 Kbps).
      // 390 = 60 (scalar modexp) x the same 6.5 batched-encryption factor.
      .client_cpu_scale = 390.0,
      .server_cpu_scale = 30.0,  // 1 GHz Pentium server
      .network = NetworkModel::Modem56k(),
  };
}

ExecutionEnvironment ExecutionEnvironment::Modern() {
  return ExecutionEnvironment{
      .name = "modern",
      .client_cpu_scale = 1.0,
      .server_cpu_scale = 1.0,
      .network = NetworkModel::LanSwitch(),
  };
}

}  // namespace ppstats
