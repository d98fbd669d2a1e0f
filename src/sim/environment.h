// Execution environments: CPU-scaling + network presets that map our
// measurements onto the paper's 2004 testbeds.
//
// The paper ran on 2 GHz Pentium-III-class cluster nodes (short distance,
// Figures 2/4/5/7), and on a 500 MHz UltraSparc client talking to a 1 GHz
// Pentium server over dial-up (long distance, Figures 3/6). We measure
// compute time on today's hardware and multiply by a per-host calibration
// factor so the reported magnitudes land in the paper's range; the
// *relative* component breakdown and optimization gains are unaffected by
// the scaling (see DESIGN.md).

#ifndef PPSTATS_SIM_ENVIRONMENT_H_
#define PPSTATS_SIM_ENVIRONMENT_H_

#include <string>

#include "net/network_model.h"

namespace ppstats {

/// A complete experimental environment: two hosts plus the link.
struct ExecutionEnvironment {
  std::string name;
  double client_cpu_scale = 1.0;  ///< measured seconds -> environment seconds
  double server_cpu_scale = 1.0;
  NetworkModel network;

  /// Paper Figures 2/4/5/7/9: cluster nodes, high-performance switch.
  /// The CPU scales calibrate a modern core to the paper's 2 GHz P-III
  /// (~16x slower on modular exponentiation workloads). The client's is
  /// fitted to batched encryption, which runs eight lockstep lanes on
  /// AVX-512 IFMA hosts, so it is larger than the server's.
  static ExecutionEnvironment ShortDistance2004();

  /// Paper Figures 3/6: 500 MHz UltraSparc client (Chicago), 1 GHz
  /// Pentium server (Hoboken), 56 Kbps dial-up.
  static ExecutionEnvironment LongDistance2004();

  /// Today's hardware, LAN; no scaling.
  static ExecutionEnvironment Modern();
};

}  // namespace ppstats

#endif  // PPSTATS_SIM_ENVIRONMENT_H_
