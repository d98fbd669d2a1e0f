// Shared instantiation of the value-parameterized host suites
// (ServiceHostTest, ServiceChaosTest, ClusterServiceTest,
// TransportTcpSessionTest). The host has a single session engine, the
// reactor; the suites keep a one-value instantiation so every case
// keeps its established name, Engines/<Suite>.<Case>/Reactor.

#ifndef PPSTATS_TESTS_HOST_SUITE_H_
#define PPSTATS_TESTS_HOST_SUITE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ppstats {

/// The suites' parameter: the engine every ServiceHost runs.
enum class HostEngine : uint8_t { kReactor = 1 };

}  // namespace ppstats

#define PPSTATS_INSTANTIATE_HOST_SUITE(suite)                         \
  INSTANTIATE_TEST_SUITE_P(                                           \
      Engines, suite, ::testing::Values(::ppstats::HostEngine::kReactor), \
      [](const ::testing::TestParamInfo<::ppstats::HostEngine>&) {    \
        return std::string("Reactor");                                \
      })

#endif  // PPSTATS_TESTS_HOST_SUITE_H_
