// Command-line handling shared by the ppstats tools, and the serving
// loop of the two that host a service. Every flag takes its value as
// the next argument or after '=' (`--rows 100` is `--rows=100`). A
// numeric value must be all decimal digits and fit its type:
// `--io-deadline-ms 5x` is a usage error, not 5.

#ifndef PPSTATS_TOOLS_CLI_H_
#define PPSTATS_TOOLS_CLI_H_

#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

#include "core/service_host.h"

namespace ppstats::cli {

/// Parses `text` into *out; false (*out untouched) unless `text` is one
/// or more decimal digits and fits T.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  auto [parsed_end, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && parsed_end == end;
}

/// Walks argv one flag at a time: `for (cli::Args args(argc, argv);
/// args.Next();)`, then one matcher per flag, ending in a usage error
/// when none matches.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Moves to the next unread argument; false past the last one.
  bool Next() { return ++i_ < argc_; }

  /// Matches `--flag v` or `--flag=v` and consumes it. A number type
  /// takes only a well-formed number (ParseNumber); anything else in
  /// its place does not match.
  template <typename T>
  bool Value(const char* flag, T* out) {
    const char* arg = argv_[i_];
    const size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0) return false;
    const bool inline_value = arg[len] == '=';
    if (!inline_value && (arg[len] != '\0' || i_ + 1 >= argc_)) return false;
    if (!Store(inline_value ? arg + len + 1 : argv_[i_ + 1], out)) {
      return false;
    }
    if (!inline_value) ++i_;
    return true;
  }

  /// Matches a flag that takes no value.
  bool Switch(const char* flag) const {
    return std::strcmp(argv_[i_], flag) == 0;
  }

 private:
  static bool Store(const char* value, std::string* out) {
    *out = value;
    return true;
  }
  template <typename T>
  static bool Store(const char* value, T* out) {
    return ParseNumber(value, out);
  }

  int argc_;
  char** argv_;
  int i_ = 0;
};

inline volatile std::sig_atomic_t stop_requested = 0;

/// Starts `host` on `uri`, prints "<verb> <columns> column(s) on <uri>"
/// and the "listening on <uri>" line scripts wait for, and serves until
/// SIGINT or SIGTERM. Then stops the host: in-flight sessions drain and
/// the final stats snapshot is written. Returns the exit code.
inline int Serve(ServiceHost& host, const std::string& uri, const char* verb,
                 size_t columns) {
  Status started = host.Start(uri);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  const std::string bound = host.bound_uri();
  std::printf("%s %zu column(s) on %s\n", verb, columns, bound.c_str());
  std::printf("listening on %s\n", bound.c_str());
  std::fflush(stdout);
  auto request_stop = [](int) { stop_requested = 1; };
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  while (!stop_requested) pause();  // pause() returns on each signal
  host.Stop();
  return 0;
}

}  // namespace ppstats::cli

#endif  // PPSTATS_TOOLS_CLI_H_
