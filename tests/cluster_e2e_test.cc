// End-to-end cluster test over real processes: ppstats_coordinator in
// front of real ppstats_server shards, queried with ppstats_client, all
// speaking over sockets. Verifies the merged result is bit-for-bit the
// single-server answer, and the failure policies when a shard is
// SIGKILLed between queries.
//
// The tool binaries live next to each other in PPSTATS_TOOLS_BIN_DIR
// (a compile definition from tests/CMakeLists.txt).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace {

std::string ToolPath(const std::string& name) {
  return std::string(PPSTATS_TOOLS_BIN_DIR) + "/" + name;
}

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = std::string(::testing::TempDir()) + "/cluster_e2e_" +
                    tag + "_" + std::to_string(getpid()) + "_" +
                    std::to_string(counter++);
  EXPECT_EQ(mkdir(dir.c_str(), 0700), 0) << strerror(errno);
  return dir;
}

void WriteValuesFile(const std::string& path,
                     const std::vector<uint32_t>& values) {
  std::ofstream out(path, std::ios::trunc);
  for (uint32_t v : values) out << v << "\n";
  ASSERT_TRUE(out.good()) << path;
}

/// A spawned tool with its stdout captured through a pipe.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { Terminate(SIGTERM); }

  bool Spawn(const std::vector<std::string>& argv) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      close(fds[0]);
      dup2(fds[1], STDOUT_FILENO);
      dup2(fds[1], STDERR_FILENO);
      close(fds[1]);
      std::vector<char*> args;
      args.reserve(argv.size() + 1);
      for (const std::string& arg : argv) {
        args.push_back(const_cast<char*>(arg.c_str()));
      }
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(fds[1]);
    stdout_fd_ = fds[0];
    fcntl(stdout_fd_, F_SETFL, O_NONBLOCK);
    return true;
  }

  /// Accumulates the child's output until a line starting with `prefix`
  /// appears; returns the rest of that line, or "" on timeout/exit.
  std::string WaitForLine(const std::string& prefix, int timeout_ms = 15000) {
    while (true) {
      size_t line_start = 0;
      for (size_t i = 0; i < output_.size(); ++i) {
        if (output_[i] != '\n') continue;
        std::string line = output_.substr(line_start, i - line_start);
        line_start = i + 1;
        if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
      }
      struct pollfd pfd = {stdout_fd_, POLLIN, 0};
      int ready = poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return "";
      char buf[4096];
      ssize_t got = read(stdout_fd_, buf, sizeof(buf));
      if (got <= 0) return "";
      output_.append(buf, static_cast<size_t>(got));
    }
  }

  /// Drains remaining output and reaps the child; returns its exit code
  /// (or -signal when killed).
  int Wait() {
    if (pid_ < 0) return -1;
    while (true) {
      char buf[4096];
      struct pollfd pfd = {stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 15000) <= 0) break;
      ssize_t got = read(stdout_fd_, buf, sizeof(buf));
      if (got <= 0) break;
      output_.append(buf, static_cast<size_t>(got));
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    close(stdout_fd_);
    stdout_fd_ = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return -WTERMSIG(status);
    return -1;
  }

  void Terminate(int signo) {
    if (pid_ < 0) return;
    kill(pid_, signo);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  void Kill() { Terminate(SIGKILL); }

  pid_t pid() const { return pid_; }
  const std::string& output() const { return output_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string output_;
};

/// Runs ppstats_client to completion; returns its exit code and output.
int RunClient(const std::vector<std::string>& extra_args,
              const std::string& key_path, const std::string& uri,
              size_t rows, const std::vector<std::string>& selects,
              std::string* output) {
  std::vector<std::string> argv = {ToolPath("ppstats_client"),
                                   "--key",     key_path,
                                   "--connect", uri,
                                   "--rows",    std::to_string(rows),
                                   "--seed",    "99"};
  for (const std::string& select : selects) {
    argv.push_back("--select");
    argv.push_back(select);
  }
  argv.insert(argv.end(), extra_args.begin(), extra_args.end());
  ChildProcess client;
  if (!client.Spawn(argv)) return -1;
  int code = client.Wait();
  *output = client.output();
  return code;
}

class ClusterE2eTest : public ::testing::Test {
 protected:
  /// keygen + per-shard value files; values[i] = 3i + 1 over `rows`.
  void SetUpCluster(const std::string& tag, size_t shards,
                    size_t rows_per_shard) {
    dir_ = UniqueDir(tag);
    rows_ = shards * rows_per_shard;
    std::vector<uint32_t> all;
    for (size_t i = 0; i < rows_; ++i) {
      all.push_back(static_cast<uint32_t>(3 * i + 1));
    }
    WriteValuesFile(dir_ + "/all.txt", all);
    for (size_t s = 0; s < shards; ++s) {
      WriteValuesFile(
          dir_ + "/shard" + std::to_string(s) + ".txt",
          std::vector<uint32_t>(all.begin() + s * rows_per_shard,
                                all.begin() + (s + 1) * rows_per_shard));
    }

    ChildProcess keygen;
    ASSERT_TRUE(keygen.Spawn({ToolPath("ppstats_keygen"), "--bits", "256",
                              "--out", dir_ + "/key", "--seed", "7"}));
    ASSERT_EQ(keygen.Wait(), 0) << keygen.output();
    key_path_ = dir_ + "/key.priv";

    shard_uris_.clear();
    shard_servers_.clear();
    for (size_t s = 0; s < shards; ++s) {
      auto server = std::make_unique<ChildProcess>();
      ASSERT_TRUE(server->Spawn(
          {ToolPath("ppstats_server"), "--db",
           "v=" + dir_ + "/shard" + std::to_string(s) + ".txt", "--listen",
           "tcp:127.0.0.1:0"}));
      std::string uri = server->WaitForLine("listening on ");
      ASSERT_FALSE(uri.empty()) << "shard " << s << " never came up:\n"
                                << server->output();
      shard_uris_.push_back(uri);
      shard_servers_.push_back(std::move(server));
    }
  }

  std::vector<std::string> MapArgs(size_t rows_per_shard) const {
    std::vector<std::string> args;
    for (size_t s = 0; s < shard_uris_.size(); ++s) {
      args.push_back("--map");
      args.push_back("v=" + std::to_string(s * rows_per_shard) + "-" +
                     std::to_string((s + 1) * rows_per_shard) + "@" +
                     shard_uris_[s]);
    }
    return args;
  }

  std::string StartCoordinator(ChildProcess* coordinator,
                               std::vector<std::string> extra_args,
                               size_t rows_per_shard) {
    std::vector<std::string> argv = {ToolPath("ppstats_coordinator"),
                                     "--listen", "tcp:127.0.0.1:0"};
    std::vector<std::string> maps = MapArgs(rows_per_shard);
    argv.insert(argv.end(), maps.begin(), maps.end());
    argv.insert(argv.end(), extra_args.begin(), extra_args.end());
    EXPECT_TRUE(coordinator->Spawn(argv));
    return coordinator->WaitForLine("listening on ");
  }

  std::string dir_;
  std::string key_path_;
  size_t rows_ = 0;
  std::vector<std::string> shard_uris_;
  std::vector<std::unique_ptr<ChildProcess>> shard_servers_;
};

TEST_F(ClusterE2eTest, MergedResultMatchesSingleServerBitForBit) {
  const size_t kShards = 4, kRowsPerShard = 6;
  SetUpCluster("merge", kShards, kRowsPerShard);

  ChildProcess single;
  ASSERT_TRUE(single.Spawn({ToolPath("ppstats_server"), "--db",
                            "v=" + dir_ + "/all.txt", "--listen",
                            "tcp:127.0.0.1:0"}));
  std::string single_uri = single.WaitForLine("listening on ");
  ASSERT_FALSE(single_uri.empty()) << single.output();

  ChildProcess coordinator;
  std::string coordinator_uri =
      StartCoordinator(&coordinator, {}, kRowsPerShard);
  ASSERT_FALSE(coordinator_uri.empty()) << coordinator.output();

  // Selections crossing shard boundaries, within one shard, and total.
  std::vector<std::string> selects = {"0,5,6,11,23", "2,3,4",
                                      "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,"
                                      "16,17,18,19,20,21,22,23"};
  std::string single_out, cluster_out;
  ASSERT_EQ(RunClient({"--column", "v"}, key_path_, single_uri, rows_,
                      selects, &single_out),
            0)
      << single_out;
  ASSERT_EQ(RunClient({"--column", "v"}, key_path_, coordinator_uri, rows_,
                      selects, &cluster_out),
            0)
      << cluster_out;
  EXPECT_EQ(cluster_out, single_out);
  // Sanity anchor: sum over all 24 rows of 3i+1 = 3*276 + 24.
  EXPECT_NE(single_out.find("852"), std::string::npos) << single_out;
}

TEST_F(ClusterE2eTest, ShardKillHonorsBothFailurePolicies) {
  const size_t kShards = 2, kRowsPerShard = 4;
  SetUpCluster("kill", kShards, kRowsPerShard);

  ChildProcess fail_coordinator;
  std::string fail_uri = StartCoordinator(
      &fail_coordinator,
      {"--partial", "fail", "--shard-attempts", "1", "--connect-deadline-ms",
       "2000", "--shard-io-deadline-ms", "5000"},
      kRowsPerShard);
  ASSERT_FALSE(fail_uri.empty()) << fail_coordinator.output();
  ChildProcess partial_coordinator;
  std::string partial_uri = StartCoordinator(
      &partial_coordinator,
      {"--partial", "partial", "--shard-attempts", "1",
       "--connect-deadline-ms", "2000", "--shard-io-deadline-ms", "5000"},
      kRowsPerShard);
  ASSERT_FALSE(partial_uri.empty()) << partial_coordinator.output();

  // Both answer while the cluster is healthy.
  std::string out;
  ASSERT_EQ(RunClient({"--column", "v"}, key_path_, fail_uri, rows_,
                      {"0,1,2,3,4,5,6,7"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("92\n"), std::string::npos) << out;  // sum of 3i+1, i<8

  // SIGKILL the second shard mid-deployment.
  shard_servers_[1]->Kill();

  // fail policy: the query errors out, mentioning the failed shard.
  EXPECT_NE(RunClient({"--column", "v"}, key_path_, fail_uri, rows_,
                      {"0,1,2,3,4,5,6,7"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("shard"), std::string::npos) << out;

  // partial policy without opt-in: the client refuses the flagged frame.
  EXPECT_NE(RunClient({"--column", "v"}, key_path_, partial_uri, rows_,
                      {"0,1,2,3,4,5,6,7"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("partial"), std::string::npos) << out;

  // partial policy with --accept-partial: the surviving shard's rows
  // are summed and the flagged coverage is reported.
  ASSERT_EQ(RunClient({"--column", "v", "--accept-partial"}, key_path_,
                      partial_uri, rows_, {"0,1,2,3,4,5,6,7"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("22\n"), std::string::npos) << out;  // rows 0-3 only
  EXPECT_NE(out.find("partial result: 1/2 shards, 4 rows covered"),
            std::string::npos)
      << out;
}

// Runs a tool expected to refuse its command line; returns its exit
// code, or -1 when it has printed no usage line within a few seconds
// (it is then killed: a tool that accepted the flags may be serving).
int RefusedExitCode(const std::vector<std::string>& argv, std::string* output) {
  ChildProcess tool;
  if (!tool.Spawn(argv)) return -1;
  const bool refused = !tool.WaitForLine("usage: ", 5000).empty();
  *output = tool.output();
  if (!refused) return -1;
  return tool.Wait();
}

TEST_F(ClusterE2eTest, ToolsTakeBothFlagFormsAndRefuseMalformedNumbers) {
  SetUpCluster("flags", 1, 4);  // one server: v = 1, 4, 7, 10
  const std::string db = "v=" + dir_ + "/shard0.txt";

  // `--flag=v` works wherever `--flag v` does, numbers included.
  std::string out;
  ASSERT_EQ(RunClient({"--column=v", "--chunk=1"}, key_path_,
                      shard_uris_[0], rows_, {"0,3"}, &out),
            0)
      << out;
  EXPECT_NE(out.find("11\n"), std::string::npos) << out;
  std::vector<std::string> argv = {ToolPath("ppstats_client"),
                                   "--key=" + key_path_,
                                   "--connect=" + shard_uris_[0],
                                   "--rows=4", "--select=1,2", "--seed=3"};
  ChildProcess client;
  ASSERT_TRUE(client.Spawn(argv));
  EXPECT_EQ(client.Wait(), 0) << client.output();
  EXPECT_NE(client.output().find("11\n"), std::string::npos)
      << client.output();
  ChildProcess server;
  ASSERT_TRUE(server.Spawn({ToolPath("ppstats_server"), "--db=" + db,
                            "--listen=tcp:127.0.0.1:0",
                            "--io-deadline-ms=5000", "--threads=1"}));
  EXPECT_FALSE(server.WaitForLine("listening on ").empty())
      << server.output();

  // A numeric value that is not all digits is a usage error (exit 2),
  // in either form, for every tool.
  const std::vector<std::vector<std::string>> malformed = {
      {ToolPath("ppstats_server"), "--db", db, "--listen",
       "tcp:127.0.0.1:0", "--io-deadline-ms", "5x"},
      {ToolPath("ppstats_server"), "--db", db, "--listen",
       "tcp:127.0.0.1:0", "--threads=abc"},
      {ToolPath("ppstats_server"), "--db", db, "--listen",
       "tcp:127.0.0.1:0", "--backlog", "-1"},
      {ToolPath("ppstats_client"), "--key", key_path_, "--connect",
       shard_uris_[0], "--select", "0", "--rows", "4x"},
      {ToolPath("ppstats_coordinator"), "--map",
       "v=0-4@" + shard_uris_[0], "--listen", "tcp:127.0.0.1:0",
       "--shard-attempts", "abc"},
      {ToolPath("ppstats_coordinator"), "--map",
       "v=0-4x@" + shard_uris_[0], "--listen", "tcp:127.0.0.1:0"},
      {ToolPath("ppstats_keygen"), "--bits=256x", "--out",
       dir_ + "/unused"},
  };
  for (const std::vector<std::string>& command : malformed) {
    std::string refusal;
    EXPECT_EQ(RefusedExitCode(command, &refusal), 2)
        << command[0] << " " << command[command.size() - 1] << ":\n"
        << refusal;
  }
}

}  // namespace
