// poectl's numeric arguments are parsed strictly: a flag, a positional, a
// task id, a host:port target or a --nodes entry with trailing junk (or
// no digits at all) is a usage error, exit 2, before any work starts.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/expert_pool.h"
#include "data/hierarchy.h"
#include "models/wrn.h"
#include "util/rng.h"

namespace poe {
namespace {

std::string SaveTinyPool() {
  Rng rng(3);
  WrnConfig lib;
  lib.base_channels = 4;
  lib.num_classes = 4;
  auto library = BuildLibraryPart(lib, rng);
  std::vector<std::shared_ptr<Sequential>> experts;
  for (int t = 0; t < 2; ++t) {
    WrnConfig e = lib;
    e.num_classes = 2;
    experts.push_back(BuildExpertPart(e, lib.conv3_channels(), rng));
  }
  ExpertPool pool(lib, /*expert_ks=*/1.0, ClassHierarchy::Uniform(2, 2),
                  std::move(library), std::move(experts));
  const std::string path = ::testing::TempDir() + "/args_pool_" +
                           std::to_string(::getpid()) + ".poe";
  EXPECT_TRUE(pool.Save(path).ok());
  return path;
}

#ifdef POE_POECTL
/// Runs poectl with `args` (output discarded); returns its exit code, or
/// -1 when it did not exit normally. A lax parser would start a server on
/// some of the inputs below, so the child is killed after 10 s.
int RunPoectl(std::vector<std::string> args) {
  args.insert(args.begin(), "poectl");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::alarm(10);  // survives exec; SIGALRM ends a hung child
    ::execv(POE_POECTL, argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}
#endif

TEST(PoectlArgsTest, MalformedNumbersExitTwo) {
#ifndef POE_POECTL
  GTEST_SKIP() << "built without poectl";
#else
  const std::string pool = SaveTinyPool();
  // Well-formed control: the same pool and task list syntax succeed.
  EXPECT_EQ(RunPoectl({"query", pool, "0,1"}), 0);
  // Flags: an integer and a real.
  EXPECT_EQ(RunPoectl({"build", pool + ".x", "2", "2", "1", "--seed=1x"}), 2);
  EXPECT_EQ(RunPoectl({"net-load", "127.0.0.1:1", "--seconds=1x"}), 2);
  // Positionals: junk after a port, and no digits at all.
  EXPECT_EQ(RunPoectl({"net-serve", pool, "80x81"}), 2);
  EXPECT_EQ(RunPoectl({"net-serve", pool, "abc"}), 2);
  // A task list.
  EXPECT_EQ(RunPoectl({"query", pool, "0,1x"}), 2);
  // host:port.
  EXPECT_EQ(RunPoectl({"net-query", "127.0.0.1:9410x", "0"}), 2);
  // A --nodes entry (its id, then its port).
  EXPECT_EQ(RunPoectl({"cluster", "serve", pool, "--id=0",
                       "--nodes=0x:9410"}),
            2);
  EXPECT_EQ(RunPoectl({"cluster", "serve", pool, "--id=0",
                       "--nodes=0:9410x"}),
            2);
  std::remove(pool.c_str());
#endif
}

}  // namespace
}  // namespace poe
