// `poectl net-serve` stopped by SIGTERM right after it announces its
// port. A supervisor (perfbench, the cluster smoke script, a service
// manager) may signal as soon as it reads "listening on", so the handlers
// must already be installed: the server drains and exits 0 instead of
// dying by the signal's default action. The `net_serve.ready` fault site
// sits right after the announcement; a delay armed there holds the
// process inside the window that a late handler install leaves open.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
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
  const std::string path = ::testing::TempDir() + "/signal_pool_" +
                           std::to_string(::getpid()) + ".poe";
  EXPECT_TRUE(pool.Save(path).ok());
  return path;
}

TEST(PoectlSignalTest, SigtermRightAfterListeningDrainsAndExitsZero) {
#ifndef POE_POECTL
  GTEST_SKIP() << "built without poectl";
#else
  const std::string pool = SaveTinyPool();
  // The child's environment is built before fork: only async-signal-safe
  // calls may run between fork and exec.
  std::vector<std::string> env_strings = {
      "POE_FAULTS=net_serve.ready=delay:500:always"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string(*e).rfind("POE_FAULTS", 0) != 0) {
      env_strings.push_back(*e);
    }
  }
  std::vector<char*> env;
  for (std::string& e : env_strings) env.push_back(e.data());
  env.push_back(nullptr);
  int out[2];
  ASSERT_EQ(::pipe(out), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execle(POE_POECTL, "poectl", "net-serve", pool.c_str(), "0", "1",
             static_cast<char*>(nullptr), env.data());
    ::_exit(127);
  }
  ::close(out[1]);
  FILE* child_out = ::fdopen(out[0], "r");
  ASSERT_NE(child_out, nullptr);
  char line[256];
  bool listening = false;
  while (!listening && std::fgets(line, sizeof(line), child_out) != nullptr) {
    listening = std::string(line).rfind("listening on ", 0) == 0;
  }
  ASSERT_TRUE(listening) << "net-serve never announced its port";
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  std::fclose(child_out);
  std::remove(pool.c_str());
  EXPECT_FALSE(WIFSIGNALED(status))
      << "net-serve died by signal " << WTERMSIG(status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "net-serve exit status " << status;
#endif
}

}  // namespace
}  // namespace poe
