// The wire answers of a served pool against an independent oracle. A
// WRN-16 base-16 pool of 20 tasks x 5 classes (expert ks 0.25, 32x32x3
// inputs) is saved to disk, loaded and served by NetServer on 127.0.0.1
// with 3 inference workers, and driven by 2 client threads in closed
// loops. Every OK response must equal, bitwise, TaskModel::Logits from a
// separately loaded copy of the pool that is never prepacked, and the
// server must complete every request it admits. Fused batches, trunk
// sharing across models, prepacked weights and the direct conv path all
// sit between the two answers. Two geometries: the interactive f32
// serving benchmark (16 one-image requests outstanding over 24
// composites), and the bulk int8 one (a calibrated int8 pool, 32-image
// requests for size-2 composites, 4 outstanding), whose oracle runs the
// im2col lowering.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/expert_pool.h"
#include "core/query_service.h"
#include "core/task_model.h"
#include "data/hierarchy.h"
#include "models/wrn.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/inference_server.h"
#include "tensor/conv_direct.h"
#include "util/rng.h"

namespace poe {
namespace {

constexpr int kTasks = 20;
constexpr int kClassesPerTask = 5;
constexpr double kExpertKs = 0.25;
constexpr int64_t kSide = 32;
constexpr int64_t kChannels = 3;
constexpr int kClients = 2;

ExpertPool RandomWrn16Pool(uint64_t seed) {
  Rng rng(seed);
  WrnConfig lib;
  lib.depth = 16;
  lib.base_channels = 16;
  lib.kc = 1.0;
  lib.ks = 1.0;
  lib.num_classes = kTasks * kClassesPerTask;
  lib.in_channels = kChannels;
  auto library = BuildLibraryPart(lib, rng);
  std::vector<std::shared_ptr<Sequential>> experts;
  for (int t = 0; t < kTasks; ++t) {
    WrnConfig e = lib;
    e.ks = kExpertKs;
    e.num_classes = kClassesPerTask;
    experts.push_back(BuildExpertPart(e, lib.conv3_channels(), rng));
  }
  return ExpertPool(lib, kExpertKs,
                    ClassHierarchy::Uniform(kTasks, kClassesPerTask),
                    std::move(library), std::move(experts));
}

// Distinct composites of the given sizes.
std::vector<std::vector<int>> RandomComposites(const std::vector<int>& sizes,
                                               Rng& rng) {
  std::vector<std::vector<int>> out;
  while (out.size() < sizes.size()) {
    std::vector<int> tasks(kTasks);
    for (int t = 0; t < kTasks; ++t) tasks[t] = t;
    rng.Shuffle(tasks);
    tasks.resize(sizes[out.size()]);
    std::sort(tasks.begin(), tasks.end());
    if (std::find(out.begin(), out.end(), tasks) == out.end()) {
      out.push_back(tasks);
    }
  }
  return out;
}

struct Job {
  int composite = 0;
  int input = 0;
};

struct ClientResult {
  int64_t ok = 0;
  int64_t not_ok = 0;
  int64_t mismatches = 0;
  std::string error;  // transport failure or first mismatch
};

// One serving run: `pool` saved and served, `requests_per_client` jobs per
// client over random composites of `sizes` and `num_inputs` random
// batches of `rows` images, `window` outstanding per client. The oracle
// answers every (composite, input) pair first, from its own load of the
// file, queried and never prepacked, under `oracle_path`.
void ServeAndCheckAgainstOracle(const ExpertPool& pool,
                                const std::vector<int>& sizes,
                                int num_inputs, int64_t rows, int window,
                                int requests_per_client,
                                ConvPath oracle_path) {
  const std::string path = ::testing::TempDir() + "/wire_oracle_" +
                           std::to_string(::getpid()) + ".poe";
  ASSERT_TRUE(pool.Save(path).ok());

  Rng rng(8);
  const std::vector<std::vector<int>> composites =
      RandomComposites(sizes, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < num_inputs; ++i) {
    inputs.push_back(Tensor::Randn({rows, kChannels, kSide, kSide}, rng));
  }
  std::vector<Job> jobs(kClients * requests_per_client);
  for (Job& job : jobs) {
    job.composite = static_cast<int>(rng.NextInt(composites.size()));
    job.input = static_cast<int>(rng.NextInt(num_inputs));
  }

  std::map<std::pair<int, int>, Tensor> reference;
  std::vector<std::vector<int>> classes;
  {
    auto oracle = ExpertPool::Load(path);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    std::vector<TaskModel> models;
    for (const auto& c : composites) {
      auto m = oracle.ValueOrDie().Query(c);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      models.push_back(std::move(m).ValueOrDie());
      classes.push_back(models.back().global_classes());
    }
    const ConvPath served_path = ConvPathChoice();
    SetConvPath(oracle_path);
    for (const Job& job : jobs) {
      const auto key = std::make_pair(job.composite, job.input);
      if (reference.count(key) == 0) {
        reference[key] = models[job.composite].Logits(inputs[job.input]);
      }
    }
    SetConvPath(served_path);
  }

  auto served = ExpertPool::Load(path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  std::remove(path.c_str());
  ModelQueryService service(std::move(served).ValueOrDie(),
                            /*cache_capacity=*/32);
  InferenceServer::Options sopts;
  sopts.num_workers = 3;
  sopts.queue_capacity = 256;
  InferenceServer server(&service, sopts);
  NetServer::Options nopts;
  nopts.num_workers = 1;
  NetServer net(&server, nopts);
  ASSERT_TRUE(net.Start().ok());

  // One closed loop per client: keep `window` requests outstanding, send
  // the next as each response arrives, then drain.
  auto drive = [&](int client_id, ClientResult* out) {
    NetClient client;
    Status s = client.Connect("127.0.0.1", net.port());
    if (!s.ok()) {
      out->error = s.ToString();
      return;
    }
    std::unordered_map<uint64_t, const Job*> inflight;
    int sent = 0;
    auto send = [&]() -> bool {
      const Job& job = jobs[client_id * requests_per_client + sent++];
      auto id = client.Send(composites[job.composite], inputs[job.input]);
      if (!id.ok()) {
        out->error = id.status().ToString();
        return false;
      }
      inflight[id.ValueOrDie()] = &job;
      return true;
    };
    for (int w = 0; w < window; ++w) {
      if (!send()) return;
    }
    while (!inflight.empty()) {
      auto r = client.Receive();
      if (!r.ok()) {
        out->error = r.status().ToString();
        return;
      }
      const WireResponse& resp = r.ValueOrDie();
      auto it = inflight.find(resp.request_id);
      if (it == inflight.end()) {
        out->error = "response for an unknown request id";
        return;
      }
      const Job& job = *it->second;
      inflight.erase(it);
      if (!resp.status.ok()) {
        ++out->not_ok;
      } else {
        ++out->ok;
        const Tensor& want = reference.at({job.composite, job.input});
        const bool same =
            resp.logits.shape() == want.shape() &&
            std::memcmp(resp.logits.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)) ==
                0 &&
            resp.global_classes == classes[job.composite];
        if (!same) {
          if (out->mismatches++ == 0) {
            out->error = "composite " + std::to_string(job.composite) +
                         " input " + std::to_string(job.input) +
                         " differs from the oracle";
          }
        }
      }
      if (sent < requests_per_client && !send()) return;
    }
  };
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(drive, c, &results[c]);
  }
  for (auto& t : threads) t.join();
  net.Stop();
  server.Shutdown();

  int64_t ok = 0;
  for (const ClientResult& r : results) {
    EXPECT_EQ(r.mismatches, 0) << r.error;
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.not_ok, 0);
    ok += r.ok;
  }
  EXPECT_EQ(ok, kClients * requests_per_client);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.completed, ok);
}

// interactive_f32: 2 clients x 8 outstanding one-image requests over 24
// composites of 1-4 tasks.
TEST(NetWireOracleTest, EveryOkResponseEqualsTheOracleBitwise) {
  std::vector<int> sizes;
  for (int i = 0; i < 24; ++i) sizes.push_back(1 + i % 4);
  ServeAndCheckAgainstOracle(RandomWrn16Pool(/*seed=*/7), sizes,
                             /*num_inputs=*/8, /*rows=*/1, /*window=*/8,
                             /*requests_per_client=*/160, ConvPathChoice());
}

// bulk_int8: a calibrated int8 pool, 2 clients x 2 outstanding 32-image
// requests over 4 composites of 2 tasks; the oracle runs the im2col
// lowering, the server the pack-free direct one.
TEST(NetWireOracleTest, EveryOkInt8ResponseEqualsTheIm2ColOracleBitwise) {
  ExpertPool pool = RandomWrn16Pool(/*seed=*/9);
  Rng rng(10);
  ASSERT_TRUE(pool.CalibrateActivations(
                      Tensor::Randn({64, kChannels, kSide, kSide}, rng))
                  .ok());
  ASSERT_TRUE(pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  ServeAndCheckAgainstOracle(pool, std::vector<int>(4, 2), /*num_inputs=*/4,
                             /*rows=*/32, /*window=*/2,
                             /*requests_per_client=*/12, ConvPath::kIm2Col);
}

}  // namespace
}  // namespace poe
