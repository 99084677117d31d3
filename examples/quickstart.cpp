// Quickstart: the full PoE pipeline on a small synthetic benchmark.
//
//  1. Train an oracle classifier (stands in for a massive pretrained model).
//  2. Preprocessing phase: extract the library + a pool of experts.
//  3. Service phase: query task-specific models in realtime.
//  4. Persist the pool and query it again after reloading.
//
// Runs in about a minute on a laptop. See examples/zoo_restaurant.cpp for
// the paper's motivating scenario and examples/aiaas_server.cpp for a
// multi-client serving loop.
#include <cstdio>

#include "core/expert_pool.h"
#include "core/query_service.h"
#include "data/synthetic.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "models/wrn.h"
#include "util/stopwatch.h"

using namespace poe;

int main() {
  // ---- 0. A small hierarchical dataset: 6 primitive tasks x 4 classes.
  SyntheticDataConfig dc;
  dc.num_tasks = 6;
  dc.classes_per_task = 4;
  dc.train_per_class = 24;
  dc.test_per_class = 10;
  dc.noise = 0.8f;
  SyntheticDataset data = GenerateSyntheticDataset(dc);
  std::printf("dataset: %d classes in %d primitive tasks, %lld train / %lld "
              "test images\n",
              data.hierarchy.num_classes(), data.hierarchy.num_tasks(),
              static_cast<long long>(data.train.size()),
              static_cast<long long>(data.test.size()));

  // ---- 1. The oracle: a generic model covering every class.
  Rng rng(42);
  WrnConfig oracle_cfg;
  oracle_cfg.kc = 2.0;
  oracle_cfg.ks = 2.0;
  oracle_cfg.num_classes = data.hierarchy.num_classes();
  Wrn oracle(oracle_cfg, rng);
  TrainOptions train_opts;
  train_opts.epochs = 12;
  train_opts.lr = 0.08f;
  train_opts.lr_decay_epochs = {9, 11};
  std::printf("training oracle %s...\n", oracle_cfg.ToString().c_str());
  TrainScratch(oracle, data.train, train_opts);
  std::printf("oracle test accuracy: %.1f%%\n",
              100 * EvaluateAccuracy(ModelLogits(oracle), data.test));

  // ---- 2. Preprocessing phase: library extraction + expert extraction.
  PoeBuildConfig build;
  build.library_config = oracle_cfg;
  build.library_config.kc = 1.0;
  build.library_config.ks = 1.0;
  build.expert_ks = 0.25;
  build.library_options = train_opts;
  build.expert_options = train_opts;
  build.expert_options.lr = 0.05f;
  PoeBuildStats stats;
  ExpertPool pool = ExpertPool::Preprocess(ModelLogits(oracle), data, build,
                                           rng, &stats);
  std::printf("pool built: library %.1fs + %d experts %.1fs\n",
              stats.library_seconds, pool.num_experts(),
              stats.experts_seconds);

  // ---- 3. Service phase: realtime task-specific model queries.
  ModelQueryService service(std::move(pool), /*cache_capacity=*/8);
  for (const std::vector<int>& query :
       {std::vector<int>{0, 1}, {2, 4, 5}, {3}}) {
    Stopwatch sw;
    auto model = service.Query(query).ValueOrDie();
    const double ms = sw.ElapsedMillis();
    Dataset test = FilterClasses(
        data.test, data.hierarchy.CompositeClasses(query), true);
    LogitFn fn = [&](const Tensor& x) { return model->Logits(x); };
    std::printf("query {");
    for (size_t i = 0; i < query.size(); ++i)
      std::printf("%s%d", i ? "," : "", query[i]);
    std::printf("} -> model with %d branches, %lld params, assembled in "
                "%.3fms, accuracy %.1f%%\n",
                model->num_branches(),
                static_cast<long long>(model->NumParams()), ms,
                100 * EvaluateAccuracy(fn, test));
  }

  // ---- 4. Persistence round-trip.
  const std::string path = "/tmp/quickstart_pool.poe";
  Status s = service.PinGeneration()->pool.Save(path);
  if (!s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto reloaded = ExpertPool::Load(path);
  if (!reloaded.ok()) {
    std::printf("load failed: %s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  auto model = reloaded.ValueOrDie().Query({0, 5}).ValueOrDie();
  std::printf("reloaded pool from %s and assembled a %d-branch model.\n",
              path.c_str(), model.num_branches());
  std::printf("done.\n");
  return 0;
}
