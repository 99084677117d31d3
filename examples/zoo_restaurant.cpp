// The paper's motivating scenario (Section 1): a mobile user walks through
// an animal theme park. Entering a restaurant they need a food classifier;
// returning to the animal area they need an animal classifier; at the
// souvenir shop both. Each context switch issues a model query, and PoE
// answers with a fresh task-specific model in milliseconds - no retraining,
// no giant generic model shipped to the device.
#include <cstdio>
#include <string>
#include <vector>

#include "core/expert_pool.h"
#include "core/query_service.h"
#include "data/synthetic.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "models/cost.h"
#include "util/stopwatch.h"

using namespace poe;

namespace {

struct Context {
  std::string place;
  std::vector<int> tasks;  // primitive tasks the user needs here
};

}  // namespace

int main() {
  // 8 primitive tasks standing in for semantic superclasses.
  const std::vector<std::string> task_names = {
      "mammals", "birds",   "reptiles", "fish",
      "dishes",  "drinks",  "desserts", "souvenirs"};
  SyntheticDataConfig dc;
  dc.num_tasks = static_cast<int>(task_names.size());
  dc.classes_per_task = 4;
  dc.train_per_class = 20;
  dc.test_per_class = 8;
  dc.noise = 0.8f;
  SyntheticDataset data = GenerateSyntheticDataset(dc);

  // Server side: one-time preprocessing of the oracle into a pool.
  Rng rng(7);
  WrnConfig oracle_cfg;
  oracle_cfg.kc = 2.0;
  oracle_cfg.ks = 2.0;
  oracle_cfg.num_classes = data.hierarchy.num_classes();
  Wrn oracle(oracle_cfg, rng);
  TrainOptions opts;
  opts.epochs = 10;
  opts.lr = 0.08f;
  std::printf("[server] training oracle and preprocessing the pool "
              "(one-time)...\n");
  TrainScratch(oracle, data.train, opts);

  PoeBuildConfig build;
  build.library_config = oracle_cfg;
  build.library_config.kc = 1.0;
  build.library_config.ks = 1.0;
  build.expert_ks = 0.25;
  build.library_options = opts;
  build.expert_options = opts;
  ModelQueryService service(
      ExpertPool::Preprocess(ModelLogits(oracle), data, build, rng),
      /*cache_capacity=*/4);
  std::printf("[server] ready: %d experts in the pool\n\n",
              service.PinGeneration()->pool.num_experts());

  // Client side: a day at the theme park.
  const std::vector<Context> day = {
      {"animal area (morning)", {0, 1, 2, 3}},
      {"restaurant (lunch)", {4, 5}},
      {"animal area (afternoon)", {0, 1, 2, 3}},  // cache hit
      {"dessert stand", {6}},
      {"souvenir shop (evening)", {7, 4}},
  };

  const int64_t hw = dc.height;
  ModelCost oracle_cost = CostOfWrn(oracle_cfg, hw, hw);
  for (const Context& ctx : day) {
    Stopwatch sw;
    auto model = service.Query(ctx.tasks).ValueOrDie();
    const double ms = sw.ElapsedMillis();

    Dataset test = FilterClasses(
        data.test, data.hierarchy.CompositeClasses(ctx.tasks), true);
    LogitFn fn = [&](const Tensor& x) { return model->Logits(x); };
    const float acc = EvaluateAccuracy(fn, test);
    ModelCost cost = model->Cost(hw, hw);

    std::printf("[client] %-26s needs {", ctx.place.c_str());
    for (size_t i = 0; i < ctx.tasks.size(); ++i)
      std::printf("%s%s", i ? ", " : "", task_names[ctx.tasks[i]].c_str());
    std::printf("}\n");
    std::printf(
        "         model delivered in %6.2fms | acc %.1f%% | %lld params "
        "(oracle/model size ratio %.0fx)\n",
        ms, 100 * acc, static_cast<long long>(cost.params),
        static_cast<double>(oracle_cost.params) / cost.params);
  }

  const ServeStats stats = service.serve_stats();
  std::printf(
      "\n[server] served %lld queries, %lld cache hits, avg %.2fms, max "
      "%.2fms\n",
      static_cast<long long>(stats.queries),
      static_cast<long long>(stats.cache_hits), stats.avg_ms,
      stats.max_ms);
  return 0;
}
