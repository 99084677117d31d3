// Pool persistence: save a preprocessed pool, detect file corruption,
// reload, and answer queries from the reloaded pool.
#include <cstdio>
#include <fstream>

#include "core/expert_pool.h"
#include "core/serialization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "util/rng.h"

using namespace poe;

int main() {
  SyntheticDataConfig dc;
  dc.num_tasks = 4;
  dc.classes_per_task = 3;
  dc.train_per_class = 32;
  dc.test_per_class = 10;
  dc.noise = 0.8f;
  SyntheticDataset data = GenerateSyntheticDataset(dc);

  Rng rng(5);
  WrnConfig oracle_cfg;
  oracle_cfg.kc = 2.0;
  oracle_cfg.ks = 2.0;
  oracle_cfg.num_classes = data.hierarchy.num_classes();
  Wrn oracle(oracle_cfg, rng);
  TrainOptions opts;
  opts.epochs = 14;
  opts.lr = 0.08f;
  opts.lr_decay_epochs = {10, 13};
  std::printf("training oracle...\n");
  TrainScratch(oracle, data.train, opts);
  std::printf("oracle test accuracy: %.1f%%\n",
              100 * EvaluateAccuracy(ModelLogits(oracle), data.test));

  PoeBuildConfig build;
  build.library_config = oracle_cfg;
  build.library_config.kc = 1.0;
  build.library_config.ks = 1.0;
  build.expert_ks = 0.25;
  build.library_options = opts;
  build.expert_options = opts;
  std::printf("preprocessing pool over 4 primitive tasks...\n");
  ExpertPool pool =
      ExpertPool::Preprocess(ModelLogits(oracle), data, build, rng);

  const std::string path = "/tmp/persistence_pool.poe";
  Status s = pool.Save(path);
  std::printf("saved pool to %s: %s\n", path.c_str(), s.ToString().c_str());

  // Corruption detection: flip a byte in a copy and try to load it.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x20;
    const std::string bad_path = "/tmp/persistence_pool_corrupt.poe";
    std::ofstream out(bad_path, std::ios::binary);
    out << bytes;
    out.close();
    auto r = ExpertPool::Load(bad_path);
    std::printf("loading corrupted copy: %s (expected CORRUPTION)\n",
                r.status().ToString().c_str());
  }

  ExpertPool reloaded = ExpertPool::Load(path).ValueOrDie();
  std::printf("reloaded pool: %d experts\n", reloaded.num_experts());

  // Query single tasks and a composite task from the reloaded pool.
  for (const std::vector<int>& q : {std::vector<int>{1}, {3}, {1, 3}}) {
    TaskModel model = reloaded.Query(q).ValueOrDie();
    Dataset test = FilterClasses(
        data.test, data.hierarchy.CompositeClasses(q), true);
    LogitFn fn = [&](const Tensor& x) { return model.Logits(x); };
    std::printf("task {");
    for (size_t i = 0; i < q.size(); ++i)
      std::printf("%s%d", i ? "," : "", q[i]);
    std::printf("} accuracy: %.1f%%\n", 100 * EvaluateAccuracy(fn, test));
  }
  return 0;
}
