// Extension ablation: int8 serving of the pool.
//
// The paper notes KD is orthogonal to quantization (Section 2). This bench
// composes them on the int8 path serving uses: the pool is measured at
// f32, switched in place to int8 serving (per-output-channel weight
// scales, dynamic activation scales), and measured again. "Bytes" is what
// a pool file stores per module at each precision.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/bench_env.h"
#include "core/serialization.h"
#include "core/task_model.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "util/logging.h"

namespace poe {
namespace bench {
namespace {

// Sum of the pool-file section payloads of the library and every expert
// at the pool's current precision.
int64_t PoolPayloadBytes(const ExpertPool& pool) {
  int64_t bytes = static_cast<int64_t>(
      SerializeModulePayload(*pool.library()).ValueOrDie().size());
  for (int t = 0; t < pool.num_experts(); ++t) {
    bytes += static_cast<int64_t>(
        SerializeModulePayload(*pool.expert(t)).ValueOrDie().size());
  }
  return bytes;
}

// Accuracy of a freshly assembled model for `tasks` on `test`.
float QueryAccuracy(const ExpertPool& pool, const std::vector<int>& tasks,
                    const Dataset& test) {
  TaskModel model = pool.Query(tasks).ValueOrDie();
  return EvaluateAccuracy([&](const Tensor& x) { return model.Logits(x); },
                          test);
}

void RunDataset(DatasetKind kind) {
  BenchEnv& env = GetBenchEnv(kind);

  // Accuracy at each precision on a 3-task query.
  std::vector<int> tasks(env.selected_tasks.begin(),
                         env.selected_tasks.begin() + 3);
  Dataset test = FilterClasses(
      env.data.test, env.data.hierarchy.CompositeClasses(tasks), true);

  const int64_t float_bytes = PoolPayloadBytes(*env.pool);
  const float acc_float = QueryAccuracy(*env.pool, tasks, test);

  POE_CHECK(env.pool->SetServingPrecision(ServingPrecision::kInt8).ok());
  const int64_t int8_bytes = PoolPayloadBytes(*env.pool);
  const float acc_int8 = QueryAccuracy(*env.pool, tasks, test);

  std::printf("\n=== Quantization ablation [%s] ===\n", env.name.c_str());
  TablePrinter table({"Pool storage", "Bytes", "Acc on 3-task Q (%)"});
  table.AddRow({"float32", TablePrinter::HumanBytes(float_bytes),
                TablePrinter::Pct(acc_float)});
  table.AddRow({"int8", TablePrinter::HumanBytes(int8_bytes),
                TablePrinter::Pct(acc_int8)});
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "shape check: >3x smaller (%.2fx) with <2%% accuracy change "
      "(|delta|=%.2f%%): %s\n",
      static_cast<double>(float_bytes) / int8_bytes,
      100.0 * std::abs(acc_float - acc_int8),
      (float_bytes > 3 * int8_bytes &&
       std::abs(acc_float - acc_int8) < 0.02f)
          ? "holds"
          : "violated");
}

}  // namespace
}  // namespace bench
}  // namespace poe

int main() {
  poe::bench::RunDataset(poe::bench::DatasetKind::kCifar100Like);
  return 0;
}
