// Shared benchmark environment: datasets, trained oracles, and expert
// pools, cached on disk so the bench binaries can share preprocessing.
#ifndef POE_BENCH_COMMON_BENCH_ENV_H_
#define POE_BENCH_COMMON_BENCH_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/expert_pool.h"
#include "data/synthetic.h"
#include "distill/trainer.h"
#include "models/wrn.h"

namespace poe {
namespace bench {

/// Which paper dataset the synthetic benchmark mirrors.
enum class DatasetKind { kCifar100Like, kTinyImageNetLike };

const char* DatasetName(DatasetKind kind);

/// Scale preset: "fast" (default) finishes the whole bench suite on a
/// laptop; "paper" (POE_BENCH_SCALE=paper) trains longer and sweeps more
/// task combinations.
struct BenchScale {
  bool paper = false;
  int epoch_multiplier = 1;
  int combos_per_nq = 2;  ///< composite-task combinations averaged per n(Q)
  /// POE_BENCH_SEED (default 0) moves the RNG seeds of the pool build and
  /// of every trained student, to read the seed-to-seed spread of a
  /// table. The dataset and the oracle keep their seeds.
  int seed = 0;

  /// `base` shifted by the seed; `base` itself at seed 0.
  uint64_t Seeded(uint64_t base) const {
    return base + static_cast<uint64_t>(seed) * 1000003u;
  }

  static BenchScale FromEnv();
};

/// Everything the experiment harnesses need for one dataset.
struct BenchEnv {
  DatasetKind kind;
  std::string name;
  SyntheticDataset data;
  std::shared_ptr<Wrn> oracle;
  std::shared_ptr<ExpertPool> pool;

  WrnConfig oracle_config;
  WrnConfig library_config;
  double expert_ks = 0.25;

  /// The paper evaluates on 6 randomly chosen primitive tasks; we fix a
  /// deterministic selection.
  std::vector<int> selected_tasks;

  /// Base options used for all trained baselines (mirrors the paper's
  /// shared SGD setup).
  TrainOptions baseline_options;
  /// Options used for expert-head training (CKD / Transfer).
  TrainOptions expert_options;

  /// Preprocessing timings of the pool build (0 when loaded from cache).
  PoeBuildStats build_stats;

  /// Composite tasks of size n drawn from selected_tasks.
  std::vector<std::vector<int>> Combos(int n, int count) const;
};

/// Returns the (cached) environment for a dataset. First call trains the
/// oracle and preprocesses the pool, persisting both under ./poe_cache/;
/// later calls (and other bench binaries) load from disk.
BenchEnv& GetBenchEnv(DatasetKind kind);

/// Paper reference strings used in bench output ("paper: 76.70").
std::string PaperRef(double value);

}  // namespace bench
}  // namespace poe

#endif  // POE_BENCH_COMMON_BENCH_ENV_H_
