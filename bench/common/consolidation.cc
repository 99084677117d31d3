#include "consolidation.h"

#include <algorithm>
#include <map>
#include <memory>

#include "distill/merge.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace poe {
namespace bench {

namespace {

/// Scratch-trained primitive teacher models, built lazily once per env and
/// shared across composite tasks (SD/UHC + Scratch need them).
std::shared_ptr<Wrn> ScratchTeacher(BenchEnv& env, int task) {
  static std::map<std::pair<const BenchEnv*, int>, std::shared_ptr<Wrn>>*
      cache = new std::map<std::pair<const BenchEnv*, int>,
                           std::shared_ptr<Wrn>>();
  auto key = std::make_pair(const_cast<const BenchEnv*>(&env), task);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  WrnConfig cfg = env.library_config;
  cfg.ks = env.expert_ks;
  cfg.num_classes =
      static_cast<int>(env.data.hierarchy.task_classes(task).size());
  Rng rng(BenchScale::FromEnv().Seeded(9000 + task));
  auto model = std::make_shared<Wrn>(cfg, rng);
  Dataset train = FilterClasses(env.data.train,
                                env.data.hierarchy.task_classes(task), true);
  TrainScratch(*model, train, env.baseline_options);
  (*cache)[key] = model;
  return model;
}

std::vector<TeacherSpec> MakeTeachers(BenchEnv& env,
                                      const std::vector<int>& tasks,
                                      bool ckd_teachers) {
  std::vector<TeacherSpec> specs;
  for (int t : tasks) {
    TeacherSpec spec;
    spec.classes = env.data.hierarchy.task_classes(t);
    if (ckd_teachers) {
      spec.logits =
          LibraryHeadLogits(*env.pool->library(), *env.pool->expert(t));
    } else {
      auto teacher = ScratchTeacher(env, t);
      spec.logits = [teacher](const Tensor& x) {
        return teacher->Forward(x, false);
      };
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

std::vector<std::string> AllConsolidationMethods() {
  return {"Oracle",      "KD",     "Scratch", "Transfer", "SD+Scratch",
          "UHC+Scratch", "SD+CKD", "UHC+CKD", "CKD",      "PoE"};
}

std::vector<ConsolidationRun> RunConsolidation(
    BenchEnv& env, const std::vector<int>& tasks, bool with_curves,
    const std::vector<std::string>& methods) {
  std::vector<std::string> wanted =
      methods.empty() ? AllConsolidationMethods() : methods;
  auto is_wanted = [&](const std::string& m) {
    return std::find(wanted.begin(), wanted.end(), m) != wanted.end();
  };

  const BenchScale scale = BenchScale::FromEnv();
  const std::vector<int> classes = env.data.hierarchy.CompositeClasses(tasks);
  const int num_q = static_cast<int>(classes.size());
  const int nq = static_cast<int>(tasks.size());
  Dataset q_train = FilterClasses(env.data.train, classes, true);
  Dataset q_test_local = FilterClasses(env.data.test, classes, true);
  Dataset q_test_global = FilterClasses(env.data.test, classes, false);
  const int64_t hw = env.data.config.height;

  // The student architecture all monolithic specialized baselines use:
  // WRN-l-(kc, 0.25 * n(Q)) with |Q| outputs (Table 3 caption).
  WrnConfig student_cfg = env.library_config;
  student_cfg.ks = env.expert_ks * nq;
  student_cfg.num_classes = num_q;

  TrainOptions opts = env.baseline_options;
  if (with_curves) opts.eval_every = 1;

  std::vector<ConsolidationRun> runs;
  auto add_run = [&](ConsolidationRun run) { runs.push_back(std::move(run)); };

  if (is_wanted("Oracle")) {
    ConsolidationRun run;
    run.method = "Oracle";
    run.accuracy = EvaluateTaskSpecificAccuracy(ModelLogits(*env.oracle),
                                                q_test_global, classes);
    run.cost = CostOfWrn(env.oracle_config, hw, hw);
    add_run(std::move(run));
  }

  if (is_wanted("KD")) {
    // Generic small student distilled on the entire class set, evaluated
    // task-specifically.
    WrnConfig kd_cfg = student_cfg;
    kd_cfg.num_classes = env.data.hierarchy.num_classes();
    Rng rng(scale.Seeded(100 + nq));
    Wrn student(kd_cfg, rng);
    EvalFn evaluator = [&] {
      return EvaluateTaskSpecificAccuracy(ModelLogits(student),
                                          q_test_global, classes);
    };
    TrainResult r =
        TrainStandardKd(ModelLogits(*env.oracle), student, env.data.train,
                        opts, with_curves ? evaluator : EvalFn(nullptr));
    ConsolidationRun run;
    run.method = "KD";
    run.accuracy = evaluator();
    run.train_seconds = r.seconds;
    run.seconds_to_best = with_curves ? r.seconds_to_best : r.seconds;
    run.cost = CostOfWrn(kd_cfg, hw, hw);
    run.curve = std::move(r.curve);
    add_run(std::move(run));
  }

  if (is_wanted("Scratch")) {
    Rng rng(scale.Seeded(200 + nq));
    Wrn student(student_cfg, rng);
    EvalFn evaluator = [&] {
      return EvaluateAccuracy(ModelLogits(student), q_test_local);
    };
    TrainResult r = TrainScratch(student, q_train, opts,
                                 with_curves ? evaluator : EvalFn(nullptr));
    ConsolidationRun run;
    run.method = "Scratch";
    run.accuracy = evaluator();
    run.train_seconds = r.seconds;
    run.seconds_to_best = with_curves ? r.seconds_to_best : r.seconds;
    run.cost = CostOfWrn(student_cfg, hw, hw);
    run.curve = std::move(r.curve);
    add_run(std::move(run));
  }

  if (is_wanted("Transfer")) {
    Rng rng(scale.Seeded(300 + nq));
    auto head = BuildExpertPart(student_cfg,
                                env.library_config.conv3_channels(), rng);
    Sequential& library = *env.pool->library();
    EvalFn evaluator = [&] {
      return EvaluateAccuracy(LibraryHeadLogits(library, *head),
                              q_test_local);
    };
    TrainResult r = TrainTransfer(library, *head, q_train, opts,
                                  with_curves ? evaluator : EvalFn(nullptr));
    ConsolidationRun run;
    run.method = "Transfer";
    run.accuracy = evaluator();
    run.train_seconds = r.seconds;
    run.seconds_to_best = with_curves ? r.seconds_to_best : r.seconds;
    run.cost = CostOfWrn(student_cfg, hw, hw);
    run.curve = std::move(r.curve);
    add_run(std::move(run));
  }

  // SD/UHC merging variants.
  for (const bool ckd_teachers : {false, true}) {
    for (const bool uhc : {false, true}) {
      const std::string name = std::string(uhc ? "UHC" : "SD") +
                               (ckd_teachers ? "+CKD" : "+Scratch");
      if (!is_wanted(name)) continue;
      std::vector<TeacherSpec> teachers =
          MakeTeachers(env, tasks, ckd_teachers);
      Rng rng(
          scale.Seeded(400 + nq + (uhc ? 1 : 0) + (ckd_teachers ? 2 : 0)));
      Wrn student(student_cfg, rng);
      EvalFn evaluator = [&] {
        return EvaluateAccuracy(ModelLogits(student), q_test_local);
      };
      TrainResult r =
          uhc ? TrainUhcMerge(teachers, student, q_train, opts,
                              with_curves ? evaluator : EvalFn(nullptr))
              : TrainSdMerge(teachers, student, q_train, opts,
                             with_curves ? evaluator : EvalFn(nullptr));
      ConsolidationRun run;
      run.method = name;
      run.accuracy = evaluator();
      run.train_seconds = r.seconds;
      run.seconds_to_best = with_curves ? r.seconds_to_best : r.seconds;
      run.cost = CostOfWrn(student_cfg, hw, hw);
      run.curve = std::move(r.curve);
      add_run(std::move(run));
    }
  }

  if (is_wanted("CKD")) {
    // Composite CKD: one monolithic head distilled from the oracle's
    // sub-logits over Q, on all training data.
    Rng rng(scale.Seeded(500 + nq));
    auto head = BuildExpertPart(student_cfg,
                                env.library_config.conv3_channels(), rng);
    Sequential& library = *env.pool->library();
    EvalFn evaluator = [&] {
      return EvaluateAccuracy(LibraryHeadLogits(library, *head),
                              q_test_local);
    };
    TrainResult r = TrainCkdExpert(ModelLogits(*env.oracle), library, *head,
                                   env.data.train, classes, opts, CkdOptions{},
                                   with_curves ? evaluator : EvalFn(nullptr));
    ConsolidationRun run;
    run.method = "CKD";
    run.accuracy = evaluator();
    run.train_seconds = r.seconds;
    run.seconds_to_best = with_curves ? r.seconds_to_best : r.seconds;
    run.cost = CostOfWrn(student_cfg, hw, hw);
    run.curve = std::move(r.curve);
    add_run(std::move(run));
  }

  if (is_wanted("PoE")) {
    Stopwatch sw;
    TaskModel model = env.pool->Query(tasks).ValueOrDie();
    const double assemble_seconds = sw.ElapsedSeconds();
    LogitFn fn = [&](const Tensor& x) { return model.Logits(x); };
    ConsolidationRun run;
    run.method = "PoE";
    run.accuracy = EvaluateAccuracy(fn, q_test_local);
    run.train_seconds = assemble_seconds;
    run.seconds_to_best = assemble_seconds;
    run.cost = model.Cost(hw, hw);
    // PoE's "learning curve" is a single instantaneous point (Figure 6).
    CurvePoint point;
    point.epoch = 0;
    point.seconds = assemble_seconds;
    point.accuracy = run.accuracy;
    run.curve.push_back(point);
    add_run(std::move(run));
  }

  return runs;
}

}  // namespace bench
}  // namespace poe
