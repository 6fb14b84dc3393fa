#include "core/mart.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "gpusim/tuner.hpp"
#include "stencil/features.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

/// Batches with fewer distinct variants than this tune on the calling
/// thread instead of fanning out on the task pool. Measured with
/// advise_batch on the golden 2-D model at SMART_THREADS=2 (the serve
/// benchmark's setting) on a 4-vCPU AVX-512 host, CPU per variant fanned
/// out vs on the calling thread: one advise (4 variants) 13.1 vs 8.2 us,
/// two (8) 11.1 vs 8.4 us, three (12) 10.5 vs 8.2 us. A serve_cold batch
/// holds 1-2 requests. From 16 variants on the fan-out's CPU premium is
/// about a quarter, and the batch's latency halves in exchange.
constexpr std::size_t kInlineTuneVariants = 16;

}  // namespace

StencilMart::StencilMart(MartConfig config) : config_(std::move(config)) {}

void StencilMart::train() {
  dataset_ = std::make_unique<ProfileDataset>(
      build_profile_dataset(config_.profile));
  fit_models();
}

void StencilMart::train(ProfileDataset dataset) {
  if (dataset.stencils.empty()) {
    throw std::invalid_argument("StencilMart::train: empty corpus");
  }
  dataset_ = std::make_unique<ProfileDataset>(std::move(dataset));
  config_.profile = dataset_->config;
  fit_models();
}

void StencilMart::fit_models() {
  merger_.fit(*dataset_);

  // One classifier per GPU (the paper trains per target architecture).
  // Labels are checked serially first, so a corpus with no labelled
  // stencil on several GPUs always names the first of them.
  const std::size_t num_gpus = dataset_->num_gpus();
  std::vector<std::vector<std::size_t>> rows(num_gpus);
  std::vector<std::vector<int>> y(num_gpus);
  for (std::size_t g = 0; g < num_gpus; ++g) {
    const auto labels = true_groups(*dataset_, merger_, g);
    for (std::size_t s = 0; s < labels.size(); ++s) {
      if (labels[s] >= 0) {
        rows[g].push_back(s);
        y[g].push_back(labels[s]);
      }
    }
    if (rows[g].empty()) {
      // Every stencil quarantined/crashed on this GPU: nothing to learn
      // from, and GbdtClassifier::fit on a 0-row matrix would fail deep in
      // the tree builder with an unhelpful message.
      throw std::runtime_error(
          "StencilMart::train: no labelled stencils for GPU '" +
          dataset_->gpus[g].name +
          "' (every work unit crashed or was quarantined)");
    }
  }
  const ml::Matrix features = stencil_feature_matrix(*dataset_);
  regression_ = std::make_unique<RegressionTask>(*dataset_, config_.regression);

  // The regressor and the classifiers are independent, deterministic fits:
  // run them side by side, the regressor (the longest) first. Each task
  // runs its own inner loops inline, writes only its own model and seeds
  // its own generator, so the models are the same bits at any thread count.
  std::vector<ml::GbdtClassifier> classifiers(num_gpus);
  {
    const util::PhaseTimer timer("mart.fit_models", num_gpus + 1);
    util::parallel_for(num_gpus + 1, [&](std::size_t task) {
      const util::SerialSection inline_loops;
      if (task == 0) {
        regression_->fit_full(config_.regressor);
        return;
      }
      const std::size_t g = task - 1;
      classifiers[g].fit(features.gather_rows(rows[g]), y[g],
                         merger_.num_groups());
    });
  }
  classifiers_ = std::move(classifiers);
  trained_ = true;
}

OcAdvice StencilMart::advise(const stencil::StencilPattern& pattern,
                             const std::string& gpu_name) const {
  if (!trained_) throw std::logic_error("StencilMart::advise before train()");
  return advise_one({pattern, gpu_name, /*recommend=*/false}).advice;
}

GpuRecommendation StencilMart::recommend_gpu(
    const stencil::StencilPattern& pattern) const {
  if (!trained_) throw std::logic_error("StencilMart::recommend_gpu before train()");
  // The fold covers every GPU; the item's own advice is the first GPU's,
  // one of the variants the fold needs anyway.
  return advise_one({pattern, dataset_->gpus.front().name, /*recommend=*/true})
      .rec;
}

AdviseBatchResult StencilMart::advise_one(const AdviseBatchItem& item) const {
  std::size_t g = 0;
  switch (const QueryFault fault = check_query(item, g)) {
    case QueryFault::kDims:
      throw std::invalid_argument(fault_message(fault, item.gpu));
    case QueryFault::kUnknownGpu:
      throw std::out_of_range(fault_message(fault, item.gpu));
    case QueryFault::kNone:
      break;
  }
  std::vector<AdviseBatchResult> results = advise_batch({&item, 1});
  if (!results[0].ok()) throw std::runtime_error(results[0].error);
  return std::move(results[0]);
}

StencilMart::QueryFault StencilMart::check_query(const AdviseBatchItem& item,
                                                 std::size_t& g) const {
  if (item.pattern.dims() != config_.profile.dims) return QueryFault::kDims;
  for (g = 0; g < dataset_->num_gpus(); ++g) {
    if (dataset_->gpus[g].name == item.gpu) return QueryFault::kNone;
  }
  return QueryFault::kUnknownGpu;
}

std::string StencilMart::fault_message(QueryFault fault,
                                       const std::string& gpu) {
  if (fault == QueryFault::kDims) {
    return "StencilMart::advise: pattern dimensionality differs from the "
           "training corpus";
  }
  return "StencilMart: unknown GPU " + gpu;
}

std::size_t StencilMart::feature_width() const {
  return 3 + 2 * static_cast<std::size_t>(config_.profile.max_order);
}

void StencilMart::feature_row(const stencil::StencilPattern& pattern,
                              float* out) const {
  const auto fv = stencil::extract_features(pattern, config_.profile.max_order)
                      .to_vector();
  std::copy(fv.begin(), fv.end(), out);
}

OcAdvice StencilMart::classify_row(std::span<const float> row,
                                   std::size_t g) const {
  OcAdvice advice;
  advice.group = classifiers_[g].predict_row(row);
  advice.group_name = merger_.group_name(advice.group);
  const int rep = merger_.representative(advice.group);
  advice.oc = gpusim::valid_combinations()[static_cast<std::size_t>(rep)];
  return advice;
}

void StencilMart::tune_variant(const stencil::StencilPattern& pattern,
                               std::size_t g, OcAdvice& advice) const {
  // Tune the advised OC only (this is the whole point: 1/30 of the cost).
  const gpusim::Simulator sim(config_.profile.sim);
  const gpusim::RandomSearchTuner tuner(sim, config_.tuning_samples);
  util::Rng rng(util::hash_combine(pattern.hash(), g));
  const auto problem = gpusim::ProblemSize::paper_default(pattern.dims());
  auto result = tuner.tune(pattern, problem, advice.oc, dataset_->gpus[g], rng);
  if (!result.ok()) {
    // The representative crashed everywhere: fall back to the group's
    // members in win order.
    for (int member : merger_.members(advice.group)) {
      const auto& oc = gpusim::valid_combinations()[static_cast<std::size_t>(member)];
      result = tuner.tune(pattern, problem, oc, dataset_->gpus[g], rng);
      if (result.ok()) {
        advice.oc = oc;
        break;
      }
    }
  }
  if (!result.ok()) {
    throw std::runtime_error("StencilMart::advise: no runnable variant in group " +
                             advice.group_name);
  }
  advice.setting = *result.best_setting;
  advice.expected_time_ms = result.best_time_ms;
}

std::vector<AdviseBatchResult> StencilMart::advise_batch(
    std::span<const AdviseBatchItem> items) const {
  if (!trained_) throw std::logic_error("StencilMart::advise before train()");
  const std::size_t num_gpus = dataset_->num_gpus();
  std::vector<AdviseBatchResult> results(items.size());

  // Distinct (stencil, GPU) variants needed by the batch: each is
  // classified + tuned exactly once, however many items reference it.
  // Each job reads the feature row of the item that first asked for it.
  struct VariantJob {
    const stencil::StencilPattern* pattern = nullptr;
    std::size_t g = 0;
    std::size_t item = 0;
    OcAdvice advice{};
    std::string error;
  };
  std::size_t max_jobs = 0;
  for (const AdviseBatchItem& item : items) {
    max_jobs += item.recommend ? num_gpus : 1;
  }
  std::vector<VariantJob> jobs;
  jobs.reserve(max_jobs);
  // Open-addressing table of job indices, keyed by (pattern hash, GPU) and
  // confirmed by comparing the patterns; at most half full.
  constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
  std::size_t table_size = 16;
  while (table_size < 2 * max_jobs) table_size *= 2;
  std::vector<std::size_t> table(table_size, kNoJob);
  const auto job_for = [&](std::size_t item, std::uint64_t pattern_hash,
                           std::size_t g) {
    const stencil::StencilPattern& pattern = items[item].pattern;
    std::size_t slot = util::hash_combine(pattern_hash, g) & (table_size - 1);
    for (;; slot = (slot + 1) & (table_size - 1)) {
      const std::size_t j = table[slot];
      if (j == kNoJob) break;
      if (jobs[j].g == g && *jobs[j].pattern == pattern) return j;
    }
    table[slot] = jobs.size();
    jobs.push_back(VariantJob{&pattern, g, item, {}, {}});
    return jobs.size() - 1;
  };

  // Per item: its own job, then (recommend only) one job per GPU in GPU
  // order, stored flat at rec_jobs[i * num_gpus + g].
  std::vector<std::size_t> own_job(items.size(), kNoJob);
  std::vector<std::size_t> rec_jobs;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const AdviseBatchItem& item = items[i];
    std::size_t g = 0;
    const QueryFault fault = check_query(item, g);
    if (fault != QueryFault::kNone) {
      results[i].error = fault_message(fault, item.gpu);
      continue;
    }
    const std::uint64_t pattern_hash = item.pattern.hash();
    own_job[i] = job_for(i, pattern_hash, g);
    if (item.recommend) {
      if (rec_jobs.empty()) rec_jobs.assign(items.size() * num_gpus, kNoJob);
      for (std::size_t c = 0; c < num_gpus; ++c) {
        rec_jobs[i * num_gpus + c] = job_for(i, pattern_hash, c);
      }
    }
  }

  // Each item's classifier row: its Table II features, extracted once per
  // item rather than once per GPU, classify every job of the item and are
  // the stencil features of its regression queries.
  const std::size_t width = feature_width();
  std::vector<float> rows(items.size() * width);
  {
    const util::PhaseTimer timer("advisor.batch_tune", jobs.size());
    {
      // One classifier walk per variant is a few microseconds: a serial
      // pass costs less than a pool hand-off. An item whose extraction
      // throws passes the message to each of its jobs.
      const util::PhaseTimer classify("advisor.classify", jobs.size());
      std::vector<std::string> row_error;  // sized at the first failure
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (own_job[i] == kNoJob) continue;
        try {
          feature_row(items[i].pattern, rows.data() + i * width);
        } catch (const std::exception& e) {
          row_error.resize(items.size());
          row_error[i] = e.what();
        }
      }
      for (VariantJob& job : jobs) {
        if (!row_error.empty() && !row_error[job.item].empty()) {
          job.error = row_error[job.item];
          continue;
        }
        try {
          job.advice =
              classify_row({rows.data() + job.item * width, width}, job.g);
        } catch (const std::exception& e) {
          job.error = e.what();
        }
      }
    }
    // Tuning dominates the batch cost; jobs are independent and their RNG
    // is derived from (pattern hash, GPU), so the result is order- and
    // thread-count-invariant. Small batches tune on this thread.
    const util::PhaseTimer tune("advisor.tune", jobs.size());
    const auto tune_job = [&](std::size_t j) {
      VariantJob& job = jobs[j];
      if (!job.error.empty()) return;
      try {
        tune_variant(*job.pattern, job.g, job.advice);
      } catch (const std::exception& e) {
        job.error = e.what();
      }
    };
    if (jobs.size() < kInlineTuneVariants) {
      for (std::size_t j = 0; j < jobs.size(); ++j) tune_job(j);
    } else {
      util::parallel_for(jobs.size(), tune_job);
    }
  }

  // ONE batched regression call for every prediction the batch needs, in
  // job order over the jobs without an error.
  std::vector<VariantQuery> queries;
  queries.reserve(jobs.size());
  for (const VariantJob& job : jobs) {
    if (!job.error.empty()) continue;
    queries.push_back(
        {job.pattern, {rows.data() + job.item * width, width},
         gpusim::ProblemSize::paper_default(job.pattern->dims()),
         static_cast<std::size_t>(gpusim::oc_index(job.advice.oc)),
         job.advice.setting, job.g});
  }
  if (!queries.empty()) {
    const std::vector<double> predicted = regression_->predict_variants(queries);
    std::size_t q = 0;
    for (VariantJob& job : jobs) {
      if (job.error.empty()) job.advice.predicted_time_ms = predicted[q++];
    }
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!results[i].error.empty()) continue;
    AdviseBatchResult& out = results[i];
    const VariantJob& own = jobs[own_job[i]];
    if (!own.error.empty()) {
      out.error = own.error;
      continue;
    }
    out.advice = own.advice;
    if (!items[i].recommend) continue;
    // The recommend fold: the fastest predicted GPU, and the cheapest by
    // predicted time x rental price among the GPUs that have a price.
    double best_time = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < num_gpus && out.error.empty(); ++g) {
      const VariantJob& job = jobs[rec_jobs[i * num_gpus + g]];
      if (!job.error.empty()) {
        out.error = job.error;
        break;
      }
      const double predicted_time_ms = job.advice.predicted_time_ms;
      if (predicted_time_ms < best_time) {
        best_time = predicted_time_ms;
        out.rec.fastest_gpu = dataset_->gpus[g].name;
        out.rec.fastest_time_ms = predicted_time_ms;
      }
      const double price = dataset_->gpus[g].rental_usd_hr;
      if (price > 0.0) {
        const double score = predicted_time_ms * price;
        if (score < best_cost) {
          best_cost = score;
          out.rec.cheapest_gpu = dataset_->gpus[g].name;
          out.rec.cheapest_cost_score = score;
        }
      }
    }
  }
  return results;
}

}  // namespace smart::core
