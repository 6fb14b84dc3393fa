#include "core/profile_dataset.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "gpusim/simulator.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

ProfileConfig tiny_config(int dims) {
  ProfileConfig cfg;
  cfg.dims = dims;
  cfg.num_stencils = 8;
  cfg.samples_per_oc = 2;
  cfg.seed = 101;
  return cfg;
}

TEST(ProfileDataset, ShapesAreConsistent) {
  const auto ds = build_profile_dataset(tiny_config(2));
  EXPECT_EQ(ds.stencils.size(), 8u);
  EXPECT_EQ(ds.gpus.size(), 4u);
  EXPECT_EQ(ds.settings.size(), 8u);
  EXPECT_EQ(ds.times.size(), 8u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(ds.settings[s].size(), ProfileDataset::num_ocs());
    for (std::size_t g = 0; g < 4; ++g) {
      ASSERT_EQ(ds.times[s][g].size(), ProfileDataset::num_ocs());
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        EXPECT_EQ(ds.times[s][g][oc].size(), ds.settings[s][oc].size());
      }
    }
  }
}

TEST(ProfileDataset, DeterministicGivenSeed) {
  const auto a = build_profile_dataset(tiny_config(2));
  const auto b = build_profile_dataset(tiny_config(2));
  for (std::size_t s = 0; s < a.stencils.size(); ++s) {
    EXPECT_EQ(a.stencils[s], b.stencils[s]);
    for (std::size_t g = 0; g < 4; ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        for (std::size_t k = 0; k < a.times[s][g][oc].size(); ++k) {
          const double ta = a.times[s][g][oc][k];
          const double tb = b.times[s][g][oc][k];
          if (std::isnan(ta)) {
            EXPECT_TRUE(std::isnan(tb));
          } else {
            EXPECT_DOUBLE_EQ(ta, tb);
          }
        }
      }
    }
  }
}

TEST(ProfileDataset, SettingsSharedAcrossGpus) {
  // The identity of a measured instance is (stencil, OC, setting index) —
  // the same setting list must be measured on every GPU.
  const auto ds = build_profile_dataset(tiny_config(3));
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      for (std::size_t g = 0; g < 4; ++g) {
        EXPECT_EQ(ds.times[s][g][oc].size(), ds.settings[s][oc].size());
      }
    }
  }
}

TEST(ProfileDataset, BestOcIsArgminOfOcBestTimes) {
  const auto ds = build_profile_dataset(tiny_config(2));
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t g = 0; g < 4; ++g) {
      const int best = ds.best_oc(s, g);
      ASSERT_GE(best, 0);
      const double best_time = ds.oc_best_time(s, g, static_cast<std::size_t>(best));
      EXPECT_DOUBLE_EQ(best_time, ds.best_time(s, g));
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        if (ds.oc_ok(s, g, oc)) {
          EXPECT_GE(ds.oc_best_time(s, g, oc), best_time);
        }
      }
      EXPECT_GE(ds.worst_time(s, g), best_time);
    }
  }
}

TEST(ProfileDataset, BestSettingIndexConsistent) {
  const auto ds = build_profile_dataset(tiny_config(2));
  for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
    const int k = ds.oc_best_setting(0, 0, oc);
    if (k < 0) {
      EXPECT_FALSE(ds.oc_ok(0, 0, oc));
    } else {
      EXPECT_DOUBLE_EQ(ds.times[0][0][oc][static_cast<std::size_t>(k)],
                       ds.oc_best_time(0, 0, oc));
    }
  }
}

TEST(ProfileDataset, StencilOrdersMixed) {
  ProfileConfig cfg = tiny_config(2);
  cfg.num_stencils = 40;
  const auto ds = build_profile_dataset(cfg);
  std::set<int> orders;
  for (const auto& p : ds.stencils) orders.insert(p.order());
  EXPECT_GT(orders.size(), 2u);
  for (int o : orders) {
    EXPECT_GE(o, 1);
    EXPECT_LE(o, cfg.max_order);
  }
}

TEST(ProfileDataset, InstancesCounted) {
  const auto ds = build_profile_dataset(tiny_config(2));
  EXPECT_GT(ds.num_instances(), 0u);
  // At most stencils x OCs x samples distinct instances.
  EXPECT_LE(ds.num_instances(),
            8u * ProfileDataset::num_ocs() * 2u);
}

TEST(ProfileDataset, AllNanOcReportsCrashedSentinels) {
  // Synthetic dataset: OC 0 crashed on every sampled setting, OC 1 has one
  // survivor. The crashed-variant accessors must report the documented
  // sentinels (+inf best time, -1 best setting, ok == false).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ProfileDataset ds;
  ds.gpus = {gpusim::gpu_by_name("V100")};
  ds.stencils = {stencil::make_star(2, 1)};
  // One time vector per valid OC (best_oc scans all of them): OC 0 crashed
  // on both samples, OC 1 survived once, the rest are slow-but-alive.
  ds.settings.assign(
      1, std::vector<std::vector<gpusim::ParamSetting>>(
             ProfileDataset::num_ocs(), {gpusim::ParamSetting{},
                                         gpusim::ParamSetting{}}));
  ds.times.assign(1, {std::vector<std::vector<double>>(
                         ProfileDataset::num_ocs(), {50.0, 60.0})});
  ds.times[0][0][0] = {nan, nan};
  ds.times[0][0][1] = {nan, 3.5};

  EXPECT_FALSE(ds.oc_ok(0, 0, 0));
  EXPECT_EQ(ds.oc_best_time(0, 0, 0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(ds.oc_best_setting(0, 0, 0), -1);

  EXPECT_TRUE(ds.oc_ok(0, 0, 1));
  EXPECT_DOUBLE_EQ(ds.oc_best_time(0, 0, 1), 3.5);
  EXPECT_EQ(ds.oc_best_setting(0, 0, 1), 1);

  EXPECT_EQ(ds.best_oc(0, 0), 1);
  EXPECT_DOUBLE_EQ(ds.best_time(0, 0), 3.5);
}

TEST(ProfileDataset, CrashedSentinelsConsistentUnderParallelBuild) {
  // Scan a parallel-built 3D corpus (3D is where SH/MB combinations crash;
  // see simulator.hpp) and require the crashed-variant trio to agree for
  // every (stencil, gpu, oc) cell the parallel build produced.
  ProfileConfig cfg = tiny_config(3);
  cfg.num_stencils = 16;
  const auto ds = build_profile_dataset(cfg);
  std::size_t all_nan_cells = 0;
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        const bool ok = ds.oc_ok(s, g, oc);
        const double best = ds.oc_best_time(s, g, oc);
        const int k = ds.oc_best_setting(s, g, oc);
        if (ok) {
          ASSERT_GE(k, 0);
          ASSERT_TRUE(std::isfinite(best));
          EXPECT_DOUBLE_EQ(ds.times[s][g][oc][static_cast<std::size_t>(k)],
                           best);
        } else {
          ++all_nan_cells;
          EXPECT_EQ(k, -1);
          EXPECT_EQ(best, std::numeric_limits<double>::infinity());
          for (double t : ds.times[s][g][oc]) EXPECT_TRUE(std::isnan(t));
        }
      }
    }
  }
  EXPECT_GT(all_nan_cells, 0u) << "expected at least one all-crashed OC cell";
}

TEST(ProfileDataset, CrashesPresentFor3d) {
  ProfileConfig cfg = tiny_config(3);
  cfg.num_stencils = 12;
  const auto ds = build_profile_dataset(cfg);
  bool any_crash = false;
  for (std::size_t s = 0; s < ds.stencils.size() && !any_crash; ++s) {
    for (std::size_t g = 0; g < 4 && !any_crash; ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        for (double t : ds.times[s][g][oc]) {
          if (std::isnan(t)) {
            any_crash = true;
            break;
          }
        }
      }
    }
  }
  EXPECT_TRUE(any_crash);
}

/// The two-phase sweep (one cached analysis per work unit, DESIGN.md §10)
/// stores exactly what a one-shot Simulator::measure of each (stencil, OC,
/// GPU, setting) returns: time_ms when ok, NaN otherwise, bit for bit.
void expect_sweep_matches_per_setting_measure(int dims) {
  ProfileConfig cfg = tiny_config(dims);
  cfg.num_stencils = 12;
  const auto ds = build_profile_dataset(cfg);
  const gpusim::Simulator sim(cfg.sim);
  const auto& ocs = gpusim::valid_combinations();
  std::size_t measured = 0;
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      for (std::size_t o = 0; o < ocs.size(); ++o) {
        const auto& times = ds.times[s][g][o];
        ASSERT_EQ(times.size(), ds.settings[s][o].size());
        for (std::size_t k = 0; k < times.size(); ++k) {
          const auto prof = sim.measure(ds.stencils[s], ds.problems[s], ocs[o],
                                        ds.settings[s][o][k], ds.gpus[g]);
          const double want = prof.ok
                                  ? prof.time_ms
                                  : std::numeric_limits<double>::quiet_NaN();
          ASSERT_EQ(std::bit_cast<std::uint64_t>(times[k]),
                    std::bit_cast<std::uint64_t>(want))
              << dims << "-D stencil " << s << " gpu " << g << " oc " << o
              << " setting " << k;
          ++measured;
        }
      }
    }
  }
  EXPECT_GT(measured, 0u);
}

TEST(ProfileDataset, SweepMatchesPerSettingMeasureBitwise) {
  expect_sweep_matches_per_setting_measure(2);
  expect_sweep_matches_per_setting_measure(3);
}

TEST(ProfileDataset, SweepMatchesPerSettingMeasureBitwiseSerial) {
  const util::SerialSection serial;
  expect_sweep_matches_per_setting_measure(2);
  expect_sweep_matches_per_setting_measure(3);
}

}  // namespace
}  // namespace smart::core
