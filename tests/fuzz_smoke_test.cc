// Differential-fuzzer smoke tests:
//
//   * every optimization preset survives a 10k-op differential run at a fixed seed with
//     zero divergences (the reload strategy rotates with the preset index so the suite
//     covers all three), and every preset executes strided touch runs, so UserTouchRun
//     stays checked in lockstep against the oracle;
//   * a planted kernel bug (eager page flush skips its tlbie) is detected and the
//     minimizer shrinks the failing stream to a handful of ops that still reproduce it;
//   * streams serialize to replay files and back losslessly, and generation is
//     deterministic per seed.

#include <gtest/gtest.h>

#include <string>

#include "src/verify/fuzz/differential.h"
#include "src/verify/fuzz/minimize.h"

namespace ppcmm {
namespace {

class FuzzPresetSmoke : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPresetSmoke, TenThousandOpsNoDivergence) {
  const int index = GetParam();
  const FuzzPreset preset = FuzzPresets()[static_cast<size_t>(index)];

  DifferentialOptions options;
  options.config = preset.config;
  options.config_name = preset.name;
  const ReloadStrategy strategies[] = {ReloadStrategy::kSoftwareDirect,
                                       ReloadStrategy::kSoftwareHtab,
                                       ReloadStrategy::kHardwareHtabWalk};
  options.strategy = strategies[index % 3];
  options.check_period = 2000;

  const FuzzStream stream = GenerateStream(0xF00D + static_cast<uint64_t>(index), 10000);
  const DifferentialResult result = RunDifferential(stream, options);
  EXPECT_FALSE(result.diverged) << result.report;
  // The stream must be doing real work, not degenerating into skips.
  EXPECT_GT(result.ops_executed, 5000u);
  EXPECT_GT(result.coverage.executed[static_cast<uint32_t>(FuzzOpKind::kFork)], 0u);
  EXPECT_GT(result.coverage.executed[static_cast<uint32_t>(FuzzOpKind::kMmap)], 0u);
  EXPECT_GT(result.coverage.executed[static_cast<uint32_t>(FuzzOpKind::kFbTouch)], 0u);
  EXPECT_GT(result.coverage.executed[static_cast<uint32_t>(FuzzOpKind::kTouchRun)], 0u);
}

std::string PresetCaseName(const ::testing::TestParamInfo<int>& info) {
  return FuzzPresets()[static_cast<size_t>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, FuzzPresetSmoke,
                         ::testing::Range(0, static_cast<int>(FuzzPresets().size())),
                         PresetCaseName);

// Plant the test-only flush bug, prove the differential run catches it, and prove the
// minimizer shrinks the repro to a few ops that still diverge after a serialize/parse
// round trip — the full report-to-replay pipeline.
TEST(FuzzMinimizer, ShrinksPlantedDivergenceToAFewOps) {
  DifferentialOptions options;
  options.config = OptimizationConfig::Baseline();
  options.config_name = "baseline";
  options.strategy = ReloadStrategy::kSoftwareHtab;
  options.check_period = 200;
  options.break_tlb_invalidate = true;

  const FuzzStream stream = GenerateStream(0xBADF1u, 600);
  const DifferentialResult planted = RunDifferential(stream, options);
  ASSERT_TRUE(planted.diverged) << "planted tlbie bug went undetected";

  MinimizeOptions min_options;
  min_options.run = options;
  const MinimizeResult shrunk = MinimizeStream(stream, min_options);
  EXPECT_LE(shrunk.minimized.ops.size(), 5u)
      << "minimized repro should be a handful of ops:\n"
      << SerializeStream(shrunk.minimized);
  EXPECT_TRUE(shrunk.failure.diverged);
  EXPECT_FALSE(shrunk.failure.report.empty());

  // The written replay must reproduce the divergence byte-for-byte.
  FuzzStream reparsed;
  std::string error;
  ASSERT_TRUE(ParseStream(SerializeStream(shrunk.minimized), &reparsed, &error)) << error;
  DifferentialOptions replay_run = options;
  replay_run.check_period = 1;
  EXPECT_TRUE(RunDifferential(reparsed, replay_run).diverged);

  // And without the sabotage, the minimized stream is clean: the repro points at the
  // planted bug, not at some latent real one.
  DifferentialOptions healthy = replay_run;
  healthy.break_tlb_invalidate = false;
  const DifferentialResult clean = RunDifferential(reparsed, healthy);
  EXPECT_FALSE(clean.diverged) << clean.report;
}

// SMP lockstep: the same SMP-weighted stream must run divergence-free at every machine
// width. At ncpus=1 every cpu_switch op is skipped (the stream degenerates to the
// uniprocessor mix); at 2 and 4 the oracle tracks per-CPU current tasks and the runner
// asserts the kernel agrees after every op and at every full cross-check.
class FuzzSmpLockstep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzSmpLockstep, TenThousandOpsNoDivergence) {
  const uint32_t ncpus = GetParam();
  const FuzzStream stream = GenerateSmpStream(0x54B00 + ncpus, 10000);

  for (const char* preset_name : {"baseline", "all"}) {
    const FuzzPreset preset = FuzzPresetByName(preset_name);
    DifferentialOptions options;
    options.config = preset.config;
    options.config_name = preset.name;
    options.strategy =
        ncpus == 4 ? ReloadStrategy::kHardwareHtabWalk : ReloadStrategy::kSoftwareHtab;
    options.check_period = 2000;
    options.ncpus = ncpus;

    const DifferentialResult result = RunDifferential(stream, options);
    EXPECT_FALSE(result.diverged) << "ncpus=" << ncpus << " preset=" << preset_name << "\n"
                                  << result.report;
    EXPECT_GT(result.ops_executed, 5000u);
    const uint64_t hops =
        result.coverage.executed[static_cast<uint32_t>(FuzzOpKind::kCpuSwitch)];
    if (ncpus == 1) {
      EXPECT_EQ(hops, 0u) << "cpu_switch must be skipped on a uniprocessor";
    } else {
      EXPECT_GT(hops, 100u) << "SMP stream must actually hop CPUs";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FuzzSmpLockstep, ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "ncpus" + std::to_string(param_info.param);
                         });

// The planted tlbie bug must be just as catchable — and just as minimizable — on a
// multi-CPU machine, where the stale entry can sit in a *remote* CPU's TLB.
TEST(FuzzMinimizer, ShrinksPlantedDivergenceAtFourCpus) {
  DifferentialOptions options;
  options.config = OptimizationConfig::Baseline();
  options.config_name = "baseline";
  options.strategy = ReloadStrategy::kSoftwareHtab;
  options.check_period = 100;
  options.break_tlb_invalidate = true;
  options.ncpus = 4;

  const FuzzStream stream = GenerateSmpStream(0x5111Au, 600);
  const DifferentialResult planted = RunDifferential(stream, options);
  ASSERT_TRUE(planted.diverged) << "planted tlbie bug went undetected at ncpus=4";

  MinimizeOptions min_options;
  min_options.run = options;
  const MinimizeResult shrunk = MinimizeStream(stream, min_options);
  EXPECT_LE(shrunk.minimized.ops.size(), 8u)
      << "minimized SMP repro should be a handful of ops:\n"
      << SerializeStream(shrunk.minimized);
  EXPECT_TRUE(shrunk.failure.diverged);

  // Clean without the sabotage: the repro points at the planted bug.
  DifferentialOptions healthy = options;
  healthy.break_tlb_invalidate = false;
  healthy.check_period = 1;
  EXPECT_FALSE(RunDifferential(shrunk.minimized, healthy).diverged);
}

// A broken *shootdown* (IPIs land, remote handler forgets the invalidation) is invisible
// on one CPU and invisible without task migration — the stale entry sits in a TLB the
// spotlight has left. The fuzzer must catch it at ncpus=4, and the ddmin-minimized repro
// must retain a cpu_switch op because the hop is load-bearing. The minimized stream for
// this seed is checked in as tests/replays/smp_shootdown_migration.replay.
TEST(FuzzMinimizer, BrokenShootdownNeedsACpuHopToReproduce) {
  DifferentialOptions options;
  options.config = OptimizationConfig::Baseline();
  options.config_name = "baseline";
  options.strategy = ReloadStrategy::kSoftwareHtab;
  options.check_period = 100;
  options.break_shootdown = true;
  options.ncpus = 4;

  const FuzzStream stream = GenerateSmpStream(0x5D000u, 600);
  const DifferentialResult planted = RunDifferential(stream, options);
  ASSERT_TRUE(planted.diverged) << "planted shootdown bug went undetected at ncpus=4";

  // The identical stream and sabotage on a uniprocessor: ShootdownRound never runs, so the
  // bug is unreachable and the run must be clean.
  DifferentialOptions uni = options;
  uni.ncpus = 1;
  EXPECT_FALSE(RunDifferential(stream, uni).diverged);

  MinimizeOptions min_options;
  min_options.run = options;
  const MinimizeResult shrunk = MinimizeStream(stream, min_options);
  EXPECT_LE(shrunk.minimized.ops.size(), 12u) << SerializeStream(shrunk.minimized);
  uint32_t hops = 0;
  for (const FuzzOp& op : shrunk.minimized.ops) {
    hops += op.kind == FuzzOpKind::kCpuSwitch ? 1 : 0;
  }
  EXPECT_GE(hops, 1u) << "the minimized shootdown repro lost its CPU hop:\n"
                      << SerializeStream(shrunk.minimized);

  // Clean with a working shootdown: the repro points at the planted bug, not a real one.
  DifferentialOptions healthy = options;
  healthy.break_shootdown = false;
  healthy.check_period = 1;
  EXPECT_FALSE(RunDifferential(shrunk.minimized, healthy).diverged);
}

// GenerateSmpStream with zero extra weight is byte-identical to GenerateStream: the SMP
// kind rides at weight 0 in the base table, so pre-SMP (seed, op_count) pairs keep
// producing the exact streams the replay corpus and bug reports were recorded against.
TEST(FuzzStreamFormat, SmpGeneratorWithZeroWeightMatchesBaseGenerator) {
  const FuzzStream base = GenerateStream(0xC0FFEE, 2000);
  const FuzzStream smp = GenerateSmpStream(0xC0FFEE, 2000, /*cpu_switch_weight=*/0);
  ASSERT_EQ(base.ops.size(), smp.ops.size());
  for (size_t i = 0; i < base.ops.size(); ++i) {
    EXPECT_EQ(base.ops[i].kind, smp.ops[i].kind);
    EXPECT_EQ(base.ops[i].a, smp.ops[i].a);
    EXPECT_EQ(base.ops[i].b, smp.ops[i].b);
    EXPECT_EQ(base.ops[i].c, smp.ops[i].c);
  }
}

TEST(FuzzStreamFormat, SerializeParseRoundTrip) {
  const FuzzStream stream = GenerateStream(42, 100);
  FuzzStream reparsed;
  std::string error;
  ASSERT_TRUE(ParseStream(SerializeStream(stream), &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.ops.size(), stream.ops.size());
  EXPECT_EQ(reparsed.seed, stream.seed);
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    EXPECT_EQ(reparsed.ops[i].kind, stream.ops[i].kind);
    EXPECT_EQ(reparsed.ops[i].a, stream.ops[i].a);
    EXPECT_EQ(reparsed.ops[i].b, stream.ops[i].b);
    EXPECT_EQ(reparsed.ops[i].c, stream.ops[i].c);
  }
}

TEST(FuzzStreamFormat, ParseRejectsGarbage) {
  FuzzStream stream;
  std::string error;
  EXPECT_FALSE(ParseStream("", &stream, &error));
  EXPECT_FALSE(ParseStream("not-a-header\n", &stream, &error));
  EXPECT_FALSE(ParseStream("ppcmm-fuzz-replay v1\nwarp 1 2 3\n", &stream, &error));
  EXPECT_FALSE(ParseStream("ppcmm-fuzz-replay v1\ntouch 1 2\n", &stream, &error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(
      ParseStream("ppcmm-fuzz-replay v1\n# a comment\n\nseed 9\ntouch 1 2 3\n", &stream,
                  &error))
      << error;
  EXPECT_EQ(stream.seed, 9u);
  ASSERT_EQ(stream.ops.size(), 1u);
  EXPECT_EQ(stream.ops[0].kind, FuzzOpKind::kTouch);
}

TEST(FuzzStreamFormat, GenerationIsDeterministicPerSeed) {
  const FuzzStream a = GenerateStream(7, 1000);
  const FuzzStream b = GenerateStream(7, 1000);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].a, b.ops[i].a);
  }
  const FuzzStream c = GenerateStream(8, 1000);
  bool any_difference = false;
  for (size_t i = 0; i < c.ops.size(); ++i) {
    any_difference |= c.ops[i].kind != a.ops[i].kind || c.ops[i].a != a.ops[i].a;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ppcmm
