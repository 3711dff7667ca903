// Interval-planner unit tests: MTBF estimation from observed failures,
// the Daly closed form, the interval it plans from those measurements,
// and the should_save() cadence helper. The planner is process-global, so
// every test resets it on entry and exit.

#include "sessmpi/ckpt/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::ckpt {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override { planner().reset(); }
  void TearDown() override { planner().reset(); }
};

TEST_F(PlannerTest, MtbfNeedsTwoFailures) {
  EXPECT_EQ(planner().mtbf_ns(), 0);
  planner().note_failure(1'000);
  EXPECT_EQ(planner().mtbf_ns(), 0);  // one failure is not a rate
  planner().note_failure(11'000);
  EXPECT_EQ(planner().mtbf_ns(), 10'000);
  planner().note_failure(21'000);
  EXPECT_EQ(planner().mtbf_ns(), 10'000);  // (21000 - 1000) / 2
  EXPECT_EQ(planner().failures(), 3u);
}

TEST_F(PlannerTest, SaveCostIsAnEwma) {
  planner().note_save_cost(1000);
  EXPECT_EQ(planner().save_cost_ns(), 1000);
  planner().note_save_cost(2000);
  EXPECT_EQ(planner().save_cost_ns(), (3 * 1000 + 2000) / 4);
  planner().note_save_cost(0);   // ignored
  planner().note_save_cost(-5);  // ignored
  EXPECT_EQ(planner().save_cost_ns(), 1250);
}

TEST_F(PlannerTest, DalyClosedForm) {
  constexpr std::int64_t delta = 2'000'000;     // 2 ms save
  constexpr std::int64_t mtbf = 1'000'000'000;  // 1 s MTBF
  const double young = std::sqrt(2.0 * static_cast<double>(delta) *
                                 static_cast<double>(mtbf));
  // Daly's higher-order correction lands near Young's sqrt(2 delta M) for
  // small delta/M (the -delta term pulls it slightly below) and caps at M
  // once delta >= 2M, where Young's value would exceed the MTBF.
  const std::int64_t d = IntervalPlanner::daly(delta, mtbf);
  EXPECT_GT(static_cast<double>(d), young / 2);
  EXPECT_LT(static_cast<double>(d), young);
  EXPECT_EQ(IntervalPlanner::daly(2 * mtbf, mtbf), mtbf);
  EXPECT_EQ(IntervalPlanner::daly(0, mtbf), 0);
  EXPECT_EQ(IntervalPlanner::daly(delta, 0), 0);
}

TEST_F(PlannerTest, EffectiveIntervalIsPlannedFromMeasurements) {
  // Nothing measured: no interval, so should_save() fires on every call.
  EXPECT_EQ(planner().effective_interval_ns(), 0);
  planner().note_save_cost(1'000'000);
  EXPECT_EQ(planner().effective_interval_ns(), 0);  // no MTBF yet
  planner().note_failure(0);
  planner().note_failure(100'000'000);
  EXPECT_EQ(planner().effective_interval_ns(),
            IntervalPlanner::daly(1'000'000, 100'000'000));
  // The gauge mirrors the same number through the MPI_T surface.
  EXPECT_EQ(obs::pvar_read_gauge("ckpt.planner.interval_ns").value_or(0),
            static_cast<std::uint64_t>(planner().effective_interval_ns()));
}

TEST_F(PlannerTest, ShouldSaveArmsDeadlinesFromTheEffectiveInterval) {
  Checkpointer ck("planner-cadence");
  // No interval planned yet: every call says "save now".
  EXPECT_TRUE(ck.should_save(0));
  EXPECT_TRUE(ck.should_save(1));

  // Save cost 1 us, MTBF 1 s: Daly plans an interval of ~1.41 ms.
  planner().note_save_cost(1'000);
  planner().note_failure(0);
  planner().note_failure(1'000'000'000);
  const std::int64_t tau = planner().effective_interval_ns();
  ASSERT_GT(tau, 1'000'000);
  EXPECT_EQ(tau, IntervalPlanner::daly(1'000, 1'000'000'000));
  EXPECT_TRUE(ck.should_save(10));  // first due call arms deadline 10 + tau
  EXPECT_FALSE(ck.should_save(tau / 2));
  EXPECT_FALSE(ck.should_save(10 + tau - 1));
  EXPECT_TRUE(ck.should_save(10 + tau));  // fires and re-arms at 10 + 2 tau
  EXPECT_FALSE(ck.should_save(10 + tau + 1));

  // Forgetting the measurements drops the interval back to zero, which
  // disarms the deadline.
  planner().reset();
  EXPECT_TRUE(ck.should_save(10 + tau + 2));
}

}  // namespace
}  // namespace sessmpi::ckpt
