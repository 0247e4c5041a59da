// The online metric fold (sim/online_accounting.hpp) on hand-built event
// streams, checked against values computed by hand: port utilisation on
// two ports, a trailing prefetch past the last retire, the fragmentation
// tail term, the queueing credit of a preemption, signed lateness versus
// tardiness, span recording, forwarding, and malformed-stream errors.

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/online_accounting.hpp"

namespace drhw {
namespace {

using Kind = TraceEvent::Kind;

constexpr double k_load_energy = 4.0;

/// One preparation: ideal 5 ms, 3 DRHW subtasks, execution energy 2.
std::vector<TracePrep> one_prep() {
  TracePrep prep;
  prep.name = "p";
  prep.ideal = ms(5);
  prep.drhw_subtasks = 3;
  prep.exec_energy = 2.0;
  prep.subtasks = 4;
  return {prep};
}

OnlineAccounting make_fold(int ports, bool deadlines = false,
                           bool record_spans = false) {
  AccountingConstants constants;
  constants.reconfig_ports = ports;
  constants.reconfig_energy = k_load_energy;
  constants.deadlines = deadlines;
  constants.record_spans = record_spans;
  OnlineAccounting fold(constants);
  fold.on_preps(one_prep());
  return fold;
}

TraceEvent arrival(time_us t, std::int32_t job, time_us deadline = k_no_time,
                   int crit = 0) {
  TraceEvent ev(Kind::arrival, t, job);
  ev.prep = 0;
  ev.deadline = deadline;
  ev.aux = crit;
  return ev;
}

TraceEvent on_port(Kind kind, time_us t, int port, time_us duration,
                   std::int32_t job = -1) {
  TraceEvent ev(kind, t, job);
  ev.unit = port;
  ev.duration = duration;
  return ev;
}

TraceEvent with_loads(Kind kind, time_us t, std::int32_t job, long loads,
                      long init = 0) {
  TraceEvent ev(kind, t, job);
  ev.loads = loads;
  ev.init = init;
  return ev;
}

TEST(OnlineAccounting, PortSharesOnTwoPortsAreNormalisedAndSumToTheTotal) {
  OnlineAccounting fold = make_fold(2);
  fold.record(arrival(0, 0));
  fold.record(TraceEvent(Kind::admit, 0, 0));
  fold.record(on_port(Kind::load_start, 0, 0, ms(4), 0));
  fold.record(on_port(Kind::load_start, 0, 1, ms(2), 0));
  TraceEvent isp_exec = on_port(Kind::exec_start, ms(4), 0, ms(3), 0);
  isp_exec.aux = 1;
  fold.record(isp_exec);
  fold.record(with_loads(Kind::retire, ms(10), 0, 2));
  EXPECT_EQ(fold.ports().busy(0), ms(4));
  EXPECT_EQ(fold.ports().busy(1), ms(2));
  EXPECT_EQ(fold.ports().total_busy(), ms(6));
  EXPECT_EQ(fold.isp_busy(), ms(3));

  const OnlineReport report = fold.finish();
  EXPECT_EQ(report.horizon, ms(10));
  // 6 ms of port time over 2 ports x 10 ms.
  EXPECT_DOUBLE_EQ(report.port_utilisation_pct, 30.0);
  ASSERT_EQ(report.port_utilisation_per_port_pct.size(), 2u);
  EXPECT_DOUBLE_EQ(report.port_utilisation_per_port_pct[0], 40.0);
  EXPECT_DOUBLE_EQ(report.port_utilisation_per_port_pct[1], 20.0);
  EXPECT_DOUBLE_EQ(report.port_utilisation_per_port_pct[0] +
                       report.port_utilisation_per_port_pct[1],
                   2 * report.port_utilisation_pct);
  EXPECT_DOUBLE_EQ(report.isp_utilisation_pct, 30.0);
  // The instance: span 10 ms against an ideal of 5 ms, 2 of 3 DRHW
  // subtasks loaded.
  EXPECT_EQ(report.sim.instances, 1);
  EXPECT_EQ(report.sim.total_actual, ms(10));
  EXPECT_DOUBLE_EQ(report.sim.overhead_pct, 100.0);
  EXPECT_EQ(report.sim.loads, 2);
  EXPECT_DOUBLE_EQ(report.sim.energy, 2.0 + 2 * k_load_energy);
  EXPECT_DOUBLE_EQ(report.sim.energy_saved, 1 * k_load_energy);
  EXPECT_DOUBLE_EQ(report.mean_response_ms, 10.0);
}

TEST(OnlineAccounting, TrailingPrefetchExtendsTheBusyHorizon) {
  OnlineAccounting fold = make_fold(1);
  fold.record(arrival(0, 0));
  fold.record(TraceEvent(Kind::admit, 0, 0));
  fold.record(on_port(Kind::load_start, 0, 0, ms(2), 0));
  // A backlog prefetch for queued job 1 still runs when job 0 retires.
  fold.record(on_port(Kind::prefetch_start, ms(8), 0, ms(6), 1));
  fold.record(with_loads(Kind::retire, ms(10), 0, 1));
  EXPECT_EQ(fold.ports().latest_free(), ms(14));

  const OnlineReport report = fold.finish();
  EXPECT_EQ(report.horizon, ms(10));
  // 8 ms busy over the 14 ms busy horizon, not over the 10 ms run horizon.
  EXPECT_DOUBLE_EQ(report.port_utilisation_pct, 100.0 * 8.0 / 14.0);
  EXPECT_DOUBLE_EQ(report.port_utilisation_per_port_pct[0],
                   report.port_utilisation_pct);
  EXPECT_EQ(report.sim.intertask_prefetches, 1);
  EXPECT_EQ(report.sim.loads, 2);
  EXPECT_DOUBLE_EQ(report.sim.energy, 2.0 + 2 * k_load_energy);
}

TEST(OnlineAccounting, FragmentationTailHoldsTheFinalValueToTheHorizon) {
  OnlineAccounting fold = make_fold(1);
  TraceEvent sample(Kind::frag, ms(10));
  sample.value = 0.0;  // held over (0, 10 ms]
  fold.record(sample);
  sample.t = ms(20);
  sample.value = 50.0;  // held over (10, 20 ms]
  fold.record(sample);
  // Without an end of run the mean covers the sampled 20 ms only.
  EXPECT_DOUBLE_EQ(fold.finish().mean_frag_pct, 25.0);

  TraceEvent end(Kind::run_end, ms(40));
  end.value = 10.0;  // held over (20, 40 ms]
  fold.record(end);
  const OnlineReport report = fold.finish();
  EXPECT_EQ(report.horizon, ms(40));
  // (0 x 10 + 50 x 10 + 10 x 20) / 40
  EXPECT_DOUBLE_EQ(report.mean_frag_pct, 17.5);
}

TEST(OnlineAccounting, PreemptionGivesItsQueueingBackOnce) {
  OnlineAccounting fold = make_fold(1);
  fold.record(arrival(0, 0));
  fold.record(TraceEvent(Kind::admit, ms(5), 0));
  fold.record(with_loads(Kind::preempt, ms(12), 0, 3, 1));
  fold.record(TraceEvent(Kind::admit, ms(20), 0));
  fold.record(with_loads(Kind::retire, ms(30), 0, 2));

  const OnlineReport report = fold.finish();
  // First wait 5 ms plus the post-preemption wait 8 ms — not 5 + 20.
  EXPECT_DOUBLE_EQ(report.mean_queueing_ms, 13.0);
  EXPECT_DOUBLE_EQ(report.max_queueing_ms, 20.0);
  EXPECT_EQ(report.preemptions, 1);
  // The dropped stint's loads count, and were not saved.
  EXPECT_EQ(report.sim.loads, 5);
  EXPECT_EQ(report.sim.init_loads, 1);
  EXPECT_DOUBLE_EQ(report.sim.energy, 3 * k_load_energy + 2.0 +
                                          2 * k_load_energy);
  EXPECT_DOUBLE_EQ(report.sim.energy_saved,
                   -3 * k_load_energy + 1 * k_load_energy);
  // The span runs from the re-admission; the response from the arrival.
  EXPECT_EQ(report.sim.total_actual, ms(10));
  EXPECT_DOUBLE_EQ(report.mean_response_ms, 30.0);
}

TEST(OnlineAccounting, LatenessIsSignedTardinessIsNot) {
  for (const bool deadlines : {true, false}) {
    OnlineAccounting fold = make_fold(1, deadlines);
    fold.record(arrival(0, 0, ms(10), 0));
    fold.record(arrival(0, 1, ms(10), 1));
    fold.record(TraceEvent(Kind::admit, 0, 0));
    fold.record(TraceEvent(Kind::admit, 0, 1));
    fold.record(with_loads(Kind::retire, ms(7), 0, 0));   // 3 ms early
    fold.record(with_loads(Kind::retire, ms(15), 1, 0));  // 5 ms late

    const OnlineReport report = fold.finish();
    if (!deadlines) {
      EXPECT_EQ(report.deadline_jobs, 0);
      EXPECT_EQ(report.mean_lateness_ms, 0.0);
      EXPECT_EQ(report.max_tardiness_ms, 0.0);
      continue;
    }
    EXPECT_EQ(report.deadline_jobs, 2);
    EXPECT_EQ(report.deadline_misses, 1);
    EXPECT_DOUBLE_EQ(report.deadline_miss_pct, 50.0);
    EXPECT_DOUBLE_EQ(report.mean_lateness_ms, 1.0);  // (-3 + 5) / 2
    EXPECT_DOUBLE_EQ(report.max_tardiness_ms, 5.0);
    EXPECT_EQ(report.high_crit_jobs, 1);
    EXPECT_EQ(report.high_crit_misses, 1);
    EXPECT_DOUBLE_EQ(report.high_crit_miss_pct, 100.0);
  }
}

TEST(OnlineAccounting, RecordSpansKeepsArrivalOrder) {
  for (const bool record_spans : {true, false}) {
    OnlineAccounting fold = make_fold(1, false, record_spans);
    for (std::int32_t j = 0; j < 3; ++j) {
      fold.record(arrival(ms(j), j));
      fold.record(TraceEvent(Kind::admit, ms(j), j));
    }
    fold.record(with_loads(Kind::retire, ms(5), 1, 0));
    fold.record(with_loads(Kind::retire, ms(6), 0, 0));

    const OnlineReport report = fold.finish();
    if (!record_spans) {
      EXPECT_TRUE(report.spans.empty());
      continue;
    }
    // One slot per arrival; job 2 has not retired yet.
    EXPECT_EQ(report.spans, (std::vector<time_us>{ms(6), ms(4), 0}));
  }
}

TEST(OnlineAccounting, ForwardsThePrepTableAndEveryEvent) {
  struct Capture final : TraceSink {
    void on_preps(const std::vector<TracePrep>& p) override {
      preps = p.size();
    }
    void record(const TraceEvent& ev) override { kinds.push_back(ev.kind); }
    std::size_t preps = 0;
    std::vector<Kind> kinds;
  } capture;
  OnlineAccounting fold(AccountingConstants{}, &capture);
  fold.on_preps(one_prep());
  fold.record(arrival(0, 0));
  fold.record(TraceEvent(Kind::sched_done, 0, 0));
  fold.record(TraceEvent(Kind::queue_skip, 0));
  EXPECT_EQ(capture.preps, 1u);
  EXPECT_EQ(capture.kinds,
            (std::vector<Kind>{Kind::arrival, Kind::sched_done,
                               Kind::queue_skip}));
  EXPECT_EQ(fold.finish().queue_skips, 1);
}

TEST(OnlineAccounting, RejectsUnknownPortsAndPreparations) {
  OnlineAccounting fold = make_fold(2);
  EXPECT_THROW(fold.record(on_port(Kind::load_start, 0, 2, ms(1))),
               std::invalid_argument);
  EXPECT_THROW(fold.record(on_port(Kind::checkpoint_start, 0, -1, ms(1))),
               std::invalid_argument);
  // A load onto a port that an earlier load still occupies.
  fold.record(on_port(Kind::load_start, 0, 1, ms(4)));
  EXPECT_THROW(fold.record(on_port(Kind::prefetch_start, ms(2), 1, ms(1))),
               std::invalid_argument);
  // A job-carrying event with a negative job (a reader's missing-key
  // default) must not index the per-job state.
  for (const Kind kind :
       {Kind::arrival, Kind::admit, Kind::preempt, Kind::retire})
    EXPECT_THROW(fold.record(TraceEvent(kind, ms(5), -1)),
                 std::invalid_argument);
  // A retire whose arrival named a preparation the table lacks.
  TraceEvent stray = arrival(0, 0);
  stray.prep = 5;
  fold.record(stray);
  EXPECT_THROW(fold.record(with_loads(Kind::retire, ms(1), 0, 0)),
               std::invalid_argument);
  // A retire with no arrival at all.
  EXPECT_THROW(fold.record(with_loads(Kind::retire, ms(1), 3, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace drhw
