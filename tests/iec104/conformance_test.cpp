// ConformanceMachine: the hostile/legacy/clean discrimination at the heart
// of hostile-peer hardening. Covers the STARTDT/STOPDT state machine, k/w
// window enforcement, 15-bit sequence arithmetic (wrap, retransmission,
// desync), mid-stream anchoring, the paper's §6.1 legacy whitelist, and
// the severity-weighted QuarantinePolicy that replaced the flat failure
// counter in degraded-mode ingestion.
#include "iec104/conformance.hpp"

#include <gtest/gtest.h>

#include "iec104/elements.hpp"

namespace uncharted::iec104 {
namespace {

constexpr Timestamp kStep = 100'000;  // 100 ms

Asdu measurement() {
  Asdu asdu;
  asdu.type = TypeId::M_ME_NC_1;
  asdu.cot.cause = Cause::kSpontaneous;
  asdu.common_address = 7;
  asdu.objects.push_back({1001, ShortFloat{42.0f, {}}, std::nullopt});
  return asdu;
}

Apdu i_frame(std::uint16_t ns, std::uint16_t nr = 0) {
  return Apdu::make_i(ns, nr, measurement());
}

/// Fresh connection brought to STARTDT-confirmed state; returns the next ts.
Timestamp activate(ConformanceMachine& m, Timestamp ts = 0) {
  m.on_connection_open(ts);
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kStartDtAct));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kStartDtCon));
  return ts + kStep;
}

TEST(Conformance, CleanFreshSessionScoresClean) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns < 10; ++ns) {
    m.on_apdu(ts += kStep, false, i_frame(ns));
    if (ns % 4 == 3) m.on_apdu(ts += kStep, true, Apdu::make_s(ns + 1));
  }
  m.on_apdu(ts += kStep, true, Apdu::make_s(10));
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kStopDtAct));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kStopDtCon));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_TRUE(m.profile().violations.empty());
  EXPECT_EQ(m.profile().i_apdus, 10u);
}

TEST(Conformance, TestFrRoundTripObservedAsTimer) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kTestFrAct));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kTestFrCon));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_NEAR(m.profile().timers.max_testfr_rtt_s, 0.1, 1e-9);
  EXPECT_GE(m.profile().timers.max_startdt_rtt_s, 0.0);
}

TEST(Conformance, IBeforeStartDtOnFreshConnectionIsHostile) {
  ConformanceMachine m;
  m.on_connection_open(0);
  m.on_apdu(kStep, true, i_frame(0));
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kIBeforeStartDt), 1u);
}

TEST(Conformance, IBeforeStartDtConfirmationIsHostileFromActivator) {
  // STARTDT act sent, con still pending: data from the activating side is
  // the Industroyer blind ordering; data from the outstation just means
  // the con was lost and transfer is running.
  ConformanceMachine attacker;
  attacker.on_connection_open(0);
  attacker.on_apdu(kStep, true, Apdu::make_u(UFunction::kStartDtAct));
  attacker.on_apdu(2 * kStep, true, i_frame(0));
  EXPECT_TRUE(attacker.hostile());

  ConformanceMachine lost_con;
  lost_con.on_connection_open(0);
  lost_con.on_apdu(kStep, true, Apdu::make_u(UFunction::kStartDtAct));
  lost_con.on_apdu(2 * kStep, false, i_frame(0));
  EXPECT_EQ(lost_con.verdict(), Verdict::kClean);
}

TEST(Conformance, MidStreamCaptureAnchorsSilently) {
  // No on_connection_open: the capture joined a running session. I-frames
  // at arbitrary sequence positions are continuity, not violations.
  ConformanceMachine m;
  Timestamp ts = 0;
  for (std::uint16_t ns = 4000; ns < 4010; ++ns) {
    m.on_apdu(ts += kStep, false, i_frame(ns, 123));
  }
  m.on_apdu(ts += kStep, true, Apdu::make_s(4010));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
}

TEST(Conformance, WindowOverflowIsHostile) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns <= kDefaultK; ++ns) {
    m.on_apdu(ts += kStep, false, i_frame(ns));
  }
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kWindowOverflow), 1u);
}

TEST(Conformance, WindowRespectedWithAcksIsClean) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns < 40; ++ns) {
    m.on_apdu(ts += kStep, false, i_frame(ns));
    if (ns % kDefaultW == kDefaultW - 1) {
      m.on_apdu(ts += kStep, true, Apdu::make_s(ns + 1));
    }
  }
  EXPECT_EQ(m.verdict(), Verdict::kClean);
}

TEST(Conformance, AckOfUnsentIsHostileOnFreshConnection) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, i_frame(0));
  m.on_apdu(ts += kStep, true, Apdu::make_s(200));
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kAckOfUnsent), 1u);
}

TEST(Conformance, MidStreamAckAheadIsCaptureLossNotAttack) {
  ConformanceMachine m;
  Timestamp ts = 0;
  m.on_apdu(ts += kStep, false, i_frame(100));
  m.on_apdu(ts += kStep, true, Apdu::make_s(105));  // frames 101-104 unseen
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceGap), 1u);
}

TEST(Conformance, SequenceWrapIsContinuity) {
  ConformanceMachine m;
  Timestamp ts = 0;
  m.on_apdu(ts += kStep, false, i_frame(32766));
  m.on_apdu(ts += kStep, true, Apdu::make_s(32767));
  m.on_apdu(ts += kStep, false, i_frame(32767));
  m.on_apdu(ts += kStep, false, i_frame(0));  // 15-bit wrap
  m.on_apdu(ts += kStep, false, i_frame(1));
  m.on_apdu(ts += kStep, true, Apdu::make_s(2));  // ack across the wrap
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_TRUE(m.profile().violations.empty());
}

TEST(Conformance, AdjacentRetransmissionIsInfoDuplicate) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, i_frame(0));
  m.on_apdu(ts += kStep, false, i_frame(1));
  m.on_apdu(ts += kStep, false, i_frame(1));  // retransmitted copy
  m.on_apdu(ts += kStep, false, i_frame(2));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceDuplicate), 1u);
}

TEST(Conformance, LateRetransmissionIsInfoDuplicate) {
  // A retransmitted segment surfacing several frames late: the stream
  // resumes where it left off, so the regressed frame was a stale copy.
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns < 6; ++ns) m.on_apdu(ts += kStep, false, i_frame(ns));
  m.on_apdu(ts += kStep, false, i_frame(2));  // late copy of frame 2
  m.on_apdu(ts += kStep, false, i_frame(6));  // stream resumes
  m.on_apdu(ts += kStep, true, Apdu::make_s(7));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceDuplicate), 1u);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceReset), 0u);
}

TEST(Conformance, RetransmissionBelowAckLevelIsInfoDuplicate) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns < 6; ++ns) m.on_apdu(ts += kStep, false, i_frame(ns));
  m.on_apdu(ts += kStep, true, Apdu::make_s(6));  // all acked
  m.on_apdu(ts += kStep, false, i_frame(3));      // stale copy, already acked
  m.on_apdu(ts += kStep, false, i_frame(4));      // second stale copy
  m.on_apdu(ts += kStep, false, i_frame(6));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceDuplicate), 2u);
}

TEST(Conformance, StaleAckCopyIsInfoDuplicate) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns = 0; ns < 6; ++ns) m.on_apdu(ts += kStep, false, i_frame(ns));
  m.on_apdu(ts += kStep, true, Apdu::make_s(6));
  m.on_apdu(ts += kStep, true, Apdu::make_s(4));  // retransmitted older S
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kAckRegression), 0u);
}

TEST(Conformance, DesyncRewindIsWarnReset) {
  // The stream continues from the rewound value — not a retransmission.
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns : {0, 1, 2}) m.on_apdu(ts += kStep, false, i_frame(ns));
  m.on_apdu(ts += kStep, false, i_frame(0));  // rewind...
  m.on_apdu(ts += kStep, false, i_frame(7));  // ...and diverge
  EXPECT_EQ(m.verdict(), Verdict::kSuspect);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceReset), 1u);
}

TEST(Conformance, RepeatedDesyncTurnsHostile) {
  // Four double-weight resets reach the hostile score with no single
  // protocol-impossible frame.
  ConformanceMachine m;
  Timestamp ts = activate(m);
  for (std::uint16_t ns : {0, 1, 2, 0, 7, 1, 9, 2, 11, 3, 13}) {
    m.on_apdu(ts += kStep, true, i_frame(ns));
  }
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceReset), 4u);
  EXPECT_EQ(m.profile().hostile_events, 0u);  // score-driven, not event-driven
}

TEST(Conformance, UnsolicitedConfirmsAreHostile) {
  ConformanceMachine m;
  m.on_connection_open(0);
  m.on_apdu(kStep, true, Apdu::make_u(UFunction::kStartDtCon));
  m.on_apdu(2 * kStep, true, Apdu::make_u(UFunction::kTestFrCon));
  m.on_apdu(3 * kStep, true, Apdu::make_u(UFunction::kStopDtCon));
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kUnsolicitedConfirm), 3u);
}

TEST(Conformance, MidStreamToleratesOneUnmatchedTestFrCon) {
  // The act may predate the capture — once. A second unmatched con has no
  // such excuse.
  ConformanceMachine m;
  m.on_apdu(kStep, false, Apdu::make_u(UFunction::kTestFrCon));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  m.on_apdu(2 * kStep, false, Apdu::make_u(UFunction::kTestFrCon));
  EXPECT_TRUE(m.hostile());
}

TEST(Conformance, RetransmittedConfirmsAreNotHostile) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kStartDtCon));  // dup con
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kTestFrAct));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kTestFrCon));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kTestFrCon));  // dup con
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kSequenceDuplicate), 2u);
}

TEST(Conformance, DuplicateStartDtIsWarn) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kStartDtAct));
  EXPECT_EQ(m.verdict(), Verdict::kSuspect);
  EXPECT_EQ(m.profile().count(ViolationCode::kDuplicateStartDt), 1u);
}

TEST(Conformance, DataAfterStopDtIsHostile) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, i_frame(0));
  m.on_apdu(ts += kStep, true, Apdu::make_s(1));
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kStopDtAct));
  m.on_apdu(ts += kStep, false, Apdu::make_u(UFunction::kStopDtCon));
  m.on_apdu(ts += kStep, false, i_frame(1));
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kDataAfterStopDt), 1u);
}

TEST(Conformance, StopPendingAllowsPeerDrainOnly) {
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, true, Apdu::make_u(UFunction::kStopDtAct));
  // The outstation may drain queued frames until it confirms the stop…
  m.on_apdu(ts += kStep, false, i_frame(0));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  // …but the station that requested the stop must not send data.
  m.on_apdu(ts += kStep, true, i_frame(0));
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kDataAfterStopDt), 1u);
}

TEST(Conformance, LegacyProfilesAreWhitelisted) {
  // O53/O58/O28-style 1-octet COT decodes under legacy_cot: the paper's
  // measured deviation, scored kLegacy, verdict stays non-hostile.
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, i_frame(0), CodecProfile::legacy_cot());
  m.on_apdu(ts += kStep, false, i_frame(1), CodecProfile::legacy_ioa());
  EXPECT_EQ(m.verdict(), Verdict::kLegacy);
  EXPECT_EQ(m.profile().legacy_events, 2u);
  // One record per code, carrying the first frame's profile as its detail.
  const auto* legacy = m.profile().find(ViolationCode::kLegacyProfile);
  ASSERT_NE(legacy, nullptr);
  EXPECT_EQ(legacy->count, 2u);
  EXPECT_EQ(legacy->detail,
            "decoded with legacy profile " + CodecProfile::legacy_cot().str());

  ConformancePolicy strict;
  strict.whitelist_legacy_profiles = false;
  ConformanceMachine s(strict);
  ts = activate(s);
  s.on_apdu(ts += kStep, false, i_frame(0), CodecProfile::legacy_cot());
  EXPECT_EQ(s.verdict(), Verdict::kSuspect);
}

TEST(Conformance, TimerDeviationIsObservedNotScored) {
  // C2-O30's 430 s keep-alive loop: a fingerprint, never an indictment.
  ConformanceMachine m;
  Timestamp ts = activate(m);
  m.on_apdu(ts += kStep, false, i_frame(0));
  m.on_apdu(ts + from_seconds(430.0), true, Apdu::make_s(1));
  EXPECT_EQ(m.verdict(), Verdict::kClean);
  EXPECT_EQ(m.profile().count(ViolationCode::kTimerDeviation), 2u);  // idle + ack
  EXPECT_GE(m.profile().timers.max_idle_s, 430.0);
}

TEST(Conformance, GarbageFloodCrossesHostileScore) {
  ConformanceMachine brief;
  brief.on_parse_failures(0, FailureKind::kGarbage, 4);
  EXPECT_EQ(brief.verdict(), Verdict::kSuspect);  // 4 * 0.5 = 2.0

  ConformanceMachine flood;
  flood.on_parse_failures(0, FailureKind::kGarbage, 16);  // 16 * 0.5 = 8.0
  EXPECT_TRUE(flood.hostile());
}

TEST(Conformance, OversizedFramesAreHostile) {
  ConformanceMachine m;
  m.on_parse_failures(0, FailureKind::kUndecodable, 3, 2);
  EXPECT_TRUE(m.hostile());
  EXPECT_EQ(m.profile().count(ViolationCode::kOversizedApdu), 2u);
  // The non-oversized remainder stays in the warn-weighted flood bucket.
  EXPECT_EQ(m.profile().count(ViolationCode::kUndecodableTraffic), 1u);
}

TEST(Conformance, AckStarvationFlagsOnce) {
  ConformancePolicy policy;
  policy.window_slack = 1000;  // isolate the starvation rule from the window
  ConformanceMachine m(policy);
  Timestamp ts = 0;  // mid-stream capture
  int limit = policy.w * policy.ack_starvation_factor;
  for (int ns = 0; ns < limit + 8; ++ns) {
    m.on_apdu(ts += kStep, false, i_frame(static_cast<std::uint16_t>(ns)));
  }
  EXPECT_EQ(m.profile().count(ViolationCode::kAckStarvation), 1u);
  EXPECT_EQ(m.verdict(), Verdict::kSuspect);
}

TEST(Conformance, SummaryOrdersBySeverity) {
  ConformanceMachine m;
  m.on_connection_open(0);
  m.on_apdu(kStep, true, i_frame(0));  // hostile
  m.on_parse_failures(2 * kStep, FailureKind::kGarbage, 2);
  auto text = m.profile().summary();
  EXPECT_NE(text.find("i-before-startdt"), std::string::npos);
  EXPECT_LT(text.find("i-before-startdt"), text.find("garbage-traffic"));
}

TEST(QuarantinePolicy, DefaultsReproduceLegacyHeuristic) {
  // The old rule: quarantine when failures >= 8 and failures > apdus.
  QuarantinePolicy policy;
  EXPECT_TRUE(policy.should_quarantine(policy.score(8, 0, 0, 0), 8, 7));
  EXPECT_FALSE(policy.should_quarantine(policy.score(7, 0, 0, 0), 7, 6));
  EXPECT_FALSE(policy.should_quarantine(policy.score(8, 0, 0, 0), 8, 8));
  EXPECT_TRUE(policy.should_quarantine(policy.score(3, 3, 2, 0), 8, 2));
}

TEST(QuarantinePolicy, WeightsAndThresholdAreTunable) {
  QuarantinePolicy policy;
  policy.oversized_weight = 4.0;
  policy.score_threshold = 8.0;
  policy.require_failures_exceed_apdus = false;
  EXPECT_TRUE(policy.should_quarantine(policy.score(0, 2, 0, 2), 2, 100));

  policy.score_threshold = 0.0;  // disabled
  EXPECT_FALSE(policy.should_quarantine(1e9, 100, 0));
}

}  // namespace
}  // namespace uncharted::iec104
