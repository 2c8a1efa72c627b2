//===- tests/WorkloadTest.cpp - Synthetic workload generators ------------===//
//
// Statistical and exactness properties of every WorkloadGenerator kind:
// uniform traffic hits all destinations within chi-square tolerance,
// hotspot traffic concentrates the configured fraction on the hot node,
// transpose and bit-reversal match their closed-form maps exactly, bursty
// arrivals realize the configured duty cycle and long-run rate, and
// identical seeds reproduce identical traces (while different seeds do
// not). All bounds are deterministic: the generators are seeded SplitMix64
// streams, so these are exact assertions on fixed traces, not flaky
// statistical tests.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <limits>
#include <map>

using namespace scg;

namespace {

ExplicitScg star4() { return ExplicitScg(SuperCayleyGraph::star(4)); }

std::vector<TrafficEvent> generate(const ExplicitScg &Net,
                                   const WorkloadSpec &Spec, uint64_t Steps) {
  return WorkloadGenerator(Net, Spec).generate(Steps);
}

} // namespace

TEST(Workload, TraceIsSortedAndInRange) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.InjectionRate = 0.2;
  Spec.Seed = 3;
  std::vector<TrafficEvent> Trace = generate(Net, Spec, 100);
  ASSERT_FALSE(Trace.empty());
  for (size_t I = 0; I != Trace.size(); ++I) {
    EXPECT_LT(Trace[I].Step, 100u);
    EXPECT_LT(Trace[I].Src, Net.numNodes());
    EXPECT_LT(Trace[I].Dst, Net.numNodes());
    EXPECT_NE(Trace[I].Src, Trace[I].Dst) << "uniform excludes self";
    if (I) {
      EXPECT_TRUE(Trace[I - 1].Step < Trace[I].Step ||
                  (Trace[I - 1].Step == Trace[I].Step &&
                   Trace[I - 1].Src < Trace[I].Src));
    }
  }
}

TEST(Workload, UniformDestinationsPassChiSquare) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.InjectionRate = 0.5;
  Spec.Seed = 11;
  std::vector<TrafficEvent> Trace = generate(Net, Spec, 2000);

  // Destinations of one source are uniform over the other N-1 nodes.
  // Chi-square with 22 degrees of freedom: the 99.9% critical value is
  // ~48.3; a healthy uniform sample sits far below it.
  std::map<NodeId, std::vector<uint64_t>> PerSource;
  for (const TrafficEvent &E : Trace) {
    auto &Counts = PerSource[E.Src];
    Counts.resize(Net.numNodes());
    ++Counts[E.Dst];
  }
  ASSERT_EQ(PerSource.size(), Net.numNodes()) << "every node injects";
  for (auto &[Src, Counts] : PerSource) {
    uint64_t Total = 0;
    for (uint64_t C : Counts)
      Total += C;
    ASSERT_GE(Total, 500u);
    double Expected = double(Total) / (Net.numNodes() - 1);
    double Chi2 = 0.0;
    for (NodeId D = 0; D != Net.numNodes(); ++D) {
      if (D == Src) {
        EXPECT_EQ(Counts[D], 0u);
        continue;
      }
      double Diff = double(Counts[D]) - Expected;
      Chi2 += Diff * Diff / Expected;
    }
    EXPECT_LT(Chi2, 48.3) << "source " << Src;
  }
}

TEST(Workload, InjectionRateIsRealized) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.InjectionRate = 0.1;
  Spec.Seed = 17;
  uint64_t Steps = 5000;
  std::vector<TrafficEvent> Trace = generate(Net, Spec, Steps);
  double Rate = double(Trace.size()) / (double(Net.numNodes()) * Steps);
  EXPECT_NEAR(Rate, Spec.InjectionRate, 0.01);
}

TEST(Workload, HotspotConcentratesConfiguredFraction) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::Hotspot;
  Spec.InjectionRate = 0.5;
  Spec.Seed = 23;
  Spec.HotspotFraction = 0.6;
  Spec.HotspotNode = 5;
  std::vector<TrafficEvent> Trace = generate(Net, Spec, 2000);
  ASSERT_GT(Trace.size(), 10000u);
  uint64_t Hot = 0;
  for (const TrafficEvent &E : Trace)
    Hot += E.Dst == Spec.HotspotNode;
  double Fraction = double(Hot) / double(Trace.size());
  // The hot node also receives its share of the uniform remainder:
  // expected fraction f + (1-f)/(N-1), minus the hot node's own traffic
  // (it never targets itself). Allow generous slack around that.
  double ExpectedLow = Spec.HotspotFraction * 0.9 *
                       (1.0 - 1.0 / Net.numNodes());
  EXPECT_GT(Fraction, ExpectedLow);
  EXPECT_LT(Fraction, 0.75);
}

TEST(Workload, TransposeMatchesClosedForm) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::Transpose;
  Spec.InjectionRate = 0.3;
  Spec.Seed = 29;
  for (const TrafficEvent &E : generate(Net, Spec, 300))
    EXPECT_EQ(E.Dst, WorkloadGenerator::transposeDestination(Net, E.Src));
  // The map itself is the involution u -> rank(label(u)^-1).
  for (NodeId U = 0; U != Net.numNodes(); ++U) {
    NodeId D = WorkloadGenerator::transposeDestination(Net, U);
    EXPECT_EQ(Net.label(D), Net.label(U).inverse());
    EXPECT_EQ(WorkloadGenerator::transposeDestination(Net, D), U)
        << "transpose is an involution";
  }
}

TEST(Workload, BitReversalMatchesClosedForm) {
  // 24 nodes -> 5 low bits reversed, reduced mod 24.
  EXPECT_EQ(WorkloadGenerator::bitReversalDestination(0, 24), 0u);
  EXPECT_EQ(WorkloadGenerator::bitReversalDestination(1, 24), 16u);
  EXPECT_EQ(WorkloadGenerator::bitReversalDestination(3, 24),
            NodeId(0b11000 % 24));
  // On a power-of-two population the map is the classical involution.
  for (NodeId U = 0; U != 32; ++U)
    EXPECT_EQ(WorkloadGenerator::bitReversalDestination(
                  WorkloadGenerator::bitReversalDestination(U, 32), 32),
              U);
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::BitReversal;
  Spec.InjectionRate = 0.3;
  Spec.Seed = 31;
  for (const TrafficEvent &E : generate(Net, Spec, 300))
    EXPECT_EQ(E.Dst, WorkloadGenerator::bitReversalDestination(
                         E.Src, Net.numNodes()));
}

TEST(Workload, BurstyRealizesDutyCycleAndLongRunRate) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::BurstyUniform;
  Spec.InjectionRate = 0.05;
  Spec.Seed = 37;
  Spec.BurstDutyCycle = 0.25;
  Spec.MeanBurstLength = 8.0;
  uint64_t Steps = 20000;
  std::vector<TrafficEvent> Trace = generate(Net, Spec, Steps);

  // Long-run offered rate still equals InjectionRate.
  double Rate = double(Trace.size()) / (double(Net.numNodes()) * Steps);
  EXPECT_NEAR(Rate, Spec.InjectionRate, 0.005);

  // Burstiness: while on, nodes inject at rate/duty = 0.2, so consecutive
  // injections of one node cluster within bursts. Compare the fraction of
  // short inter-injection gaps against a memoryless (uniform) source at
  // the same long-run rate: the on/off structure must produce markedly
  // more short gaps -- this is exactly what the duty cycle controls.
  auto ShortGapFraction = [](const std::vector<TrafficEvent> &T) {
    uint64_t Short = 0, Gaps = 0;
    std::map<NodeId, uint64_t> LastStep;
    for (const TrafficEvent &E : T) {
      auto It = LastStep.find(E.Src);
      if (It != LastStep.end()) {
        ++Gaps;
        Short += E.Step - It->second <= 8;
      }
      LastStep[E.Src] = E.Step;
    }
    return Gaps ? double(Short) / double(Gaps) : 0.0;
  };
  WorkloadSpec Memoryless = Spec;
  Memoryless.Kind = WorkloadKind::UniformRandom;
  double BurstyShort = ShortGapFraction(Trace);
  double UniformShort = ShortGapFraction(generate(Net, Memoryless, Steps));
  EXPECT_GT(BurstyShort, UniformShort + 0.15);
}

TEST(Workload, SeedsReproduceAndDistinguishTraces) {
  ExplicitScg Net = star4();
  for (WorkloadKind Kind :
       {WorkloadKind::UniformRandom, WorkloadKind::Hotspot,
        WorkloadKind::Transpose, WorkloadKind::BitReversal,
        WorkloadKind::BurstyUniform}) {
    WorkloadSpec Spec;
    Spec.Kind = Kind;
    Spec.InjectionRate = 0.1;
    Spec.Seed = 41;
    std::vector<TrafficEvent> A = generate(Net, Spec, 500);
    std::vector<TrafficEvent> B = generate(Net, Spec, 500);
    ASSERT_EQ(A.size(), B.size()) << workloadKindName(Kind);
    for (size_t I = 0; I != A.size(); ++I) {
      EXPECT_EQ(A[I].Step, B[I].Step);
      EXPECT_EQ(A[I].Src, B[I].Src);
      EXPECT_EQ(A[I].Dst, B[I].Dst);
    }
    Spec.Seed = 42;
    std::vector<TrafficEvent> C = generate(Net, Spec, 500);
    bool Differs = C.size() != A.size();
    for (size_t I = 0; !Differs && I != A.size(); ++I)
      Differs = A[I].Step != C[I].Step || A[I].Src != C[I].Src ||
                A[I].Dst != C[I].Dst;
    EXPECT_TRUE(Differs) << workloadKindName(Kind)
                         << ": different seeds, same trace";
  }
}

// Bad specs are rejected with a reported error at construction. (A network
// with fewer than two nodes is rejected too, but no family builds one.)

TEST(WorkloadInput, HotspotNodeMustBeANode) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::Hotspot;
  Spec.HotspotNode = Net.numNodes();
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  // Before the check, the driver read the label of the missing node.
  EXPECT_THROW(simulateTrafficLoad(Net, CommModel::AllPort, Spec, 10),
               std::invalid_argument);
}

TEST(WorkloadInput, InjectionRateMustBeNonNegativeNumber) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.InjectionRate = -0.1;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  Spec.InjectionRate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
}

TEST(WorkloadInput, HotspotFractionMustLieInUnitInterval) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::Hotspot;
  Spec.HotspotFraction = -0.5;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  Spec.HotspotFraction = 1.5;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  Spec.HotspotFraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
}

TEST(WorkloadInput, BurstDutyCycleMustLieInHalfOpenUnitInterval) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::BurstyUniform;
  Spec.BurstDutyCycle = 0.0;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  Spec.BurstDutyCycle = 1.5;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
  Spec.BurstDutyCycle = 1.0; // always on is allowed.
  EXPECT_NO_THROW((void)WorkloadGenerator(Net, Spec));
}

TEST(WorkloadInput, MeanBurstLengthMustBeAtLeastOneStep) {
  ExplicitScg Net = star4();
  WorkloadSpec Spec;
  Spec.Kind = WorkloadKind::BurstyUniform;
  Spec.MeanBurstLength = 0.5;
  EXPECT_THROW((void)WorkloadGenerator(Net, Spec), std::invalid_argument);
}
