#include "planet/advisor.h"

#include <algorithm>

#include "common/logging.h"

namespace planet {

const char* SpeculationAdviceName(SpeculationAdvice advice) {
  switch (advice) {
    case SpeculationAdvice::kSpeculate:
      return "speculate";
    case SpeculationAdvice::kWait:
      return "wait";
    case SpeculationAdvice::kGiveUp:
      return "give-up";
  }
  return "?";
}

SpeculationAdvice Advise(const SpeculationCosts& costs, double likelihood) {
  double l = std::clamp(likelihood, 0.0, 1.0);
  // Speculating: right with probability L, apologize otherwise.
  double u_speculate =
      l * costs.value_instant_success - (1.0 - l) * costs.cost_apology;
  // Waiting: the user keeps waiting; a commit is worth the late value, an
  // abort is worth nothing (the user waited for bad news).
  double u_wait = l * costs.value_late_success;
  // Giving up: fixed value, independent of the outcome.
  double u_give_up = costs.value_pending;

  if (u_speculate >= u_wait && u_speculate >= u_give_up) {
    return SpeculationAdvice::kSpeculate;
  }
  if (u_wait >= u_give_up) return SpeculationAdvice::kWait;
  return SpeculationAdvice::kGiveUp;
}

double ImpliedSpeculationThreshold(const SpeculationCosts& costs) {
  // Smallest L where speculate beats both alternatives. Binary search over
  // the monotone utility gap (u_speculate - max(u_wait, u_give_up) is
  // increasing in L because value_instant_success + cost_apology >= the
  // wait slope for sane cost models; fall back to a scan otherwise).
  double lo = 0.0, hi = 1.0;
  if (Advise(costs, 1.0) != SpeculationAdvice::kSpeculate) return 1.01;
  for (int i = 0; i < 40; ++i) {
    double mid = 0.5 * (lo + hi);
    if (Advise(costs, mid) == SpeculationAdvice::kSpeculate) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

std::function<void(PlanetTransaction&)> MakeAdvisorCallback(
    const SpeculationCosts& costs) {
  return [costs](PlanetTransaction& txn) {
    switch (Advise(costs, txn.CommitLikelihood())) {
      case SpeculationAdvice::kSpeculate:
        txn.Speculate();
        break;
      case SpeculationAdvice::kWait:
        break;  // keep the user waiting for the definitive outcome
      case SpeculationAdvice::kGiveUp:
        txn.GiveUp();
        break;
    }
  };
}

}  // namespace planet
