//===- sim/Simulator.cpp - Trace-driven code cache simulation -------------===//

#include "sim/Simulator.h"
#include "sim/SerialReplay.h"
#include "support/Contracts.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace ccsim;

std::string ccsim::sim::validateCapacityAndCosts(double PressureFactor,
                                                 uint64_t ExplicitCapacityBytes,
                                                 const CostModel &Costs) {
  char Buf[128];
  if (!std::isfinite(PressureFactor)) {
    std::snprintf(Buf, sizeof(Buf), "pressure factor %g is not finite",
                  PressureFactor);
    return Buf;
  }
  if (ExplicitCapacityBytes == 0 && PressureFactor < 1.0) {
    std::snprintf(Buf, sizeof(Buf),
                  "pressure factor %g below 1 would be an over-provisioned "
                  "cache (set an explicit capacity instead)",
                  PressureFactor);
    return Buf;
  }
  for (double Coef : {Costs.EvictionPerByte, Costs.MissPerByte,
                      Costs.UnlinkPerLink, Costs.EvictionBase, Costs.MissBase,
                      Costs.UnlinkBase})
    if (!std::isfinite(Coef) || Coef < 0.0)
      return "cost model coefficients must be finite and nonnegative";
  return {};
}

std::string SimConfig::validate() const {
  std::string Err = sim::validateCapacityAndCosts(
      PressureFactor, ExplicitCapacityBytes, Costs);
  if (Err.empty() && CancelCheckInterval == 0)
    Err = "cancellation check interval must be at least 1 access";
  return Err;
}

uint64_t ccsim::sim::capacityFor(uint64_t MaxCacheBytes, double PressureFactor,
                                 uint64_t ExplicitCapacityBytes) {
  if (ExplicitCapacityBytes != 0)
    return ExplicitCapacityBytes;
  CCSIM_REQUIRE(PressureFactor >= 1.0,
                "pressure factor %g below 1 would be an over-provisioned cache",
                PressureFactor);
  const double Derived = static_cast<double>(MaxCacheBytes) / PressureFactor;
  return std::max<uint64_t>(1, static_cast<uint64_t>(Derived));
}

uint64_t ccsim::sim::capacityFor(const Trace &T, const SimConfig &Config) {
  return capacityFor(T.maxCacheBytes(), Config.PressureFactor,
                     Config.ExplicitCapacityBytes);
}

CacheEngineConfig ccsim::sim::engineConfigFor(uint64_t MaxCacheBytes,
                                              const SimConfig &Config) {
  CacheEngineConfig EC(capacityFor(MaxCacheBytes, Config.PressureFactor,
                                   Config.ExplicitCapacityBytes),
                       Config.EnableChaining, Config.Telemetry);
  EC.Costs = Config.Costs;
  return EC;
}

uint32_t ccsim::sim::openRunMark(telemetry::TelemetrySink *Tel,
                                 const char *Kind, const SimResult &R) {
  if (!Tel)
    return 0;
  const uint32_t MarkId = Tel->Tracer.internLabel(
      std::string(Kind) + ":" + R.BenchmarkName + "/" + R.PolicyName);
  Tel->Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock, MarkId,
                     1, 0);
  return MarkId;
}

telemetry::MetricLabels ccsim::sim::runLabels(const SimResult &R,
                                              double PressureFactor) {
  char Pressure[32];
  std::snprintf(Pressure, sizeof(Pressure), "%g", PressureFactor);
  return {{"benchmark", R.BenchmarkName},
          {"policy", R.PolicyName},
          {"pressure", Pressure}};
}

void ccsim::sim::recordRun(telemetry::TelemetrySink &Tel, uint32_t MarkId,
                           const SimResult &R,
                           const telemetry::MetricLabels &Labels) {
  Tel.Tracer.record(telemetry::EventKind::Mark, 0, telemetry::NoBlock, MarkId,
                    0, R.Stats.Accesses);
  R.Stats.recordMetrics(Tel.Metrics, Labels);
}

void ccsim::sim::throwReplayCancelled(const std::string &Name, uint64_t Done,
                                      uint64_t Total, const char *Reason,
                                      const CancelToken &Cancel) {
  throw ReplayCancelled("replay of " + Name + " stopped after " +
                            std::to_string(Done) + " of " +
                            std::to_string(Total) + " accesses: " + Reason,
                        Cancel.deadlineExpired() && !Cancel.cancelRequested());
}

SimResult ccsim::sim::run(const Trace &T,
                          std::unique_ptr<EvictionPolicy> Policy,
                          const SimConfig &Config) {
  return replaySerial<CacheEngine>(OwnedTraceView{T}, std::move(Policy),
                                   Config, {}, [](CacheEngine &) {});
}

SimResult ccsim::sim::run(const Trace &T, const GranularitySpec &Spec,
                          const SimConfig &Config) {
  return run(T, makePolicy(Spec), Config);
}
