//===- concurrent/TenancyPolicy.cpp - Unified tenancy configuration ------===//

#include "concurrent/TenancyPolicy.h"
#include "sim/Simulator.h"

#include <cstdio>

using namespace ccsim;

std::optional<PartitionMode> ccsim::parsePartitionMode(std::string_view Text) {
  if (Text == "shared")
    return PartitionMode::Shared;
  if (Text == "static")
    return PartitionMode::StaticPartition;
  if (Text == "quota")
    return PartitionMode::UnitQuota;
  return std::nullopt;
}

std::optional<InterleaveKind>
ccsim::parseInterleaveKind(std::string_view Text) {
  if (Text == "rr" || Text == "round-robin")
    return InterleaveKind::RoundRobin;
  if (Text == "weighted")
    return InterleaveKind::Weighted;
  return std::nullopt;
}

const char *ccsim::partitionModeLabel(PartitionMode Mode) {
  switch (Mode) {
  case PartitionMode::Shared:
    return "shared";
  case PartitionMode::StaticPartition:
    return "static-partition";
  case PartitionMode::UnitQuota:
    return "unit-quota";
  }
  return "unknown";
}

const char *ccsim::interleaveKindLabel(InterleaveKind Kind) {
  return Kind == InterleaveKind::RoundRobin ? "round-robin" : "weighted";
}

std::string TenancyPolicy::validate() const {
  std::string Err = sim::validateCapacityAndCosts(
      PressureFactor, ExplicitCapacityBytes, Costs);
  if (!Err.empty())
    return Err;
  if (Granularity.Kind == GranularitySpec::KindType::Units &&
      Granularity.Units < 1)
    return "unit granularity needs at least one unit";
  for (size_t I = 0; I < Tenants.size(); ++I)
    if (!(Tenants[I].Weight > 0.0)) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "tenant %zu weight %g must be positive", I,
                    Tenants[I].Weight);
      return Buf;
    }
  return {};
}

std::string TenantRunHooks::validate() const {
  if (CancelCheckInterval == 0)
    return "cancellation check interval must be at least 1 access";
  return {};
}
