#include "parpp/solver/strings.hpp"

#include <cctype>
#include <string>

namespace parpp::solver {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

std::string_view to_string(Method method) {
  switch (method) {
    case Method::kAls: return "als";
    case Method::kPp: return "pp";
    case Method::kNncpHals: return "nncp";
    case Method::kPpNncp: return "pp-nncp";
  }
  return "?";
}

std::string_view to_string(core::EngineKind kind) {
  switch (kind) {
    case core::EngineKind::kNaive: return "naive";
    case core::EngineKind::kDt: return "dt";
    case core::EngineKind::kMsdt: return "msdt";
    case core::EngineKind::kSparse: return "sparse";
  }
  return "?";
}

std::string_view to_string(tensor::CsfLayout layout) {
  switch (layout) {
    case tensor::CsfLayout::kAllModes: return "all-modes";
    case tensor::CsfLayout::kHalf: return "half";
  }
  return "?";
}

std::string_view to_string(par::SolveMode mode) {
  switch (mode) {
    case par::SolveMode::kDistributedRows: return "distributed-rows";
    case par::SolveMode::kReplicatedSequential: return "replicated-sequential";
  }
  return "?";
}

std::string_view to_string(dist::PartitionKind partition) {
  switch (partition) {
    case dist::PartitionKind::kUniformBlocks: return "uniform";
    case dist::PartitionKind::kBalancedNnz: return "balanced";
  }
  return "?";
}

std::string_view to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged: return "converged";
    case StopReason::kMaxSweeps: return "max-sweeps";
    case StopReason::kTimeBudget: return "time-budget";
    case StopReason::kPredicate: return "predicate";
    case StopReason::kObserver: return "observer";
    case StopReason::kFault: return "fault";
  }
  return "?";
}

std::string_view to_string(core::SolveStatus status) {
  switch (status) {
    case core::SolveStatus::kOk: return "ok";
    case core::SolveStatus::kRecovered: return "recovered";
    case core::SolveStatus::kRecoveredShrunk: return "recovered-shrunk";
    case core::SolveStatus::kNumericalAbort: return "numerical-abort";
    case core::SolveStatus::kCommAbort: return "comm-abort";
  }
  return "?";
}

std::string_view to_string(mpsim::FaultKind kind) {
  return mpsim::fault_kind_name(kind);
}

std::string_view to_string(par::ElasticMode mode) {
  switch (mode) {
    case par::ElasticMode::kOff: return "off";
    case par::ElasticMode::kShrink: return "shrink";
  }
  return "?";
}

std::optional<Method> method_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "als") return Method::kAls;
  if (t == "pp") return Method::kPp;
  if (t == "nncp") return Method::kNncpHals;
  if (t == "pp-nncp") return Method::kPpNncp;
  return std::nullopt;
}

std::optional<core::EngineKind> engine_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "naive") return core::EngineKind::kNaive;
  if (t == "dt") return core::EngineKind::kDt;
  if (t == "msdt") return core::EngineKind::kMsdt;
  if (t == "sparse") return core::EngineKind::kSparse;
  return std::nullopt;
}

std::optional<tensor::CsfLayout> csf_layout_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "all-modes" || t == "all") return tensor::CsfLayout::kAllModes;
  if (t == "half") return tensor::CsfLayout::kHalf;
  return std::nullopt;
}

std::optional<par::SolveMode> solve_mode_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "distributed-rows") return par::SolveMode::kDistributedRows;
  if (t == "replicated-sequential")
    return par::SolveMode::kReplicatedSequential;
  return std::nullopt;
}

std::optional<dist::PartitionKind> partition_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "uniform") return dist::PartitionKind::kUniformBlocks;
  if (t == "balanced") return dist::PartitionKind::kBalancedNnz;
  return std::nullopt;
}

std::optional<mpsim::FaultKind> fault_kind_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "none") return mpsim::FaultKind::kNone;
  if (t == "delay") return mpsim::FaultKind::kDelay;
  if (t == "timeout") return mpsim::FaultKind::kTimeout;
  if (t == "rank-abort") return mpsim::FaultKind::kRankAbort;
  if (t == "corruption") return mpsim::FaultKind::kCorruption;
  return std::nullopt;
}

std::optional<par::ElasticMode> elastic_mode_from_string(std::string_view s) {
  const std::string t = lower(s);
  if (t == "off") return par::ElasticMode::kOff;
  if (t == "shrink") return par::ElasticMode::kShrink;
  return std::nullopt;
}

}  // namespace parpp::solver
