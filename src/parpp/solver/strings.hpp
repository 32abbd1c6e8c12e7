// Canonical string forms of the solver-axis enums — single source of truth
// for CLI flag parsing and bench JSON emission.
#pragma once

#include <optional>
#include <string_view>

#include "parpp/solver/spec.hpp"

namespace parpp::solver {

/// Canonical lowercase tokens: "als" | "pp" | "nncp" | "pp-nncp".
[[nodiscard]] std::string_view to_string(Method method);
/// "naive" | "dt" | "msdt" | "sparse" — the parse/emit tokens (CLI flags,
/// bench JSON). core::engine_kind_name stays the human-facing display form.
[[nodiscard]] std::string_view to_string(core::EngineKind kind);
/// "all-modes" | "half" — CSF layout (tensor::CsfOptions::layout).
[[nodiscard]] std::string_view to_string(tensor::CsfLayout layout);
/// "distributed-rows" | "replicated-sequential".
[[nodiscard]] std::string_view to_string(par::SolveMode mode);
/// "uniform" | "balanced".
[[nodiscard]] std::string_view to_string(dist::PartitionKind partition);
/// "converged" | "max-sweeps" | "time-budget" | "predicate" | "observer" |
/// "fault".
[[nodiscard]] std::string_view to_string(StopReason reason);
/// "ok" | "recovered" | "recovered-shrunk" | "numerical-abort" |
/// "comm-abort".
[[nodiscard]] std::string_view to_string(core::SolveStatus status);
/// "off" | "shrink" — elastic fault recovery (Execution::elastic.mode).
[[nodiscard]] std::string_view to_string(par::ElasticMode mode);
/// "none" | "delay" | "timeout" | "rank-abort" | "corruption" (same tokens
/// as mpsim::fault_kind_name).
[[nodiscard]] std::string_view to_string(mpsim::FaultKind kind);

/// Case-insensitive parses of the tokens above; nullopt on unknown input.
[[nodiscard]] std::optional<Method> method_from_string(std::string_view s);
[[nodiscard]] std::optional<core::EngineKind> engine_from_string(
    std::string_view s);
[[nodiscard]] std::optional<tensor::CsfLayout> csf_layout_from_string(
    std::string_view s);
[[nodiscard]] std::optional<par::SolveMode> solve_mode_from_string(
    std::string_view s);
[[nodiscard]] std::optional<dist::PartitionKind> partition_from_string(
    std::string_view s);
[[nodiscard]] std::optional<mpsim::FaultKind> fault_kind_from_string(
    std::string_view s);
[[nodiscard]] std::optional<par::ElasticMode> elastic_mode_from_string(
    std::string_view s);

}  // namespace parpp::solver
