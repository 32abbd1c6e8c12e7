// Umbrella header for the parpp::solve() facade.
#pragma once

#include "parpp/solver/solve.hpp"
#include "parpp/solver/spec.hpp"
#include "parpp/solver/strings.hpp"
