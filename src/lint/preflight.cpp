#include "lint/preflight.hpp"

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace elv::lint {

const char *
boundary_name(Boundary boundary)
{
    switch (boundary) {
      case Boundary::CandidateGen: return "candidate-gen";
      case Boundary::CompilerOutput: return "compiler-output";
      case Boundary::Executor: return "executor";
      case Boundary::Training: return "training";
    }
    return "unknown";
}

void
preflight(const circ::Circuit &circuit, Boundary boundary,
          const LintOptions &options)
{
    ELV_METRIC_COUNT("lint.circuits_checked");
    const Report report = lint_circuit(circuit, options);
    const std::size_t errors = report.count(Severity::Error);
    if (errors == 0)
        return;
    ELV_METRIC_COUNT_N("lint.violations",
                       static_cast<std::uint64_t>(errors));
    ELV_REQUIRE(false, "lint preflight failed at the "
                           << boundary_name(boundary) << " boundary:\n"
                           << report.to_string());
}

} // namespace elv::lint
