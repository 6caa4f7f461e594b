/**
 * @file
 * The sdfm_lint rule engine: a dependency-free static checker that
 * enforces this repository's determinism and hygiene invariants over
 * the C++ sources in src/. The CLI wrapper (sdfm_lint.cc) runs it as
 * a CTest; tests/lint_test.cc feeds it fixture snippets directly.
 *
 * Rules (all suppressible, see below):
 *
 *   wallclock         No wall-clock or ambient randomness outside
 *                     util/rng and util/sim_time.h: rand()/srand(),
 *                     std::random_device, std::mt19937, time(),
 *                     clock(), <chrono> clocks, gettimeofday(), ...
 *                     Every random draw must flow through the seeded
 *                     Rng; every timestamp through SimTime.
 *   unordered-iter    No iteration over std::unordered_map /
 *                     std::unordered_set (range-for or .begin()):
 *                     iteration order is implementation-defined, so
 *                     any trajectory state touched in such a loop is
 *                     nondeterministic across standard libraries.
 *   float-accounting  No float/double declarations for exact
 *                     accounting quantities (identifiers naming
 *                     bytes/pages/_count): SLO and TCO claims rest
 *                     on exact integer bookkeeping.
 *   header-hygiene    Headers open with an include guard (or
 *                     #pragma once) and never contain
 *                     `using namespace` at file scope.
 *   metric-name       Telemetry metric names the collectors emit
 *                     (a literal subscripting a MetricsSnapshot's
 *                     counters/gauges/histograms map) follow the
 *                     `subsystem.snake_case` convention.
 *   dynamic-cast      No dynamic_cast: concrete tier types are
 *                     recovered by dispatching on FarTier::kind()
 *                     and static_cast, never by probing the runtime
 *                     type (RTTI hides missing-case bugs and invites
 *                     nullable accessors).
 *
 * Suppressions: a comment containing `sdfm-lint: allow(rule)` (or a
 * comma-separated rule list) suppresses findings for those rules on
 * its own line and on the next code line below it -- intervening
 * comment-only or blank lines (a multi-line justification) do not
 * break the reach. `sdfm-lint: allow-file(rule)` anywhere in a file
 * suppresses the rule for the whole file. Suppressions are meant to
 * be rare and always carry a justification in the surrounding
 * comment.
 */

#ifndef SDFM_TOOLS_LINT_ENGINE_H
#define SDFM_TOOLS_LINT_ENGINE_H

#include <string>
#include <vector>

namespace sdfm {
namespace lint {

/** One input file (or in-memory fixture). */
struct Source
{
    /** Path used for rule exemptions and reporting; does not need to
     *  exist on disk when linting fixtures. */
    std::string path;
    std::string content;
};

/** One rule violation. */
struct Finding
{
    std::string rule;
    std::string path;
    int line = 0;  ///< 1-based
    std::string message;
};

/** Names of every implemented rule, in reporting order. */
std::vector<std::string> rule_names();

/**
 * Lint a set of sources as one program. Sources sharing a path stem
 * (foo.h + foo.cc) are analysed as a unit so that, e.g., iteration in
 * foo.cc over an unordered member declared in foo.h is caught.
 * Findings are ordered by path, then line.
 */
std::vector<Finding> lint_sources(const std::vector<Source> &sources);

/**
 * Lint every .h/.cc file under @p root (recursively, in sorted path
 * order). Returns findings; I/O problems surface as findings with
 * rule "io-error".
 */
std::vector<Finding> lint_tree(const std::string &root);

/** Render a finding as "path:line: [rule] message". */
std::string to_string(const Finding &finding);

}  // namespace lint
}  // namespace sdfm

#endif  // SDFM_TOOLS_LINT_ENGINE_H
