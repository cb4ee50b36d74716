/**
 * @file
 * Prometheus text exposition helpers: the number spelling the telemetry
 * sink renders metrics.prom with, and a grammar checker that validates
 * such a file from outside the program (`telemetry_tool check-prom`).
 *
 * The series themselves are rendered by the TelemetrySink from its own
 * job table at scrape time (obs/telemetry.hh).
 */

#ifndef ZERODEV_OBS_METRICS_HH
#define ZERODEV_OBS_METRICS_HH

#include <string>

namespace zerodev::obs
{

/** Render a double the way Prometheus expects: the shortest %g spelling
 *  that round-trips exactly (so a 0.1 bucket bound reads `le="0.1"`,
 *  not 17 digits of noise), integral values as integers, and
 *  `+Inf`/`-Inf`/`NaN` for the non-finite ones. */
std::string promNumber(double v);

/**
 * Validate a Prometheus text exposition: HELP/TYPE comment syntax,
 * legal metric and label names, parseable sample values, TYPE blocks
 * declared at most once and before their samples, and no duplicate
 * (name, labels) series. On failure stores a reason in @p err.
 */
bool checkPrometheusText(const std::string &text,
                         std::string *err = nullptr);

} // namespace zerodev::obs

#endif // ZERODEV_OBS_METRICS_HH
