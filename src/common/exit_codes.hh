/**
 * @file
 * The exit contract every command-line tool shares (and the verify
 * batch driver, whose return value fuzz_tool exits with): one name per
 * code, pinned by tests/test_cli.cc.
 */

#ifndef ZERODEV_COMMON_EXIT_CODES_HH
#define ZERODEV_COMMON_EXIT_CODES_HH

namespace zerodev
{

constexpr int kExitOk = 0;      //!< success
constexpr int kExitRuntime = 1; //!< runtime error (I/O, service, ...)
constexpr int kExitUsage = 2;   //!< bad command line
constexpr int kExitLoad = 3;    //!< an input file failed to load
/** The tool ran and its check failed: a divergence, a regression, an
 *  isolation breach or a failed telemetry check. */
constexpr int kExitCheckFailed = 4;

} // namespace zerodev

#endif // ZERODEV_COMMON_EXIT_CODES_HH
