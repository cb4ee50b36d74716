/**
 * @file
 * perfbench: one process per measured repetition of a benchmark workload.
 *
 *   perfbench run   <workload> <seed> <work>   untraced repetition
 *   perfbench trace <workload> <seed> <work>   per-layer ledger
 *   perfbench stamp                            build fingerprint
 *
 * Each command prints one JSON object on stdout. run.py drives it,
 * checks the outputs and aggregates the metrics. Exit status 2 means a
 * usage error.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <malloc.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hh"

namespace
{

using namespace perfbench;

/** CPU brand string from CPUID (no file read needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned int i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
    return "unknown";
#endif
}

void
stamp(obs::JsonWriter &out)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    out.field("build_type", PERFBENCH_BUILD_TYPE)
        .field("optimized", optimized)
        .field("ndebug", ndebug)
        .field("ZERODEV_ASSERTS", ZERODEV_ASSERTS)
        .field("ZERODEV_TRACE", ZERODEV_TRACE)
        .field("ZERODEV_METRICS", ZERODEV_METRICS)
        .field("compiler", PERFBENCH_COMPILER)
        .field("cpu_model", cpuModel());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench run|trace <workload> <seed> <work>\n"
                 "       perfbench stamp\n"
                 "workloads: %s %s %s\n",
                 kRateHits, kZdevDirspill, kFuzzLockstep);
    return 2;
}

bool
parseCount(const char *s, std::uint64_t &v)
{
    if (*s < '0' || *s > '9')
        return false; // strtoull would accept a sign and wrap it
    char *end = nullptr;
    errno = 0;
    v = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // Pin glibc's mmap threshold at its default so every system's large
    // arrays are fresh mappings, first-touched during the run as in a
    // one-shot simulation; left dynamic, the threshold rises after the
    // first free and later systems in one process reuse warm heap pages,
    // which makes passes of the traced run incomparable.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const std::string cmd = argv[1];
    obs::JsonWriter out;
    out.beginObject();
    if (cmd == "stamp" && argc == 2) {
        stamp(out);
    } else if ((cmd == "run" || cmd == "trace") && argc == 5) {
        Spec s;
        s.workload = argv[2];
        if (!isKnownWorkload(s.workload) || !parseCount(argv[3], s.seed) ||
            !parseCount(argv[4], s.work) || s.work == 0) {
            return usage();
        }
        if (cmd == "run")
            runUntraced(s, out);
        else
            runTraced(s, out);
    } else {
        return usage();
    }
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}
