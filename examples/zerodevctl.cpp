/**
 * @file
 * zerodevctl — control client for the zerodevd simulation service.
 *
 * Speaks zerodev-rpc-v1 over the daemon's Unix-domain socket: submit a
 * job spec, watch it to completion, fetch the result document, cancel,
 * drain or stop the daemon, or dump live stats. `run-local` executes a
 * job spec in-process through the exact service code path without a
 * daemon — the comparator CI uses to prove daemon-submitted artifacts
 * are byte-identical to direct execution.
 *
 * Exit codes (aligned with trace_tool / fuzz_tool — see
 * docs/OBSERVABILITY.md):
 *   0  success (a DONE job's own exit_code when fetching results)
 *   1  runtime failure / job FAILED or CANCELLED / RPC error
 *   2  usage error
 *   3  job spec file unreadable or invalid JSON
 *   4  divergence detected (a fuzz job's exit_code passes through)
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/exit_codes.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "service/client.hh"
#include "service/jobspec.hh"
#include "service/protocol.hh"

using namespace zerodev;
using namespace zerodev::service;

namespace
{

const char *const kUsage =
    "usage: zerodevctl [--socket PATH] <verb> [args]\n"
    "\n"
    "The socket defaults to $ZERODEVD_SOCKET.\n"
    "\n"
    "verbs:\n"
    "  submit <job.json> [--retry N]\n"
    "      submit a zerodev-job-v1 spec; prints the job id. On\n"
    "      queue-full back-pressure, --retry re-submits up to N times,\n"
    "      sleeping the daemon's suggested retry_after_ms between\n"
    "      attempts.\n"
    "  status <id>     print the job's state\n"
    "  watch <id>      poll until the job is terminal; exit 0 on DONE,\n"
    "                  1 on FAILED/CANCELLED\n"
    "  result <id>     print the job's result document; exits with the\n"
    "                  job's own exit code (fuzz divergences exit 4)\n"
    "  cancel <id>     cancel a queued or running job\n"
    "  stats           print daemon queue counters + live status\n"
    "  ping            check the daemon is responding\n"
    "  drain           finish queued work, then stop the daemon\n"
    "  shutdown        checkpoint the running job and stop immediately\n"
    "  run-local <job.json> --out DIR\n"
    "      execute a job spec in-process (no daemon): artifacts land\n"
    "      in DIR exactly as a daemon would produce them\n"
    "\n"
    "exit codes: 0 ok, 1 runtime/job failure, 2 usage error,\n"
    "            3 bad job file, 4 divergence detected\n";

int
usage(const char *why = nullptr)
{
    if (why)
        std::fprintf(stderr, "zerodevctl: %s\n", why);
    std::fputs(kUsage, stderr);
    return kExitUsage;
}

int
transportError(const std::string &err)
{
    std::fprintf(stderr, "zerodevctl: %s\n", err.c_str());
    return kExitRuntime;
}

/** Print an ok:false response's error code + detail; returns 1. */
int
rpcError(const obs::JsonValue &resp)
{
    const std::string detail = resp.str("detail");
    std::fprintf(stderr, "zerodevctl: daemon error: %s%s%s\n",
                 resp.str("error").c_str(), detail.empty() ? "" : ": ",
                 detail.c_str());
    return kExitRuntime;
}

bool
respOk(const obs::JsonValue &resp)
{
    const obs::JsonValue *ok = resp.find("ok");
    return ok && ok->isBool() && ok->boolean;
}

/** Load a job spec file, validate it client-side, return the compact
 *  rendering (empty on failure, with a message on stderr). */
std::string
loadJobSpec(const std::string &path)
{
    const auto text = obs::readTextFile(path);
    if (!text) {
        std::fprintf(stderr, "zerodevctl: cannot read %s\n",
                     path.c_str());
        return {};
    }
    std::string perr;
    const auto doc = obs::parseJson(*text, &perr);
    if (!doc) {
        std::fprintf(stderr, "zerodevctl: %s: invalid JSON: %s\n",
                     path.c_str(), perr.c_str());
        return {};
    }
    JobSpec spec;
    if (!JobSpec::parse(*doc, &spec, &perr)) {
        std::fprintf(stderr, "zerodevctl: %s: bad job spec: %s\n",
                     path.c_str(), perr.c_str());
        return {};
    }
    return spec.rawJson;
}

int
cmdSubmit(const std::string &sock, const std::string &path,
          std::uint64_t retries)
{
    const std::string jobJson = loadJobSpec(path);
    if (jobJson.empty())
        return kExitLoad;
    for (std::uint64_t attempt = 0;; ++attempt) {
        std::string err;
        const auto resp =
            rpcOnce(sock, rpcSubmitJson(jobJson), &err);
        if (!resp)
            return transportError(err);
        if (respOk(*resp)) {
            std::printf("%s\n", resp->str("id").c_str());
            return kExitOk;
        }
        if (resp->str("error") == "queue-full" && attempt < retries) {
            std::uint64_t waitMs = 500;
            if (const obs::JsonValue *ra =
                    resp->find("retry_after_ms"))
                waitMs = static_cast<std::uint64_t>(ra->number);
            std::fprintf(stderr,
                         "zerodevctl: queue full, retrying in %" PRIu64
                         " ms (%" PRIu64 "/%" PRIu64 ")\n",
                         waitMs, attempt + 1, retries);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(waitMs));
            continue;
        }
        return rpcError(*resp);
    }
}

int
cmdStatus(const std::string &sock, const std::string &id)
{
    std::string err;
    const auto resp = rpcOnce(sock, rpcRequestJson("status", id), &err);
    if (!resp)
        return transportError(err);
    if (!respOk(*resp))
        return rpcError(*resp);
    const std::string error = resp->str("error");
    std::printf("%s %s %s%s%s\n", id.c_str(),
                resp->str("type").c_str(), resp->str("state").c_str(),
                error.empty() ? "" : " ", error.c_str());
    return kExitOk;
}

int
cmdWatch(const std::string &sock, const std::string &id)
{
    ServiceClient client;
    std::string err;
    if (!client.connect(sock, &err))
        return transportError(err);
    std::string last;
    for (;;) {
        const auto resp =
            client.request(rpcRequestJson("status", id), &err);
        if (!resp)
            return transportError(err);
        if (!respOk(*resp))
            return rpcError(*resp);
        const std::string state = resp->str("state");
        if (state != last) {
            std::printf("%s %s\n", id.c_str(), state.c_str());
            std::fflush(stdout);
            last = state;
        }
        JobState st;
        if (jobStateFromString(state, &st) && isTerminal(st))
            return st == JobState::Done ? kExitOk : kExitRuntime;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
}

int
cmdResult(const std::string &sock, const std::string &id)
{
    std::string err;
    const auto resp = rpcOnce(sock, rpcRequestJson("result", id), &err);
    if (!resp)
        return transportError(err);
    if (!respOk(*resp))
        return rpcError(*resp);
    const std::string state = resp->str("state");
    if (state != "DONE") {
        std::fprintf(stderr, "zerodevctl: %s is %s%s%s\n", id.c_str(),
                     state.c_str(),
                     resp->str("error").empty() ? "" : ": ",
                     resp->str("error").c_str());
        return kExitRuntime;
    }
    const obs::JsonValue *result = resp->find("result");
    if (!result) {
        std::fprintf(stderr, "zerodevctl: %s has no result document\n",
                     id.c_str());
        return kExitRuntime;
    }
    std::printf("%s\n", obs::renderJson(*result).c_str());
    int code = kExitOk;
    if (const obs::JsonValue *ec = result->find("exit_code"))
        code = static_cast<int>(ec->number);
    return code;
}

int
cmdSimple(const std::string &sock, const std::string &op)
{
    std::string err;
    const auto resp = rpcOnce(sock, rpcRequestJson(op), &err);
    if (!resp)
        return transportError(err);
    if (!respOk(*resp))
        return rpcError(*resp);
    std::printf("%s\n", obs::renderJson(*resp).c_str());
    return kExitOk;
}

int
cmdCancel(const std::string &sock, const std::string &id)
{
    std::string err;
    const auto resp = rpcOnce(sock, rpcRequestJson("cancel", id), &err);
    if (!resp)
        return transportError(err);
    if (!respOk(*resp))
        return rpcError(*resp);
    std::printf("%s\n", obs::renderJson(*resp).c_str());
    return kExitOk;
}

int
cmdRunLocal(const std::string &path, const std::string &outDir)
{
    const auto text = obs::readTextFile(path);
    if (!text) {
        std::fprintf(stderr, "zerodevctl: cannot read %s\n",
                     path.c_str());
        return kExitLoad;
    }
    std::string perr;
    const auto doc = obs::parseJson(*text, &perr);
    if (!doc) {
        std::fprintf(stderr, "zerodevctl: %s: invalid JSON: %s\n",
                     path.c_str(), perr.c_str());
        return kExitLoad;
    }
    JobSpec spec;
    if (!JobSpec::parse(*doc, &spec, &perr)) {
        std::fprintf(stderr, "zerodevctl: %s: bad job spec: %s\n",
                     path.c_str(), perr.c_str());
        return kExitLoad;
    }
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    if (ec) {
        std::fprintf(stderr, "zerodevctl: cannot create %s: %s\n",
                     outDir.c_str(), ec.message().c_str());
        return kExitRuntime;
    }

    const JobOutcome out = executeJob(spec, outDir, nullptr);
    if (!out.ok) {
        std::fprintf(stderr, "zerodevctl: job failed: %s\n",
                     out.error.empty() ? "interrupted"
                                       : out.error.c_str());
        return kExitRuntime;
    }
    obs::writeTextFile(outDir + "/result.json", out.resultJson + "\n");
    std::printf("%s\n", out.resultJson.c_str());
    return out.exitCode;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *env = std::getenv("ZERODEVD_SOCKET");
    std::string sock = env ? env : "";
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return kExitOk;
        }
        if (arg == "--socket") {
            if (i + 1 >= argc)
                return usage("--socket needs a path");
            sock = argv[++i];
            continue;
        }
        break;
    }
    if (i >= argc)
        return usage();
    const std::string verb = argv[i++];

    if (verb == "run-local") {
        std::string path, outDir;
        for (; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
                outDir = argv[++i];
            else if (path.empty() && argv[i][0] != '-')
                path = argv[i];
            else
                return usage("run-local: unknown option");
        }
        if (path.empty() || outDir.empty())
            return usage("run-local needs <job.json> and --out DIR");
        return cmdRunLocal(path, outDir);
    }

    if (sock.empty())
        return usage("no socket (use --socket or $ZERODEVD_SOCKET)");

    if (verb == "submit") {
        std::string path;
        std::uint64_t retries = 0;
        for (; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--retry") && i + 1 < argc)
                retries = std::strtoull(argv[++i], nullptr, 10);
            else if (path.empty() && argv[i][0] != '-')
                path = argv[i];
            else
                return usage("submit: unknown option");
        }
        if (path.empty())
            return usage("submit needs <job.json>");
        return cmdSubmit(sock, path, retries);
    }
    if (verb == "status" || verb == "watch" || verb == "result" ||
        verb == "cancel") {
        if (i >= argc)
            return usage((verb + " needs <id>").c_str());
        const std::string id = argv[i];
        if (verb == "status")
            return cmdStatus(sock, id);
        if (verb == "watch")
            return cmdWatch(sock, id);
        if (verb == "result")
            return cmdResult(sock, id);
        return cmdCancel(sock, id);
    }
    if (verb == "stats" || verb == "ping" || verb == "drain" ||
        verb == "shutdown")
        return cmdSimple(sock, verb);
    return usage(("unknown verb: " + verb).c_str());
}
