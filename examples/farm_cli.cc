/**
 * @file
 * Example: the worker side of the fault-tolerant distributed sweep farm
 * (src/exp/farm.hh). One campaign is a farm directory on a filesystem
 * every participant can see; `sweep_cli --farm-dir` starts it:
 *
 *   # terminal 1 — materialize the campaign, reap leases, collect;
 *   # --jobs 0 leaves every job to external workers
 *   sweep_cli --app em3d --sweep bisection --points 18,9,4.5 \
 *             --farm-dir /tmp/farm --jobs 0
 *
 *   # terminals 2..N — claim and run jobs until the queue drains
 *   farm_cli worker --farm-dir /tmp/farm
 *   farm_cli worker --farm-dir /tmp/farm
 *
 *   # anywhere — live campaign status (counts, counters, poison list)
 *   farm_cli status --farm-dir /tmp/farm
 *
 * A worker needs nothing but the directory: the cache path and the
 * lease timing come from the campaign's farm.json. `kill -9` any
 * worker at any time: the coordinator reaps its lease, re-queues the
 * job with backoff, and another worker re-runs it cold (or takes its
 * result from the shared cache, if the dead worker had already stored
 * it). Set
 * FARM_FAULT=drop-lease|stall-heartbeat|corrupt-result|kill-after-claim
 * in a worker's environment to exercise one recovery path
 * deterministically.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "exp/farm.hh"

using namespace alewife;

namespace {

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: farm_cli worker --farm-dir DIR\n"
           "       farm_cli status --farm-dir DIR\n"
           "\n"
           "Start a campaign with `sweep_cli ... --farm-dir DIR` "
           "(--jobs 0 = coordinate only).\n"
           "FARM_FAULT=drop-lease|stall-heartbeat|corrupt-result|\n"
           "kill-after-claim injects one deterministic fault into a "
           "worker.\n";
    std::exit(2);
}

/** The subcommand's --farm-dir; anything else is a usage error. */
std::string
parseFarmDir(int argc, char **argv)
{
    std::string farmDir;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--farm-dir") {
            if (i + 1 >= argc) {
                std::cerr << "farm_cli: --farm-dir requires a value\n\n";
                usage();
            }
            farmDir = argv[++i];
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            std::cerr << "farm_cli: unknown option '" << a << "'\n\n";
            usage();
        }
    }
    if (farmDir.empty()) {
        std::cerr << "farm_cli: --farm-dir is required\n\n";
        usage();
    }
    return farmDir;
}

int
runWorker(const std::string &farmDir)
{
    std::string err;
    auto wo = exp::FarmWorker::optionsFromManifest(farmDir, &err);
    if (!wo) {
        std::cerr << "farm_cli: " << err
                  << " (start the campaign with sweep_cli --farm-dir "
                     "first)\n";
        return 2;
    }
    exp::FarmWorker worker(std::move(*wo));
    const int n = worker.runLoop();
    std::cerr << "farm worker: completed " << n << " job(s)"
              << (worker.degraded() ? " (degraded: queue directory "
                                      "lost; exited cleanly)"
                                    : "")
              << "\n";
    return 0;
}

int
runStatus(const std::string &farmDir)
{
    const exp::Json j = exp::readFarmStatus(farmDir);
    if (j.isNull()) {
        std::cerr << "farm_cli: " << farmDir
                  << " is not a farm directory (no farm.json)\n";
        return 2;
    }
    std::cout << j.dump(2) << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc >= 2 ? argv[1] : "";
    if (mode != "worker" && mode != "status") {
        if (!mode.empty() && mode != "--help" && mode != "-h")
            std::cerr << "farm_cli: unknown subcommand '" << mode
                      << "'\n\n";
        usage();
    }
    const std::string farmDir = parseFarmDir(argc, argv);
    return mode == "worker" ? runWorker(farmDir) : runStatus(farmDir);
}
