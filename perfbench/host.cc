#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "core/sim/engine.hh"
#include "obs/perf/perf.hh"
#include "perfbench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

/** Value of the first "<key> : value" line of a /proc text file. */
std::string
procField(const char *path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::size_t begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
    }
    return "";
}

} // namespace

HostFingerprint
hostFingerprint()
{
    HostFingerprint host;
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    host.nproc = online > 0 ? static_cast<unsigned>(online) : 0;
    host.cpuModel = procField("/proc/cpuinfo", "model name");
    if (host.cpuModel.empty())
        host.cpuModel = "unknown";
    host.perfCounters = dee::obs::perf::HwCounters::available();
    host.buildType = PERFBENCH_BUILD_TYPE;
    host.engine = dee::engineName(dee::selectedEngine());
    return host;
}

double
processCpuSeconds()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    // "VmHWM:   123456 kB"
    const std::string hwm = procField("/proc/self/status", "VmHWM");
    if (!hwm.empty())
        return std::stod(hwm) / 1024.0;
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
