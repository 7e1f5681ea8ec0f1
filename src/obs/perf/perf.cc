#include "obs/perf/perf.hh"

#include <cstdlib>
#include <cstring>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define DEE_PERF_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define DEE_PERF_HAVE_PERF_EVENT 0
#endif

#if __has_include(<sys/resource.h>)
#define DEE_PERF_HAVE_GETRUSAGE 1
#include <sys/resource.h>
#else
#define DEE_PERF_HAVE_GETRUSAGE 0
#endif

namespace dee::obs::perf
{

HwSample
HwSample::deltaFrom(const HwSample &start) const
{
    HwSample delta;
    if (!valid || !start.valid)
        return delta;
    delta.valid = true;
    delta.cycles = cycles - start.cycles;
    delta.instructions = instructions - start.instructions;
    delta.branchMisses = branchMisses - start.branchMisses;
    delta.cacheMisses = cacheMisses - start.cacheMisses;
    return delta;
}

bool
HwCounters::envDisabled()
{
    const char *env = std::getenv("DEE_PERF_HW");
    if (env == nullptr)
        return false;
    return std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0;
}

#if DEE_PERF_HAVE_PERF_EVENT

namespace
{

int
openHwCounter(std::uint64_t config)
{
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = config;
    attr.disabled = 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    // Self-monitoring (pid 0, any cpu), no group: events that the
    // host cannot count (e.g. cache-misses in some VMs) fail alone
    // without taking the others down.
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

bool
readHwCounter(int fd, std::uint64_t *value)
{
    if (fd < 0)
        return false;
    std::uint64_t v = 0;
    if (read(fd, &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v)))
        return false;
    *value = v;
    return true;
}

} // namespace

HwCounters::HwCounters()
{
    if (envDisabled())
        return;
    static const std::uint64_t kConfigs[4] = {
        PERF_COUNT_HW_CPU_CYCLES,
        PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_BRANCH_MISSES,
        PERF_COUNT_HW_CACHE_MISSES,
    };
    for (int i = 0; i < 4; ++i)
        fds_[i] = openHwCounter(kConfigs[i]);
    // IPC needs both cycles and instructions; a host that can open
    // only one of them is treated as having none.
    if (fds_[0] < 0 || fds_[1] < 0) {
        for (int &fd : fds_) {
            if (fd >= 0)
                close(fd);
            fd = -1;
        }
    }
}

HwCounters::~HwCounters()
{
    for (int fd : fds_) {
        if (fd >= 0)
            close(fd);
    }
}

HwSample
HwCounters::read() const
{
    HwSample sample;
    // The env gate is rechecked on every read so tests (and scripts)
    // can force the fallback after counters were already opened.
    if (envDisabled() || !enabled())
        return sample;
    sample.valid = readHwCounter(fds_[0], &sample.cycles) &&
                   readHwCounter(fds_[1], &sample.instructions);
    if (sample.valid) {
        readHwCounter(fds_[2], &sample.branchMisses);
        readHwCounter(fds_[3], &sample.cacheMisses);
    }
    return sample;
}

#else // !DEE_PERF_HAVE_PERF_EVENT

HwCounters::HwCounters() = default;
HwCounters::~HwCounters() = default;

HwSample
HwCounters::read() const
{
    return {};
}

#endif // DEE_PERF_HAVE_PERF_EVENT

bool
HwCounters::enabled() const
{
    return fds_[0] >= 0 && fds_[1] >= 0;
}

HwCounters &
HwCounters::threadLocal()
{
    static thread_local HwCounters counters;
    return counters;
}

bool
HwCounters::available()
{
    return !envDisabled() && threadLocal().enabled();
}

ThroughputMeter::ThroughputMeter(std::string scope)
    : scope_(std::move(scope)), registry_(Registry::global()),
      start_(std::chrono::steady_clock::now()),
      hwStart_(HwCounters::threadLocal().read())
{
}

double
ThroughputMeter::elapsedMs() const
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_)
        .count();
}

HwSample
ThroughputMeter::hwDelta() const
{
    return HwCounters::threadLocal().read().deltaFrom(hwStart_);
}

ThroughputMeter::~ThroughputMeter()
{
    publish();
}

void
ThroughputMeter::publish()
{
    const double ms = elapsedMs();
    const HwSample hw = hwDelta();
    const std::string prefix = "perf." + scope_;
    ++registry_.counter(prefix + ".runs");
    registry_.counter(prefix + ".sim_instructions") += instructions_;
    registry_.counter(prefix + ".sim_cycles") += cycles_;
    registry_.stat(prefix + ".run_ms").add(ms);
    if (hw.valid) {
        registry_.counter(prefix + ".host_cycles") += hw.cycles;
        registry_.counter(prefix + ".host_instructions") +=
            hw.instructions;
        registry_.counter(prefix + ".host_branch_misses") +=
            hw.branchMisses;
        registry_.counter(prefix + ".host_cache_misses") +=
            hw.cacheMisses;
    }
}

HostResources
readHostResources()
{
    HostResources res;
#if DEE_PERF_HAVE_GETRUSAGE
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return res;
    res.valid = true;
    // ru_maxrss is KiB on Linux; macOS reports bytes, normalized here
    // so perf.host.peak_rss_kb means the same thing everywhere.
#if defined(__APPLE__)
    res.peakRssKb = static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    res.peakRssKb = static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
    res.majorFaults = static_cast<std::uint64_t>(usage.ru_majflt);
    res.minorFaults = static_cast<std::uint64_t>(usage.ru_minflt);
#endif // DEE_PERF_HAVE_GETRUSAGE
    return res;
}

void
publishHostResources(Registry &registry)
{
    const HostResources res = readHostResources();
    if (!res.valid)
        return;
    registry.counter("perf.host.peak_rss_kb") = res.peakRssKb;
    registry.counter("perf.host.major_faults") = res.majorFaults;
    registry.counter("perf.host.minor_faults") = res.minorFaults;
}

} // namespace dee::obs::perf
