/**
 * @file
 * Host-performance observability: how fast does the *simulator* run?
 *
 * Every observability layer before this one (stats registry, cycle
 * accounting, speculation profiler) measures the simulated machine.
 * This layer measures the host: simulated-instructions-per-second and
 * simulated-cycles-per-second per "<workload>.<model>" scope, plus —
 * where the kernel allows it — hardware counters (host cycles,
 * instructions, branch- and cache-misses) read through
 * perf_event_open(2). It is the instrumentation that makes "provably
 * faster, bit-exact" hot-path rewrites checkable: the simulated
 * results are pinned by dee_report --check baselines while perf.*
 * trends are tracked by dee_bench / dee_report --perf-diff.
 *
 * Published registry paths, per scope:
 *
 *   perf.<scope>.runs              counter  metered runs
 *   perf.<scope>.sim_instructions  counter  simulated instructions
 *   perf.<scope>.sim_cycles       counter  simulated machine cycles
 *   perf.<scope>.run_ms           stat     host wall ms per run
 *   perf.<scope>.kips             scalar   simulated kilo-instr / host s
 *                                          (derived at dump time)
 *   perf.<scope>.mcps             scalar   simulated mega-cycles / host s
 *                                          (derived at dump time)
 *   perf.<scope>.host_cycles      counter  (hw counters only)
 *   perf.<scope>.host_instructions counter (hw counters only)
 *   perf.<scope>.host_branch_misses counter (hw counters only)
 *   perf.<scope>.host_cache_misses  counter (hw counters only)
 *   perf.<scope>.host_ipc         scalar   (hw counters only; derived
 *                                          at dump time)
 *
 * A meter publishes only facts that merge exactly: counters add and
 * run_ms stats merge by sample replay, so perf.* scopes are correct at
 * any --jobs value. The derived scalars are a pure function of that
 * merged state, written once by obs::deriveScalars() when the
 * registry is dumped.
 *
 * Wall-clock (and host-counter) values are nondeterministic by
 * nature; consumers that compare runs bit-for-bit must normalize the
 * whole perf.* subtree away, exactly as they already do for runner.*
 * and *run_ms.
 */

#ifndef DEE_OBS_PERF_PERF_HH
#define DEE_OBS_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/registry.hh"

namespace dee::obs::perf
{

/** One reading of the host hardware counters. */
struct HwSample
{
    /** True when at least host cycles AND instructions were read. */
    bool valid = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t cacheMisses = 0;

    /** Component-wise difference (for end - start deltas); invalid
     *  when either operand is. */
    HwSample deltaFrom(const HwSample &start) const;
};

/**
 * Per-thread wrapper over Linux perf_event_open(2).
 *
 * Construction opens one self-monitoring counter per hardware event
 * (host cycles, instructions, branch-misses, cache-misses). Opening
 * degrades gracefully: when the syscall is unavailable or unpermitted
 * (non-Linux hosts, seccomp'd containers, perf_event_paranoid), the
 * counters simply stay closed, enabled() is false and read() returns
 * an invalid sample — callers fall back to timing-only metering with
 * no runtime error. Setting the environment variable DEE_PERF_HW to
 * "0", "off" or "false" forces the fallback path (used by tests and
 * by benchmarking environments where counter multiplexing would skew
 * results).
 */
class HwCounters
{
  public:
    /** Opens the counters (or not; see class comment). */
    HwCounters();
    ~HwCounters();

    HwCounters(const HwCounters &) = delete;
    HwCounters &operator=(const HwCounters &) = delete;

    /** The calling thread's instance, opened on first use. */
    static HwCounters &threadLocal();

    /** True when the calling thread can read real hardware counters:
     *  not force-disabled via DEE_PERF_HW and perf_event_open
     *  succeeded for cycles + instructions. */
    static bool available();

    /** True when DEE_PERF_HW requests the timing-only fallback. */
    static bool envDisabled();

    /** True when cycles + instructions counters are open. */
    bool enabled() const;

    /** Current counter values; !valid when unavailable/disabled. */
    HwSample read() const;

  private:
    /** fd per event: cycles, instructions, branch-miss, cache-miss. */
    int fds_[4] = {-1, -1, -1, -1};
};

/**
 * RAII throughput meter for one scope's simulation work.
 *
 * Construct before the hot work with the "<workload>.<model>" scope,
 * feed it the simulated instruction/cycle totals, and let destruction
 * publish into the registry captured at construction (the cell-local
 * one inside a parallel sweep — see obs/isolate.hh):
 *
 *     obs::perf::ThroughputMeter meter("compress.DEE-CD-MF");
 *     SimResult r = sim.run(pred);
 *     meter.addInstructions(r.instructions);
 *     meter.addCycles(r.cycles);
 *     // dtor: perf.compress.DEE-CD-MF.* updated
 *
 * The constructor is two clock reads (steady_clock + the hardware
 * counters when open); the destructor is the same plus a handful of
 * registry lookups — negligible against any real simulation.
 */
class ThroughputMeter
{
  public:
    explicit ThroughputMeter(std::string scope);
    ~ThroughputMeter();

    ThroughputMeter(const ThroughputMeter &) = delete;
    ThroughputMeter &operator=(const ThroughputMeter &) = delete;

    void addInstructions(std::uint64_t n) { instructions_ += n; }
    void addCycles(std::uint64_t n) { cycles_ += n; }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t cycles() const { return cycles_; }
    const std::string &scope() const { return scope_; }

    /** Host wall milliseconds since construction. */
    double elapsedMs() const;

    /** Hardware-counter delta since construction (!valid without
     *  counter support). */
    HwSample hwDelta() const;

  private:
    void publish();

    std::string scope_;
    Registry &registry_;
    std::uint64_t instructions_ = 0;
    std::uint64_t cycles_ = 0;
    std::chrono::steady_clock::time_point start_;
    HwSample hwStart_;
};

/**
 * Process-lifetime host resource usage, read from getrusage(2):
 * peak resident set and page-fault totals. This is the memory-pressure
 * side of the host-perf story — a hot-path rewrite that wins KIPS by
 * ballooning its working set shows up here.
 */
struct HostResources
{
    bool valid = false;
    std::uint64_t peakRssKb = 0;    ///< ru_maxrss (KiB on Linux)
    std::uint64_t majorFaults = 0;  ///< ru_majflt (paged in from disk)
    std::uint64_t minorFaults = 0;  ///< ru_minflt
};

/** Current process totals; !valid where getrusage is unavailable. */
HostResources readHostResources();

/**
 * Publishes readHostResources() under perf.host.* (peak_rss_kb,
 * major_faults, minor_faults) in @p registry — counters are *set* to
 * the process totals, not accumulated, so repeated publishes (Session
 * exit after several sweeps) stay idempotent. No-op when !valid.
 */
void publishHostResources(Registry &registry);

} // namespace dee::obs::perf

#endif // DEE_OBS_PERF_PERF_HH
