/**
 * @file
 * Shared types of the dee benchmark (see README.md).
 *
 * A workload builds its inputs in setup(), then runs a fixed list of
 * items: an item is one timed unit of user-visible work (a runModel
 * cell, or a fresh trace plus its two simulations). Every item returns
 * the simulated statistics it produced, so main.cc can check and
 * digest them. Spans are recorded only when a SpanLog is passed in:
 * the untraced path makes no extra clock reads beyond the per-item
 * latency.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sim/models.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start);

/** One recorded call into a library layer. */
struct Span
{
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< enclosing span on the same thread
    const char *name = "";    ///< layer metric stem, e.g. "sim.window"
    const char *detail = "";  ///< model name for sim spans, else ""
    std::int64_t item = -1;   ///< item index, -1 outside items
    std::int64_t startNs = 0; ///< since the log's epoch
    std::int64_t endNs = 0;
    std::uint64_t work = 0;   ///< records interpreted / instrs simulated
};

/**
 * In-memory span store, written out only when the run ends. Safe to
 * record from runner worker threads.
 */
class SpanLog
{
  public:
    SpanLog();

    std::int64_t open();
    void close(std::int64_t id, std::int64_t parent, const char *name,
               const char *detail, std::int64_t item,
               Clock::time_point start, std::uint64_t work);

    std::int64_t nowNs() const;
    std::vector<Span> spans() const;

  private:
    std::int64_t sinceEpochNs(Clock::time_point when) const;

    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::int64_t> nextId_{0};
};

/** RAII span around one public call; a no-op when the log is null. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name, std::int64_t item,
              const char *detail = "");
    ~SpanScope();

    /** Work count stored with the span (ignored when untraced). */
    void setWork(std::uint64_t work) { work_ = work; }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    const char *name_;
    const char *detail_;
    std::int64_t item_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::uint64_t work_ = 0;
    Clock::time_point start_;
};

/** Self time per span (duration minus the union of its children). */
std::map<std::int64_t, double> selfMs(const std::vector<Span> &spans);

/** Milliseconds of [begin, end) covered by at least one span. */
double coveredMs(const std::vector<Span> &spans, std::int64_t beginNs,
                 std::int64_t endNs);

/** Simulated statistics of one model run, as the checks need them. */
struct SimStats
{
    std::string model;
    int et = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicted = 0;
    double speedup = 0.0;
    dee::obs::CycleAccount account;
};

SimStats statsOf(dee::ModelKind kind, int et,
                 const dee::SimResult &result);

/** What one item produced. */
struct ItemResult
{
    std::string label;        ///< workload/trace, model, E_T, PE, seed
    std::string trace;        ///< trace name the Oracle check groups by
    std::vector<SimStats> runs;
    double ms = 0.0;          ///< host latency of the whole item
    std::uint64_t records = 0; ///< trace records the item built (fresh)
};

/** Digest of an item's simulated statistics (instructions, cycles,
 *  branches, mispredicts, every account class and denominator). */
std::uint64_t digestOf(const ItemResult &item);

/** Size knobs; the smoke test shrinks them. */
struct Params
{
    int fig5Scale = 4;
    int peScale = 2;
    std::vector<int> freshScales{1, 4, 16};
    std::size_t freshItems = 45;
};

/** Host-side counters a traced pass and its probes report. */
using LayerMetrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    virtual std::size_t items() const = 0;
    virtual int jobs() const = 0;

    /** Builds the inputs every item reads. Repeatable: each call
     *  replaces the previous inputs. */
    virtual void setup(SpanLog *log) = 0;

    /** Runs item @p index with @p engine. Thread-safe across items. */
    virtual ItemResult runItem(std::size_t index, dee::Engine engine,
                               SpanLog *log) const = 0;

    /** Most trace records the workload holds live at once. */
    virtual std::uint64_t
    liveRecords(const std::vector<ItemResult> &pass) const = 0;

    /**
     * After a traced pass: probes the per-call cost of the public
     * calls a cell repeats inside runModel, and of every layer this
     * workload's own path does not call, on its set-up instances.
     */
    virtual void probe(LayerMetrics &out) const = 0;

    /** Simulated result metrics printed in the report (not timed). */
    virtual std::map<std::string, double>
    reportExtras(const std::vector<ItemResult> &pass) const;
};

/** Looks a workload up by its benchmark name; null when unknown. */
std::unique_ptr<Workload> makeWorkloadByName(const std::string &name,
                                             std::uint64_t seed,
                                             const Params &params);

/** The three workload names, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** Host facts every result line carries. */
struct HostFingerprint
{
    unsigned nproc = 0;
    std::string cpuModel;
    bool perfCounters = false;
    std::string buildType;
    std::string engine;
};

HostFingerprint hostFingerprint();

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();

/** Process peak resident set (VmHWM) in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
