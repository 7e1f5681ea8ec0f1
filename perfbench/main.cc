/**
 * @file
 * dee_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   dee_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   dee_perfbench --smoke
 *   dee_perfbench --record-digests
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones from a separate traced pass. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Lines before
 * it are the human-readable report. See README.md.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/sim/engine.hh"
#include "obs/registry.hh"
#include "perfbench.hh"
#include "runner/sweep.hh"
#include "trace/trace.hh"

#ifndef PERFBENCH_SOURCE_DIR
#define PERFBENCH_SOURCE_DIR "."
#endif

namespace perfbench
{
namespace
{

/** The seed whose digests digests.txt records. */
constexpr std::uint64_t kDefaultSeed = 0;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;
/** Fewest item samples a run may report percentiles over: the p90
 *  then has at least 10 samples beyond it. */
constexpr std::size_t kMinItems = 100;
/** Every kDifferentialStride-th item is re-run on the other engine. */
constexpr std::size_t kDifferentialStride = 8;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string commit = "unknown";
    bool smoke = false;
    bool recordDigests = false;
};

/** One metric of the result line, in BENCHMARK.json order. */
struct Metric
{
    std::string name;
    const char *unit;
};

const std::vector<Metric> kEndToEnd{
    {"setup_s", "s"},       {"wall_s", "s"},
    {"sim_kips", "kinstr/s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},  {"item_ms.p50", "ms"},
    {"item_ms.p90", "ms"},
};

std::vector<Metric>
perLayerMetrics()
{
    std::vector<Metric> out{{"sim.window_ms", "ms"}, {"sim.oracle_ms", "ms"}};
    for (dee::ModelKind kind : dee::allModels())
        out.push_back(
            {std::string("sim.") + dee::modelName(kind) + ".ms", "ms"});
    const std::vector<Metric> rest{
        {"sim.ns_per_instr", "ns"},     {"sim.squashed_frac", "ratio"},
        {"bpred.accuracy_ms", "ms"},    {"trace.segment_ms", "ms"},
        {"tree.build_ms", "ms"},        {"exec.interpret_ms", "ms"},
        {"exec.ns_per_instr", "ns"},    {"workloads.gen_ms", "ms"},
        {"cfg.build_ms", "ms"},         {"trace.records", "count"},
        {"trace.mb", "MB"},             {"mem.replay_ms", "ms"},
        {"mem.l1_hit_frac", "ratio"},   {"runner.cells_wall_ms", "ms"},
        {"runner.busy_frac", "ratio"},  {"runner.merge_ms", "ms"},
        {"absint.ms", "ms"},            {"unattributed_ms", "ms"},
        {"trace_overhead_pct", "%"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linear-interpolated percentile, @p q in [0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    if (values.empty())
        return 0.0;
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

dee::Engine
otherEngine(dee::Engine engine)
{
    return engine == dee::Engine::Fast ? dee::Engine::Reference
                                       : dee::Engine::Fast;
}

/** One run over every item of a workload. */
struct Pass
{
    std::vector<ItemResult> items;
    double wallMs = 0.0;
    double cpuS = 0.0;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    double mergeMs = 0.0; ///< runner.merge_ms the pass added
};

Pass
runPass(const Workload &workload, dee::Engine engine, int jobs,
        SpanLog *log)
{
    dee::RunningStat &merge =
        dee::obs::Registry::process().stat("runner.merge_ms");
    const double mergeBefore = merge.sum();
    Pass pass;
    pass.items.resize(workload.items());
    dee::runner::SweepOptions sweep;
    sweep.jobs = jobs;
    if (log != nullptr)
        pass.beginNs = log->nowNs();
    const double cpu = processCpuSeconds();
    const auto start = Clock::now();
    dee::runner::runCells(pass.items.size(), sweep, [&](std::size_t i) {
        pass.items[i] = workload.runItem(i, engine, log);
    });
    pass.wallMs = msSince(start);
    pass.cpuS = processCpuSeconds() - cpu;
    if (log != nullptr)
        pass.endNs = log->nowNs();
    pass.mergeMs = merge.sum() - mergeBefore;
    return pass;
}

/** Passes until the next one would end after @p seconds, and until
 *  at least kMinItems items ran. */
std::vector<Pass>
runPasses(const Workload &workload, double seconds)
{
    std::vector<Pass> passes;
    const auto start = Clock::now();
    do {
        passes.push_back(runPass(workload, dee::selectedEngine(),
                                 workload.jobs(), nullptr));
    } while (msSince(start) + passes.back().wallMs <= seconds * 1e3 ||
             passes.size() * workload.items() < kMinItems);
    return passes;
}

std::string
digestsPath()
{
    return std::string(PERFBENCH_SOURCE_DIR) + "/digests.txt";
}

/** workload -> per-item digests recorded for the default seed. */
std::map<std::string, std::vector<std::uint64_t>>
loadDigests()
{
    std::map<std::string, std::vector<std::uint64_t>> out;
    std::ifstream in(digestsPath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload;
        std::size_t index = 0;
        std::string hex;
        if (!(fields >> workload >> index >> hex))
            continue;
        auto &digests = out[workload];
        if (digests.size() <= index)
            digests.resize(index + 1, 0);
        digests[index] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

/** Output checks over one pass; failures name the item. */
class Checker
{
  public:
    /** Cycle-accounting identity and Oracle dominance per item. */
    void
    checkPass(const std::vector<ItemResult> &items)
    {
        std::map<std::string, double> oracle;
        for (const ItemResult &item : items)
            for (const SimStats &run : item.runs)
                if (run.model == "Oracle")
                    oracle[item.trace] = run.speedup;
        for (const ItemResult &item : items) {
            ++attempted_;
            std::string why;
            for (const SimStats &run : item.runs) {
                std::string identity;
                if (!run.account.valid() ||
                    !run.account.identityHolds(&identity))
                    why += run.model + " cycle account invalid " +
                           identity + "; ";
                if (run.model == "Oracle")
                    continue;
                const auto it = oracle.find(item.trace);
                if (it == oracle.end())
                    why += "no Oracle run on " + item.trace + "; ";
                else if (run.speedup > it->second)
                    why += run.model + " speedup " + number(run.speedup) +
                           " above Oracle " + number(it->second) + "; ";
            }
            fail(item, why);
        }
    }

    /** Item digests against the recorded ones (default seed only). */
    void
    checkDigests(const std::vector<ItemResult> &items,
                 const std::vector<std::uint64_t> &expected)
    {
        if (expected.size() != items.size()) {
            std::printf("FAIL digests: %zu recorded, %zu items\n",
                        expected.size(), items.size());
            for (const ItemResult &item : items)
                failed_.insert(&item);
            return;
        }
        for (std::size_t i = 0; i < items.size(); ++i)
            if (digestOf(items[i]) != expected[i])
                fail(items[i], "simulated statistics differ from the "
                               "recorded digest");
    }

    /** Every kDifferentialStride-th item, re-run on the other engine,
     *  must reproduce the timed engine's statistics bit for bit. */
    void
    checkEngines(const Workload &workload,
                 const std::vector<ItemResult> &items, std::uint64_t seed)
    {
        const dee::Engine other = otherEngine(dee::selectedEngine());
        std::vector<std::size_t> picked;
        for (std::size_t i = seed % kDifferentialStride; i < items.size();
             i += kDifferentialStride)
            picked.push_back(i);
        std::vector<std::uint64_t> digests(picked.size(), 0);
        dee::runner::SweepOptions sweep;
        sweep.jobs = workload.jobs();
        dee::runner::runCells(picked.size(), sweep, [&](std::size_t k) {
            digests[k] =
                digestOf(workload.runItem(picked[k], other, nullptr));
        });
        for (std::size_t k = 0; k < picked.size(); ++k)
            if (digests[k] != digestOf(items[picked[k]]))
                fail(items[picked[k]],
                     std::string("differs from the ") +
                         dee::engineName(other) + " engine");
        compared_ += picked.size();
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_.size(); }
    std::size_t compared() const { return compared_; }

  private:
    void
    fail(const ItemResult &item, const std::string &why)
    {
        if (why.empty())
            return;
        failed_.insert(&item);
        std::printf("FAIL %s: %s\n", item.label.c_str(), why.c_str());
    }

    std::uint64_t attempted_ = 0;
    /** Items failing any check, each counted once. */
    std::set<const ItemResult *> failed_;
    std::size_t compared_ = 0;
};

void
printHost(const Args &args)
{
    const HostFingerprint host = hostFingerprint();
    std::printf("host {\"nproc\": %u, \"cpu\": %s, \"perf_counters\": %s, "
                "\"build\": %s, \"commit\": %s, \"engine\": %s}\n",
                host.nproc, jsonString(host.cpuModel).c_str(),
                host.perfCounters ? "true" : "false",
                jsonString(host.buildType).c_str(),
                jsonString(args.commit).c_str(),
                jsonString(host.engine).c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics,
            const std::map<std::string, double> &values)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : metrics) {
        if (!first)
            line += ", ";
        first = false;
        line += jsonString(metric.name) + ": {\"value\": " +
                number(values.at(metric.name)) +
                ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

void
printReport(const std::vector<Metric> &metrics,
            const std::map<std::string, double> &values)
{
    for (const Metric &metric : metrics)
        std::printf("  %-22s %16.6f %s\n", metric.name.c_str(),
                    values.at(metric.name), metric.unit);
}

/** Simulated instructions over a pass. */
std::uint64_t
simInstructions(const Pass &pass)
{
    std::uint64_t n = 0;
    for (const ItemResult &item : pass.items)
        for (const SimStats &run : item.runs)
            n += run.instructions;
    return n;
}

/** Fraction of issued work squashed, over every run of a pass. */
double
squashedFraction(const Pass &pass)
{
    std::uint64_t squashed = 0;
    std::uint64_t issued = 0;
    for (const ItemResult &item : pass.items)
        for (const SimStats &run : item.runs) {
            const std::uint64_t s =
                run.account.slots(dee::obs::SlotClass::SquashedSpec);
            squashed += s;
            issued += s + run.account.slots(dee::obs::SlotClass::Useful);
        }
    return static_cast<double>(squashed) / static_cast<double>(issued);
}

void
printPassWalls(const char *what, const std::vector<Pass> &passes)
{
    std::printf("%s pass wall ms:", what);
    for (const Pass &pass : passes)
        std::printf(" %.1f", pass.wallMs);
    std::printf("\n");
}

/** Runs the output checks shared by both modes. */
void
checkRun(const Workload &workload, const Args &args,
         const std::vector<Pass> &passes, Checker &checker)
{
    for (const Pass &pass : passes)
        checker.checkPass(pass.items);
    if (args.seed == kDefaultSeed) {
        const auto digests = loadDigests();
        const auto it = digests.find(workload.name());
        checker.checkDigests(passes.front().items,
                             it == digests.end()
                                 ? std::vector<std::uint64_t>{}
                                 : it->second);
        std::printf("digests: checked against %s\n",
                    digestsPath().c_str());
    }
    checker.checkEngines(workload, passes.front().items, args.seed);
    std::printf("engine differential: %zu items re-run on the %s engine\n",
                checker.compared(),
                dee::engineName(otherEngine(dee::selectedEngine())));
}

int
runEndToEnd(Workload &workload, const Args &args)
{
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        workload.setup(nullptr);
        setups.push_back(msSince(start) / 1e3);
    }

    const std::vector<Pass> passes =
        runPasses(workload, args.seconds);

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> kips;
    std::vector<double> itemMs;
    for (const Pass &pass : passes) {
        walls.push_back(pass.wallMs / 1e3);
        cpus.push_back(pass.cpuS);
        kips.push_back(static_cast<double>(simInstructions(pass)) /
                       pass.wallMs);
        for (const ItemResult &item : pass.items)
            itemMs.push_back(item.ms);
    }

    Checker checker;
    checkRun(workload, args, passes, checker);

    std::map<std::string, double> values;
    values["setup_s"] = median(setups);
    values["wall_s"] = median(walls);
    values["sim_kips"] = median(kips);
    values["cpu_s"] = median(cpus);
    values["item_ms.p50"] = percentile(itemMs, 0.50);
    values["item_ms.p90"] = percentile(itemMs, 0.90);
    values["peak_rss_mb"] = peakRssMb();

    std::printf("%s seed=%" PRIu64 ": %zu set-ups, %zu passes, %zu item "
                "samples, %d workers\n",
                workload.name(), args.seed, setups.size(), passes.size(),
                itemMs.size(), workload.jobs());
    printPassWalls("measured", passes);
    printReport(kEndToEnd, values);
    std::printf("  %-22s %16.6f ratio\n", "failed_frac",
                static_cast<double>(checker.failed()) /
                    static_cast<double>(checker.attempted()));
    for (const auto &[name, value] :
         workload.reportExtras(passes.front().items))
        std::printf("  %-22s %16.6f %s\n", name.c_str(), value,
                    name == "paper_err_pct" ? "%" : "");

    printResult(checker.failed() == 0, checker.attempted(),
                checker.failed(), kEndToEnd, values);
    return 0;
}

int
runTraced(Workload &workload, const Args &args)
{
    SpanLog log;
    const std::int64_t setupBegin = log.nowNs();
    workload.setup(&log);
    const std::int64_t setupEnd = log.nowNs();

    // The same passes untraced and traced, alternating so both see the
    // same warm-up; at least one of each.
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    const auto start = Clock::now();
    do {
        plain.push_back(runPass(workload, dee::selectedEngine(),
                                workload.jobs(), nullptr));
        traced.push_back(
            runPass(workload, dee::selectedEngine(), workload.jobs(), &log));
    } while (msSince(start) + plain.back().wallMs + traced.back().wallMs <=
             args.seconds * 1e3);

    LayerMetrics values;
    const std::vector<Span> spans = log.spans();
    const std::map<std::int64_t, double> self = selfMs(spans);
    const double passes = static_cast<double>(traced.size());
    auto inWindow = [](const Span &span, std::int64_t begin,
                       std::int64_t end) {
        return span.startNs >= begin && span.endNs <= end;
    };
    auto inTraced = [&](const Span &span) {
        for (const Pass &pass : traced)
            if (inWindow(span, pass.beginNs, pass.endNs))
                return true;
        return false;
    };

    // Span totals: one set-up plus the mean traced pass.
    std::map<std::string, double> ms;
    std::map<std::string, double> work;
    for (const Span &span : spans) {
        const bool inSetup = inWindow(span, setupBegin, setupEnd);
        if (!inSetup && !inTraced(span))
            continue;
        const double weight = inSetup ? 1.0 : 1.0 / passes;
        std::string key = span.name;
        ms[key] += self.at(span.id) * weight;
        work[key] += static_cast<double>(span.work) * weight;
        if (key == "sim.window" || key == "sim.oracle")
            ms[std::string("sim.") + span.detail] +=
                self.at(span.id) * weight;
    }
    values["sim.window_ms"] = ms["sim.window"];
    values["sim.oracle_ms"] = ms["sim.oracle"];
    for (dee::ModelKind kind : dee::allModels())
        values[std::string("sim.") + dee::modelName(kind) + ".ms"] =
            ms[std::string("sim.") + dee::modelName(kind)];
    values["sim.ns_per_instr"] =
        1e6 * (ms["sim.window"] + ms["sim.oracle"]) /
        (work["sim.window"] + work["sim.oracle"]);
    values["sim.squashed_frac"] = squashedFraction(traced.front());
    values["exec.interpret_ms"] = ms["exec.interpret"];
    values["exec.ns_per_instr"] =
        1e6 * ms["exec.interpret"] / work["exec.interpret"];
    values["workloads.gen_ms"] = ms["workloads.gen"];
    values["cfg.build_ms"] = ms["cfg.build"];
    values["absint.ms"] = ms["absint"];
    values["mem.replay_ms"] = ms["mem.replay"];

    const auto records = static_cast<double>(
        workload.liveRecords(traced.front().items));
    values["trace.records"] = records;
    values["trace.mb"] =
        records * sizeof(dee::TraceRecord) / (1024.0 * 1024.0);

    double cellsMs = 0.0;
    double busy = 0.0;
    double merge = 0.0;
    double unattributed = 0.0;
    std::vector<double> tracedWalls;
    for (const Pass &pass : traced) {
        double itemMs = 0.0;
        for (const ItemResult &item : pass.items)
            itemMs += item.ms;
        cellsMs += pass.wallMs / passes;
        busy += itemMs / (workload.jobs() * pass.wallMs) / passes;
        merge += pass.mergeMs / passes;
        unattributed +=
            (pass.wallMs - coveredMs(spans, pass.beginNs, pass.endNs)) /
            passes;
        tracedWalls.push_back(pass.wallMs);
    }
    std::vector<double> plainWalls;
    for (const Pass &pass : plain)
        plainWalls.push_back(pass.wallMs);
    values["runner.cells_wall_ms"] = cellsMs;
    values["runner.busy_frac"] = busy;
    values["runner.merge_ms"] = merge;
    values["unattributed_ms"] = unattributed;
    values["trace_overhead_pct"] =
        100.0 * (median(tracedWalls) / median(plainWalls) - 1.0);

    // Probes last: they overwrite only the layers this workload's own
    // path does not reach, plus the per-call prepare costs.
    LayerMetrics probed;
    workload.probe(probed);
    for (const auto &[name, value] : probed)
        values[name] = value;

    std::vector<Pass> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    Checker checker;
    checkRun(workload, args, all, checker);

    const std::vector<Metric> metrics = perLayerMetrics();
    std::printf("%s seed=%" PRIu64 " traced: %zu untraced + %zu traced "
                "passes, %zu spans\n",
                workload.name(), args.seed, plain.size(), traced.size(),
                spans.size());
    printPassWalls("untraced", plain);
    printPassWalls("traced", traced);
    printReport(metrics, values);
    printResult(checker.failed() == 0, checker.attempted(),
                checker.failed(), metrics, values);
    return 0;
}

/**
 * Scale-1 smoke of every workload: digests must not depend on the
 * worker count or on the engine, and every output check must pass.
 */
int
runSmoke()
{
    Params params;
    params.fig5Scale = 1;
    params.peScale = 1;
    params.freshScales = {1};
    params.freshItems = 15;
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        auto workload = makeWorkloadByName(name, kDefaultSeed, params);
        workload->setup(nullptr);
        const dee::Engine engine = dee::selectedEngine();
        const Pass one = runPass(*workload, engine, 1, nullptr);
        const Pass two = runPass(*workload, engine, 2, nullptr);
        const Pass other =
            runPass(*workload, otherEngine(engine), 1, nullptr);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < one.items.size(); ++i) {
            const std::uint64_t digest = digestOf(one.items[i]);
            if (digest != digestOf(two.items[i]) ||
                digest != digestOf(other.items[i])) {
                ++mismatches;
                std::printf("FAIL %s: digest depends on workers or "
                            "engine\n",
                            one.items[i].label.c_str());
            }
        }
        Checker checker;
        checker.checkPass(one.items);
        std::printf("smoke %s: %zu items, %zu digest mismatches, %" PRIu64
                    " failed checks\n",
                    name.c_str(), one.items.size(), mismatches,
                    checker.failed());
        ok = ok && mismatches == 0 && checker.failed() == 0;
    }
    std::printf("smoke %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

/** Writes digests.txt: one pass of each workload at the default seed. */
int
recordDigests()
{
    std::ofstream out(digestsPath());
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", digestsPath().c_str());
        return 1;
    }
    out << "# Per-item digests of simulated statistics at the default "
           "seed.\n# Regenerate with: dee_perfbench --record-digests\n";
    for (const std::string &name : workloadNames()) {
        auto workload = makeWorkloadByName(name, kDefaultSeed, Params{});
        workload->setup(nullptr);
        const Pass pass = runPass(*workload, dee::selectedEngine(),
                                  workload->jobs(), nullptr);
        for (std::size_t i = 0; i < pass.items.size(); ++i) {
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016" PRIx64,
                          digestOf(pass.items[i]));
            out << name << ' ' << i << ' ' << hex << ' '
                << pass.items[i].label << '\n';
        }
        std::printf("recorded %zu digests for %s\n", pass.items.size(),
                    name.c_str());
    }
    return 0;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (flag == "--record-digests") {
            args.recordDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--commit")
                args.commit = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return args.smoke || args.recordDigests ||
           (!args.workload.empty() && args.seconds > 0.0 &&
            (args.trace == 0 || args.trace == 1));
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: dee_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--commit ID]\n"
                     "       dee_perfbench --smoke | --record-digests\n");
        return 2;
    }
    try {
        if (args.smoke)
            return runSmoke();
        if (args.recordDigests)
            return recordDigests();
        auto workload =
            makeWorkloadByName(args.workload, args.seed, Params{});
        if (!workload) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
        printHost(args);
        return args.trace == 1 ? runTraced(*workload, args)
                               : runEndToEnd(*workload, args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "dee_perfbench: %s\n", error.what());
        return 1;
    }
}
