#include "obs/registry.hh"

#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "common/table.hh"

namespace dee::obs
{

namespace
{

bool
validSegmentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-';
}

/** Paths are dot-separated non-empty [A-Za-z0-9_-]+ segments. */
bool
validPath(const std::string &path)
{
    if (path.empty() || path.front() == '.' || path.back() == '.')
        return false;
    bool prev_dot = false;
    for (const char c : path) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
        } else if (validSegmentChar(c)) {
            prev_dot = false;
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

namespace
{

/** Per-thread override installed by parallel-runner cells. */
thread_local Registry *current_registry = nullptr;

} // namespace

Registry &
Registry::global()
{
    return current_registry != nullptr ? *current_registry : process();
}

Registry &
Registry::process()
{
    static Registry instance;
    return instance;
}

Registry *
Registry::setCurrent(Registry *registry)
{
    Registry *previous = current_registry;
    current_registry = registry;
    return previous;
}

const char *
Registry::kindName(Entry::Kind kind)
{
    switch (kind) {
      case Entry::Kind::Counter: return "counter";
      case Entry::Kind::Scalar: return "scalar";
      case Entry::Kind::Stat: return "stat";
      case Entry::Kind::Hist: return "histogram";
    }
    return "???";
}

Registry::Entry &
Registry::resolve(const std::string &path, Entry::Kind kind)
{
    if (!validPath(path)) {
        dee_fatal("bad stat path '", path,
                  "' (want dot-separated [A-Za-z0-9_-] segments)");
    }
    auto it = entries_.find(path);
    if (it != entries_.end()) {
        if (it->second.kind != kind) {
            dee_fatal("stat path '", path, "' already registered as a ",
                      kindName(it->second.kind), ", re-requested as a ",
                      kindName(kind));
        }
        return it->second;
    }
    // Tree-shape check: no leaf may be a dotted prefix of another.
    // entries_ is ordered, so candidate conflicts are adjacent to the
    // insertion point.
    const auto next = entries_.lower_bound(path);
    if (next != entries_.end() &&
        next->first.size() > path.size() &&
        next->first.compare(0, path.size(), path) == 0 &&
        next->first[path.size()] == '.') {
        dee_fatal("stat path '", path, "' is a prefix of existing '",
                  next->first, "'");
    }
    if (next != entries_.begin()) {
        const auto &prev = std::prev(next)->first;
        if (path.size() > prev.size() &&
            path.compare(0, prev.size(), prev) == 0 &&
            path[prev.size()] == '.') {
            dee_fatal("stat path '", path,
                      "' descends through existing leaf '", prev, "'");
        }
    }
    Entry entry;
    entry.kind = kind;
    return entries_.emplace(path, std::move(entry)).first->second;
}

const Registry::Entry *
Registry::findEntry(const std::string &path, Entry::Kind kind) const
{
    const auto it = entries_.find(path);
    if (it == entries_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, entry] : entries_)
        out.push_back(path);
    return out;
}

const std::uint64_t *
Registry::findCounter(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Counter);
    return e != nullptr ? &e->counter : nullptr;
}

const double *
Registry::findScalar(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Scalar);
    return e != nullptr ? &e->scalar : nullptr;
}

const RunningStat *
Registry::findStat(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Stat);
    return e != nullptr ? &e->stat : nullptr;
}

const Histogram *
Registry::findHistogram(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Hist);
    return e != nullptr && e->hist ? e->hist.get() : nullptr;
}

void
Registry::merge(const Registry &other)
{
    for (const auto &[path, entry] : other.entries_) {
        switch (entry.kind) {
          case Entry::Kind::Counter:
            counter(path) += entry.counter;
            break;
          case Entry::Kind::Scalar:
            scalar(path) = entry.scalar;
            break;
          case Entry::Kind::Stat:
            stat(path).merge(entry.stat);
            break;
          case Entry::Kind::Hist:
            if (entry.hist) {
                histogram(path, entry.hist->lo(), entry.hist->hi(),
                          entry.hist->numBuckets())
                    .merge(*entry.hist);
            }
            break;
        }
    }
}

std::uint64_t &
Registry::counter(const std::string &path)
{
    return resolve(path, Entry::Kind::Counter).counter;
}

double &
Registry::scalar(const std::string &path)
{
    return resolve(path, Entry::Kind::Scalar).scalar;
}

RunningStat &
Registry::stat(const std::string &path)
{
    const bool fresh = entries_.find(path) == entries_.end();
    RunningStat &s = resolve(path, Entry::Kind::Stat).stat;
    if (fresh && logStatSamples_)
        s.enableSampleLog();
    return s;
}

Histogram &
Registry::histogram(const std::string &path, double lo, double hi,
                    std::size_t buckets)
{
    Entry &entry = resolve(path, Entry::Kind::Hist);
    if (!entry.hist)
        entry.hist = std::make_unique<Histogram>(lo, hi, buckets);
    return *entry.hist;
}

bool
Registry::contains(const std::string &path) const
{
    return entries_.count(path) > 0;
}

std::string
Registry::renderText() const
{
    Table table({"stat", "value"});
    std::ostringstream hists;
    for (const auto &[path, entry] : entries_) {
        switch (entry.kind) {
          case Entry::Kind::Counter:
            table.addRow({path, std::to_string(entry.counter)});
            break;
          case Entry::Kind::Scalar:
            table.addRow({path, Table::fmt(entry.scalar, 4)});
            break;
          case Entry::Kind::Stat: {
            std::ostringstream cell;
            cell << "n=" << entry.stat.count()
                 << " mean=" << Table::fmt(entry.stat.mean(), 4)
                 << " min=" << Table::fmt(entry.stat.min(), 4)
                 << " max=" << Table::fmt(entry.stat.max(), 4);
            table.addRow({path, cell.str()});
            break;
          }
          case Entry::Kind::Hist:
            hists << entry.hist->render(path);
            break;
        }
    }
    std::string out = table.render();
    const std::string tail = hists.str();
    if (!tail.empty()) {
        out += "\n";
        out += tail;
    }
    return out;
}

namespace
{

Json
statToJson(const RunningStat &s)
{
    Json j = Json::object();
    j["count"] = Json(s.count());
    j["mean"] = Json(s.mean());
    j["min"] = Json(s.min());
    j["max"] = Json(s.max());
    j["stddev"] = Json(s.stddev());
    j["sum"] = Json(s.sum());
    return j;
}

Json
histToJson(const Histogram &h)
{
    Json j = Json::object();
    j["lo"] = Json(h.bucketLo(0));
    j["total"] = Json(h.total());
    j["underflow"] = Json(h.underflow());
    j["overflow"] = Json(h.overflow());
    Json buckets = Json::array();
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        buckets.push(Json(h.bucketCount(i)));
    j["buckets"] = std::move(buckets);
    return j;
}

} // namespace

Json
Registry::toJson() const
{
    Json root = Json::object();
    for (const auto &[path, entry] : entries_) {
        // Walk/create the nested objects for all but the last segment.
        Json *node = &root;
        std::size_t start = 0;
        while (true) {
            const std::size_t dot = path.find('.', start);
            if (dot == std::string::npos)
                break;
            Json &child = (*node)[path.substr(start, dot - start)];
            if (!child.isObject())
                child = Json::object();
            node = &child;
            start = dot + 1;
        }
        Json &leaf = (*node)[path.substr(start)];
        switch (entry.kind) {
          case Entry::Kind::Counter:
            leaf = Json(entry.counter);
            break;
          case Entry::Kind::Scalar:
            leaf = Json(entry.scalar);
            break;
          case Entry::Kind::Stat:
            leaf = statToJson(entry.stat);
            break;
          case Entry::Kind::Hist:
            leaf = histToJson(*entry.hist);
            break;
        }
    }
    return root;
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t
counterOrZero(const Registry &registry, const std::string &path)
{
    const std::uint64_t *c = registry.findCounter(path);
    return c != nullptr ? *c : 0;
}

/** One derived-scalar rule: every leaf "<family><scope><anchor>"
 *  names a scope whose facts yield the rule's scalars. */
struct DeriveRule
{
    std::string_view family;
    std::string_view anchor;
    void (*derive)(Registry &registry, const std::string &scope);
};

const DeriveRule kDeriveRules[] = {
    {"acct.", ".pe_slot_cycles",
     [](Registry &r, const std::string &scope) {
         const std::uint64_t useful = counterOrZero(r, scope + ".useful");
         const std::uint64_t squashed =
             counterOrZero(r, scope + ".squashed_spec");
         r.scalar(scope + ".waste_fraction") =
             ratio(squashed, useful + squashed);
         r.scalar(scope + ".useful_fraction") =
             ratio(useful, counterOrZero(r, scope + ".pe_slot_cycles"));
     }},
    {"prof.", ".resolve_latency",
     [](Registry &r, const std::string &scope) {
         const Histogram *latency =
             r.findHistogram(scope + ".resolve_latency");
         if (latency == nullptr || latency->total() == 0)
             return;
         r.scalar(scope + ".resolve_latency_p50") =
             latency->percentile(0.50);
         r.scalar(scope + ".resolve_latency_p90") =
             latency->percentile(0.90);
     }},
    {"perf.", ".sim_instructions",
     [](Registry &r, const std::string &scope) {
         const RunningStat *wall = r.findStat(scope + ".run_ms");
         const double ms = wall != nullptr ? wall->sum() : 0.0;
         if (ms > 0.0) {
             // Instructions per host millisecond == kilo-instructions
             // per host second; same for cycles and mcps after /1000.
             r.scalar(scope + ".kips") =
                 static_cast<double>(
                     counterOrZero(r, scope + ".sim_instructions")) /
                 ms;
             if (const std::uint64_t *cycles =
                     r.findCounter(scope + ".sim_cycles"))
                 r.scalar(scope + ".mcps") =
                     static_cast<double>(*cycles) / ms / 1000.0;
         }
         const std::uint64_t *host_instrs =
             r.findCounter(scope + ".host_instructions");
         const std::uint64_t host_cycles =
             counterOrZero(r, scope + ".host_cycles");
         if (host_instrs != nullptr && host_cycles > 0)
             r.scalar(scope + ".host_ipc") =
                 ratio(*host_instrs, host_cycles);
     }},
};

} // namespace

void
deriveScalars(Registry &registry)
{
    for (const std::string &path : registry.paths()) {
        for (const DeriveRule &rule : kDeriveRules) {
            const std::size_t a = rule.anchor.size();
            if (path.size() > rule.family.size() + a &&
                path.starts_with(rule.family) && path.ends_with(rule.anchor))
                rule.derive(registry, path.substr(0, path.size() - a));
        }
    }
}

} // namespace dee::obs
